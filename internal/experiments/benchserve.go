package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file emits the serving perf trajectory (BENCH_serve.json): a
// machine-readable record of what the sparse fast path buys over the
// dense one — kernel speedup by density, and cache hit rate plus
// throughput at a fixed byte budget. CI regenerates and uploads it on
// every run so future changes can be diffed against the trajectory
// instead of re-measured by hand.

// KernelPoint is one density sample of the fc forward kernel comparison.
type KernelPoint struct {
	Density      float64 `json:"density"`
	DenseNsOp    float64 `json:"dense_ns_op"`
	CSRNsOp      float64 `json:"csr_ns_op"`
	Speedup      float64 `json:"speedup"`       // dense / csr
	ResidentFrac float64 `json:"resident_frac"` // CSR bytes / dense bytes
}

// KernelScalingPoint is one GOMAXPROCS setting of the kernel scaling
// sweep: the fc forward through both kernels at a fixed shape and density.
type KernelScalingPoint struct {
	Procs        int     `json:"gomaxprocs"`
	DenseNsOp    float64 `json:"dense_ns_op"`
	DenseRowsSec float64 `json:"dense_rows_per_sec"`
	DenseSpeedup float64 `json:"dense_speedup_vs_p1"`
	CSRNsOp      float64 `json:"csr_ns_op"`
	CSRRowsSec   float64 `json:"csr_rows_per_sec"`
	CSRSpeedup   float64 `json:"csr_speedup_vs_p1"`
}

// KernelScaling is the multicore throughput record for the tiled kernels:
// ns/op and rows/s at GOMAXPROCS 1/2/4/8. PhysicalCPUs is runtime.NumCPU()
// on the generating machine — on a box with fewer cores than a sweep
// point, that point oversubscribes and its speedup is honestly flat; only
// multi-core runs (CI) can show real scaling.
type KernelScaling struct {
	Shape        string               `json:"shape"`
	Density      float64              `json:"density"`
	PhysicalCPUs int                  `json:"physical_cpus"`
	Points       []KernelScalingPoint `json:"points"`
}

// ServingSide is one residency policy's serving measurement.
type ServingSide struct {
	HitRate     float64 `json:"hit_rate"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	SparseBytes int64   `json:"sparse_bytes_in_use"`
	DenseBytes  int64   `json:"dense_bytes_in_use"`
}

// ServingVariant is one (eviction policy × prefetch depth) cell of the
// serving matrix, measured on the mixed-codec thrashing workload: a
// budget of two dense layers over eight, every layer resident dense, so
// residency choices — what to keep, what to decode ahead — are the whole
// difference between cells.
type ServingVariant struct {
	Policy        string `json:"policy"`
	PrefetchDepth int    `json:"prefetch_depth"`
	// HitRate counts demand decode-or-hit gets only; EffectiveHitRate also
	// counts gets served by joining an in-flight (often prefetch) decode.
	HitRate          float64 `json:"hit_rate"`
	EffectiveHitRate float64 `json:"effective_hit_rate"`
	RowsPerSec       float64 `json:"rows_per_sec"`
	Prefetches       uint64  `json:"prefetches"`
	PrefetchHits     uint64  `json:"prefetch_hits"`
	PrefetchWaste    uint64  `json:"prefetch_waste"`
	PrefetchOverlap  uint64  `json:"prefetch_overlap"`
	AdmissionDrops   uint64  `json:"admission_drops"`
}

// StageQuantiles is one pipeline stage's per-request latency summary,
// measured from the engine's own traces (the same instrumentation the
// /metrics stage histograms sample).
type StageQuantiles struct {
	Stage string `json:"stage"`
	P50Ns int64  `json:"p50_ns"`
	P95Ns int64  `json:"p95_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// BenchReport is the BENCH_serve.json schema.
type BenchReport struct {
	GeneratedUnix int64  `json:"generated_unix"`
	CPU           int    `json:"gomaxprocs"`
	KernelShape   string `json:"kernel_shape"`
	// Kernel sweeps the fc forward at AlexNet-like shape across densities;
	// the paper's pruned fc layers sit near density 0.1.
	Kernel []KernelPoint `json:"kernel"`
	// KernelScaling sweeps the same shape across GOMAXPROCS for both
	// kernels at the paper's ~10% density.
	KernelScaling KernelScaling `json:"kernel_scaling"`
	// Serving fixes a cache budget of two dense layers over an
	// eight-layer model and compares dense-only residency against the
	// sparse threshold: CSR entries are ~8× smaller at 10% density, so
	// the same budget holds every layer and the hit rate jumps.
	ServingBudget int64       `json:"serving_budget_bytes"`
	ServingDense  ServingSide `json:"serving_dense"`
	ServingSparse ServingSide `json:"serving_sparse"`
	HitRateGain   float64     `json:"hit_rate_gain"`
	// ServingMatrix crosses eviction policy {lru, gdsf} with decode-ahead
	// depth {0, 2} on a mixed-codec (sz/deepcomp), mixed-decode-cost
	// workload at the same two-layer budget, all layers dense: prefetch
	// buys rows/s by overlapping decode with compute, GDSF buys hit rate
	// by keeping the layers whose re-decode costs the most. Measured at
	// GOMAXPROCS = ServingMatrixProcs so kernels and decode-ahead contend
	// the way a multicore deployment would.
	ServingMatrix      []ServingVariant `json:"serving_matrix"`
	ServingMatrixProcs int              `json:"serving_matrix_gomaxprocs"`
	// StageLatency breaks the sparse-side serving latency down by
	// pipeline stage (queue, batch_wait, cache_lookup, decode, kernel) at
	// p50/p95/p99, from per-request traces through the micro-batcher —
	// the offline twin of the deepsz_stage_duration_seconds histograms.
	StageLatency []StageQuantiles `json:"stage_latency"`
}

// timePair measures steady-state ns/op of a and b in alternating ~10 ms
// rounds and returns each side's fastest round. The two numbers end up in
// one ratio, and on a shared runner a neighbour's CPU burst lasts longer
// than a kernel call: timed in two back-to-back windows it lands on one
// side only and moves the ratio, whereas a burst can only slow a round,
// never speed one up, so the minimum over interleaved rounds discards it.
func timePair(a, b func()) (aNs, bNs float64) {
	round := func(f func()) float64 {
		t0 := time.Now()
		n := 0
		for time.Since(t0) < 10*time.Millisecond {
			f()
			n++
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	a() // warm caches and pools
	b()
	aNs, bNs = math.Inf(1), math.Inf(1)
	for i := 0; i < 12; i++ {
		aNs = math.Min(aNs, round(a))
		bNs = math.Min(bNs, round(b))
	}
	return aNs, bNs
}

// Sparsify zeroes all but roughly density of w, deterministically — the
// shared workload generator for the kernel sweep here and the top-level
// BenchmarkSparseForward, so both measure the same sparsity pattern.
func Sparsify(rng *tensor.RNG, w []float32, density float64) {
	gate := make([]float32, len(w))
	rng.FillUniform(gate, 0, 1)
	for i := range w {
		if float64(gate[i]) >= density {
			w[i] = 0
		}
	}
}

// benchKernel sweeps the fc forward kernel dense-vs-CSR by density.
func benchKernel() []KernelPoint {
	rng := tensor.NewRNG(55)
	const out, in, batch = 256, 2048, 16
	d := nn.NewDense("fc", in, out, rng)
	x := tensor.New(batch, in)
	rng.FillNormal(x.Data, 0, 1)
	var points []KernelPoint
	for _, density := range []float64{0.05, 0.1, 0.25, 0.5, 1} {
		w := append([]float32(nil), d.W.W.Data...)
		Sparsify(rng, w, density)
		csr := tensor.CSRFromDense(w, out, in)
		denseNs, csrNs := timePair(
			func() { d.ForwardWith(x, w, nil) },
			func() { d.ForwardSparse(x, csr, nil) })
		points = append(points, KernelPoint{
			Density:      density,
			DenseNsOp:    denseNs,
			CSRNsOp:      csrNs,
			Speedup:      denseNs / csrNs,
			ResidentFrac: float64(csr.Bytes()) / float64(4*len(w)),
		})
	}
	return points
}

// benchKernelScaling sweeps the fc forward across GOMAXPROCS for the dense
// and CSR kernels at the paper's ~10% density. GOMAXPROCS is restored
// before returning.
func benchKernelScaling() KernelScaling {
	rng := tensor.NewRNG(55)
	const out, in, batch = 256, 2048, 16
	const density = 0.1
	d := nn.NewDense("fc", in, out, rng)
	x := tensor.New(batch, in)
	rng.FillNormal(x.Data, 0, 1)
	w := append([]float32(nil), d.W.W.Data...)
	Sparsify(rng, w, density)
	csr := tensor.CSRFromDense(w, out, in)

	ks := KernelScaling{
		Shape:        fmt.Sprintf("fc %dx%d, batch %d", out, in, batch),
		Density:      density,
		PhysicalCPUs: runtime.NumCPU(),
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var dense1, csr1 float64
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		p := KernelScalingPoint{Procs: procs}
		p.DenseNsOp, p.CSRNsOp = timePair(
			func() { d.ForwardWith(x, w, nil) },
			func() { d.ForwardSparse(x, csr, nil) })
		p.DenseRowsSec = batch * 1e9 / p.DenseNsOp
		p.CSRRowsSec = batch * 1e9 / p.CSRNsOp
		if procs == 1 {
			dense1, csr1 = p.DenseNsOp, p.CSRNsOp
		}
		p.DenseSpeedup = dense1 / p.DenseNsOp
		p.CSRSpeedup = csr1 / p.CSRNsOp
		ks.Points = append(ks.Points, p)
	}
	return ks
}

// benchServingNet builds an eight-layer pruned MLP at the paper's ~10%
// fc density — balanced layers, so the cache-capacity effect is not
// hidden by one dominant layer.
func benchServingNet() (*nn.Network, *core.Model, error) {
	rng := tensor.NewRNG(77)
	layers := []nn.Layer{nn.NewFlatten("flat")}
	ratios := map[string]float64{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("fc%d", i)
		layers = append(layers, nn.NewDense(name, 256, 256, rng), nn.NewReLU(name+"-relu"))
		ratios[name] = 0.1
	}
	net := nn.NewNetwork("serve-bench", layers...)
	prune.Network(net, ratios, 0.1)
	plan := &core.Plan{}
	for _, fc := range net.DenseLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3})
	}
	m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	return net, m, err
}

// benchServingSide serves requests against one residency policy and
// reports hit rate, throughput, and the cache's resident-byte split.
func benchServingSide(net *nn.Network, m *core.Model, budget int64, threshold float64) (ServingSide, error) {
	reg := serve.NewRegistry(budget, serve.BatchOptions{})
	defer reg.Close()
	reg.SetSparseThreshold(threshold)
	eng, err := reg.Add("bench", m, net, []int{256})
	if err != nil {
		return ServingSide{}, err
	}
	const rows, requests = 8, 60
	batch := make([][]float32, rows)
	rng := tensor.NewRNG(123)
	for i := range batch {
		batch[i] = make([]float32, 256)
		rng.FillNormal(batch[i], 0, 1)
	}
	if _, err := eng.Predict(batch); err != nil { // warm
		return ServingSide{}, err
	}
	t0 := time.Now()
	for i := 0; i < requests; i++ {
		if _, err := eng.Predict(batch); err != nil {
			return ServingSide{}, err
		}
	}
	elapsed := time.Since(t0).Seconds()
	s := reg.Cache().Stats()
	return ServingSide{
		HitRate:     s.HitRate(),
		RowsPerSec:  float64(rows*requests) / elapsed,
		SparseBytes: s.SparseBytes,
		DenseBytes:  s.DenseBytes,
	}, nil
}

// benchMixedCodecNet builds the matrix workload: eight equal-shape fc
// layers whose decode costs differ — codecs alternate between sz and the
// Deep-Compression-style path, and densities alternate between heavily
// and lightly pruned — so a cost-aware policy has real spread to exploit
// while every layer still charges the same dense bytes to the budget.
func benchMixedCodecNet() (*nn.Network, *core.Model, error) {
	rng := tensor.NewRNG(88)
	layers := []nn.Layer{nn.NewFlatten("flat")}
	ratios := map[string]float64{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("fc%d", i)
		layers = append(layers, nn.NewDense(name, 256, 256, rng), nn.NewReLU(name+"-relu"))
		if i%2 == 0 {
			ratios[name] = 0.05
		} else {
			ratios[name] = 0.4
		}
	}
	net := nn.NewNetwork("serve-bench-mixed", layers...)
	prune.Network(net, ratios, 0.1)
	plan := &core.Plan{}
	for i, fc := range net.DenseLayers() {
		id := codec.IDSZ
		if i%2 == 1 {
			id = codec.IDDeepComp
		}
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3, Codec: id})
	}
	m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	return net, m, err
}

// benchServingVariant serves the mixed-codec workload under one
// (policy, prefetch depth) configuration. Threshold 0 keeps every layer
// dense: at a two-of-eight budget the cache must thrash, and the cell's
// numbers are purely the policy's and the prefetcher's doing.
func benchServingVariant(net *nn.Network, m *core.Model, budget int64, policy serve.EvictionPolicy, depth int) (ServingVariant, error) {
	reg := serve.NewRegistry(budget, serve.BatchOptions{})
	defer reg.Close()
	if err := reg.SetEvictionPolicy(policy); err != nil {
		return ServingVariant{}, err
	}
	reg.SetSparseThreshold(0)
	reg.SetPrefetchDepth(depth)
	eng, err := reg.Add("bench-matrix", m, net, []int{256})
	if err != nil {
		return ServingVariant{}, err
	}
	// 64-row batches make the kernel comparable to a layer decode, so
	// decode-ahead has real compute to hide under — the regime the paper's
	// layer-at-a-time serving targets.
	const rows, requests = 64, 60
	batch := make([][]float32, rows)
	rng := tensor.NewRNG(345)
	for i := range batch {
		batch[i] = make([]float32, 256)
		rng.FillNormal(batch[i], 0, 1)
	}
	if _, err := eng.Predict(batch); err != nil { // warm
		return ServingVariant{}, err
	}
	t0 := time.Now()
	for i := 0; i < requests; i++ {
		if _, err := eng.Predict(batch); err != nil {
			return ServingVariant{}, err
		}
	}
	elapsed := time.Since(t0).Seconds()
	s := reg.Cache().Stats()
	return ServingVariant{
		Policy:           policy.String(),
		PrefetchDepth:    depth,
		HitRate:          s.HitRate(),
		EffectiveHitRate: s.EffectiveHitRate(),
		RowsPerSec:       float64(rows*requests) / elapsed,
		Prefetches:       s.Prefetches,
		PrefetchHits:     s.PrefetchHits,
		PrefetchWaste:    s.PrefetchWaste,
		PrefetchOverlap:  s.PrefetchOver,
		AdmissionDrops:   s.AdmissionDrops,
	}, nil
}

// benchServingMatrix measures every policy × depth cell.
func benchServingMatrix(net *nn.Network, m *core.Model, budget int64) ([]ServingVariant, error) {
	var out []ServingVariant
	for _, policy := range []serve.EvictionPolicy{serve.EvictLRU, serve.EvictGDSF} {
		for _, depth := range []int{0, 2} {
			v, err := benchServingVariant(net, m, budget, policy, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// quantileNs picks the p-th percentile (0..100) from sorted ns samples.
func quantileNs(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

// benchStageLatency serves traced requests through the micro-batcher and
// summarises each pipeline stage's per-request latency at p50/p95/p99.
func benchStageLatency(net *nn.Network, m *core.Model, budget int64, threshold float64) ([]StageQuantiles, error) {
	reg := serve.NewRegistry(budget, serve.BatchOptions{})
	defer reg.Close()
	reg.SetSparseThreshold(threshold)
	eng, err := reg.Add("bench-stage", m, net, []int{256})
	if err != nil {
		return nil, err
	}
	const rows, requests = 8, 60
	batch := make([][]float32, rows)
	rng := tensor.NewRNG(321)
	for i := range batch {
		batch[i] = make([]float32, 256)
		rng.FillNormal(batch[i], 0, 1)
	}
	var samples [telemetry.NumStages][]int64
	for i := 0; i < requests; i++ {
		tr := telemetry.NewTrace("")
		if _, err := eng.PredictBatchedTraced(batch, tr); err != nil {
			return nil, err
		}
		for _, st := range telemetry.Stages() {
			samples[st] = append(samples[st], tr.Dur(st).Nanoseconds())
		}
	}
	var out []StageQuantiles
	for _, st := range telemetry.Stages() {
		if st == telemetry.StageEncode {
			continue // encode is HTTP serialisation; there is none here
		}
		s := samples[st]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out = append(out, StageQuantiles{
			Stage: st.String(),
			P50Ns: quantileNs(s, 50),
			P95Ns: quantileNs(s, 95),
			P99Ns: quantileNs(s, 99),
		})
	}
	return out, nil
}

// BenchServe runs the sparse-path benchmark suite and returns the report.
func BenchServe() (*BenchReport, error) {
	net, m, err := benchServingNet()
	if err != nil {
		return nil, err
	}
	budget := 2 * m.MaxDenseBytes() // two of eight layers fit dense
	dense, err := benchServingSide(net, m, budget, 0)
	if err != nil {
		return nil, err
	}
	sparse, err := benchServingSide(net, m, budget, serve.DefaultSparseThreshold)
	if err != nil {
		return nil, err
	}
	stages, err := benchStageLatency(net, m, budget, serve.DefaultSparseThreshold)
	if err != nil {
		return nil, err
	}
	mixedNet, mixedM, err := benchMixedCodecNet()
	if err != nil {
		return nil, err
	}
	const matrixProcs = 4
	prev := runtime.GOMAXPROCS(matrixProcs)
	matrix, err := benchServingMatrix(mixedNet, mixedM, 2*mixedM.MaxDenseBytes())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	return &BenchReport{
		GeneratedUnix:      time.Now().Unix(),
		CPU:                runtime.GOMAXPROCS(0),
		KernelShape:        "fc 256x2048, batch 16",
		Kernel:             benchKernel(),
		KernelScaling:      benchKernelScaling(),
		ServingBudget:      budget,
		ServingDense:       dense,
		ServingSparse:      sparse,
		HitRateGain:        sparse.HitRate - dense.HitRate,
		ServingMatrix:      matrix,
		ServingMatrixProcs: matrixProcs,
		StageLatency:       stages,
	}, nil
}

// WriteBenchServe runs BenchServe and writes the JSON report to w.
func WriteBenchServe(w io.Writer) error {
	r, err := BenchServe()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
