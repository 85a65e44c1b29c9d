package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runOpts are the knobs of one run; all come from the command line.
type runOpts struct {
	seed    uint64
	seconds int
	trace   bool
}

// result is one run of one workload.
type result struct {
	Workload  string
	Attempted int // predict requests + CLI calls + verifications
	Failed    int // non-200s, timeouts, wrong answers, failed CLI calls, failed verifications
	Problems  []string
	Metrics   *metricSet
	Samples   int // predict latency samples behind p50/p95
	TookS     float64
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// workloadTimeout bounds one run: the driver allows 180 s, and a wedged
// daemon must end in a killed process group and a non-zero exit, not a hang.
const workloadTimeout = 170 * time.Second

// served is what one serving window measured, from outside.
type served struct {
	load      *loadResult
	stats     statsWindow
	setupS    []float64 // one entry per fleet boot + warm pass
	replicaMS float64   // Σ replica CPU over the window, ms
	gatewayMS float64
	cpuErr    error
	replicaMB float64 // largest replica RSS at the end of the window
	gatewayMB float64
	problems  []string
}

// runWorkload runs one workload's life cycle: encode → verify → decode →
// serve. With trace off it fills the end-to-end metrics (and the per-layer
// metrics that need no spans, for the human-readable report); with trace on
// it serves twice — plain, then through the recording proxies — and fills
// the per-layer metrics, including the tracing overhead.
func runWorkload(ctx context.Context, e *env, w workload, o runOpts) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, workloadTimeout)
	defer cancel()
	started := time.Now()
	runDir := filepath.Join(e.out, "run")
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	ms := newMetricSet()
	res := &result{Workload: w.Name, Metrics: ms}
	defer func() { res.TookS = time.Since(started).Seconds() }()

	// Repeats steady the medians; a smoke run or a traced run (whose
	// end-to-end numbers are not reported) does each thing once.
	repeats := 3
	if o.seconds < 5 || o.trace {
		repeats = 1
	}
	window := time.Duration(float64(o.seconds) * w.Window * float64(time.Second))

	encodeFor := time.Duration(0)
	if repeats > 1 {
		encodeFor = time.Duration(o.seconds) * time.Second * 3 / 10
	}
	off, err := runOffline(ctx, e, w, runDir, repeats, encodeFor, o.seed)
	if err != nil {
		return nil, err
	}
	res.Attempted += off.Attempted
	res.Failed += len(off.Problems)
	res.Problems = append(res.Problems, off.Problems...)

	// Set-up the serving half needs whatever the fleet does: the reference
	// network and the seeded request pool with its reference answers.
	t0 := time.Now()
	ref, err := referenceNet(w.ServeNet, e.pruned(w.ServeNet), dszPath(runDir, w.ServeNet))
	if err != nil {
		return nil, err
	}
	pool, err := newInputPool(w.ServeNet, ref, w.Rows, o.seed)
	if err != nil {
		return nil, err
	}
	prepS := time.Since(t0).Seconds() + off.PaperFCS

	spec := loadSpec{names: w.Names, rows: w.Rows, openRate: w.OpenRate, window: window, conns: clientConns(), seed: o.seed}
	var plain, traced *served
	if o.trace {
		spec.window = window / 2
	}
	plain, err = serveOnce(ctx, e, w, runDir, spec, pool, repeats, nil)
	if err != nil {
		return nil, err
	}
	final := plain
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		spec.rec = rec
		traced, err = serveOnce(ctx, e, w, runDir, spec, pool, 1, rec)
		if err != nil {
			return nil, err
		}
		final = traced
	}
	for _, s := range []*served{plain, traced} {
		if s == nil {
			continue
		}
		res.Attempted += s.load.Sent
		res.Failed += s.load.Failed + s.load.Wrong
		res.Problems = append(res.Problems, s.problems...)
		if s.load.FirstProblem != "" {
			res.Problems = append(res.Problems, "predict: "+s.load.FirstProblem)
		}
	}
	res.Samples = len(plain.load.LatMs)

	// End to end, from the untraced window only.
	ld := plain.load
	lat := sortedCopy(ld.LatMs)
	ms.set("predict_p50_ms", quantile(lat, 0.5))
	ms.set("predict_p95_ms", quantile(lat, 0.95))
	ms.set("rows_per_s", ld.rowsPerS(w.Rows))
	ms.set("ok_share", 1-float64(res.Failed)/float64(res.Attempted))
	ms.set("encode_s", median(off.EncodePassS))
	ms.set("decode_ms", median(off.DecodeMs))
	ms.set("compression_ratio", float64(off.DenseBytes)/float64(off.DSZBytes))
	ms.set("decoded_top1_pct", 100*off.DecodedTop1)
	ms.set("setup_s", prepS+median(plain.setupS))

	// Per layer: the client's and the daemons' own counters for the window
	// the spans (if any) were recorded in.
	ld = final.load
	ms.set("loadgen.sent", float64(ld.Sent))
	ms.set("loadgen.ok", float64(ld.OK))
	ms.set("loadgen.failed", float64(ld.Failed))
	ms.set("loadgen.wrong", float64(ld.Wrong))
	ms.set("loadgen.p99_ms", quantile(sortedCopy(ld.LatMs), 0.99))
	if w.OpenRate > 0 {
		ms.set("loadgen.late_p99_ms", quantile(ld.LateMs, 0.99))
	} else {
		// A closed loop has no schedule to fall behind.
		ms.set("loadgen.late_p99_ms", 0)
	}
	statsMetrics(&final.stats, ms)
	perReq := func(totalMS float64) (float64, error) {
		if final.cpuErr != nil {
			return 0, final.cpuErr
		}
		if ld.OK == 0 {
			return 0, fmt.Errorf("no request succeeded")
		}
		return totalMS / float64(ld.OK), nil
	}
	v, err := perReq(final.replicaMS)
	ms.setOr("deepszd.cpu_ms_per_req", v, err)
	v, err = perReq(final.gatewayMS)
	ms.setOr("deepszgw.cpu_ms_per_req", v, err)
	ms.setOr("deepszd.rss_mb", final.replicaMB, final.cpuErr)
	ms.setOr("deepszgw.rss_mb", final.gatewayMB, final.cpuErr)
	if dec, ok := ms.get("serve.cache.decode_s"); ok && final.cpuErr == nil && final.replicaMS > 0 {
		ms.set("serve.cache.decode_cpu_share", 1e3*dec/final.replicaMS)
	} else {
		ms.miss("serve.cache.decode_cpu_share", "needs serve.cache.decode_s and the replicas' /proc CPU time")
	}
	ms.set("core.accuracy_loss_pp", off.MaxLossPP)
	ms.set("core.max_err_over_eb", off.Bound.MaxErrOverEB)
	ms.set("core.zeros_disturbed", float64(off.Bound.DisturbedZeros))
	ms.set("bench.build_s", e.buildS)
	ms.set("bench.fixtures_s", e.fixtureS)
	ms.set("bench.nproc", float64(runtime.NumCPU()))
	ms.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	if !o.trace {
		return res, nil
	}
	traceMetrics(rec.spans, ms)
	if p50 := median(plain.load.LatMs); p50 > 0 {
		ms.set("bench.trace_overhead_share", (median(traced.load.LatMs)-p50)/p50)
	}
	if err := rec.write(filepath.Join(e.out, "trace-"+w.Name+".json"), w.Name, o.seed); err != nil {
		return nil, err
	}
	coreDecodeProbes(off.PaperFCBlob, runDir, ms)
	coreEncodeProbes(e, w.Nets, ms)
	src, err := newProbeSource(off)
	if err != nil {
		for _, d := range perLayer {
			if hasAnyPrefix(d.Name, "codec.", "lossless.", "huffman.") {
				ms.miss(d.Name, err.Error())
			}
		}
	} else {
		codecProbes(src, ms)
	}
	kernelProbes(ms)
	return res, nil
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// serveOnce boots the fleet (setups times, keeping the last), runs one
// measured window against it and reads every tier's counters around it.
func serveOnce(ctx context.Context, e *env, w workload, runDir string, spec loadSpec, pool *inputPool, setups int, rec *recorder) (*served, error) {
	s := &served{}
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if f != nil {
			f.stop()
			f = nil
		}
		t0 := time.Now()
		var err error
		if f, err = bootFleet(ctx, e, w, runDir, rec); err != nil {
			return nil, err
		}
		if err := warm(ctx, f, w, pool); err != nil {
			return nil, err
		}
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
	}
	spec.gwURL = f.gwURL

	before := f.snapshot()
	s.load = runLoad(ctx, spec, pool)
	after := f.snapshot()
	s.stats = statsWindow{before: before, after: after}
	// Counters that cannot be read cost per-layer metrics only, never the run.
	if s.cpuErr = errors.Join(before.procErr, after.procErr); s.cpuErr == nil {
		s.gatewayMS = 1e3 * (after.cpuS[0] - before.cpuS[0])
		s.gatewayMB = after.rssMB[0]
		for i := 1; i < len(after.cpuS); i++ {
			s.replicaMS += 1e3 * (after.cpuS[i] - before.cpuS[i])
			s.replicaMB = math.Max(s.replicaMB, after.rssMB[i])
		}
	}
	if err := f.alive(); err != nil {
		s.problems = append(s.problems, err.Error())
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("bench: workload %s: %w", w.Name, err)
	}
	return s, nil
}

// warm predicts once on every model, on each replica directly and through
// the gateway, so lazy first-use work (cold decode, connection set-up) is
// done before the window — users do not pay it per request. Every answer
// is checked like a measured one.
func warm(ctx context.Context, f *fleet, w workload, pool *inputPool) error {
	for _, base := range append(append([]string{}, f.direct...), f.gwURL) {
		for n := 0; n < w.Names; n++ {
			b := n % poolSize
			if outcome, problem := predictOnce(ctx, f.client, base, fmt.Sprintf("m%d", n), pool.bodies[b], pool.want[b], ""); outcome != "ok" {
				return fmt.Errorf("bench: warm pass on %s: %s: %s", base, outcome, problem)
			}
		}
	}
	return nil
}
