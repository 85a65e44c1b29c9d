package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// This file emits the gateway scaling trajectory (BENCH_gateway.json):
// aggregate predict throughput of an in-process gateway + cluster at 1,
// 2, and 4 replicas, driven by the same multi-model closed-loop load.
//
// What makes 1 → 4 scale is deliberately NOT parallel matmuls (CI
// runners and dev boxes may have one core): every replica's decode
// cache is budgeted at ~3 of the workload's eight models, so a single
// replica thrashes — most requests pay the full huffman+sz decode —
// while rendezvous affinity confines each model to ≤2 replicas and the
// fleet's aggregate cache grows to hold the whole working set. The
// throughput curve therefore measures the routing tier's actual job:
// turning N small caches into one big one without sharing memory.

// Gateway bench workload shape. Eight models × three fc layers at the
// paper's ~10% density; per-replica budget is set from the measured
// resident cost of one model (see BenchGateway). Eight models (not
// fewer) so the rendezvous split over 2 replicas stays near-balanced
// regardless of the random backend ports feeding the hash.
const (
	gwModels            = 8
	gwLayersPerModel    = 3
	gwInputLen          = 512
	gwClients           = 2
	gwRequestsPerClient = 60
	gwRowsPerRequest    = 4
	gwBudgetModels      = 3 // replica cache holds ~this many models
)

// GatewayPoint is one cluster size's measurement.
type GatewayPoint struct {
	Replicas   int     `json:"replicas"`
	RowsPerSec float64 `json:"rows_per_sec"`
	// HitRate aggregates the replicas' decode-cache hit rates — the
	// mechanism behind the throughput column.
	HitRate   float64 `json:"aggregate_cache_hit_rate"`
	Shed      uint64  `json:"shed"`
	Failovers uint64  `json:"failovers"`
	// SpeedupVs1 is RowsPerSec over the 1-replica point's.
	SpeedupVs1 float64 `json:"speedup_vs_1,omitempty"`
}

// GatewayReport is the BENCH_gateway.json schema.
type GatewayReport struct {
	GeneratedUnix         int64          `json:"generated_unix"`
	CPU                   int            `json:"gomaxprocs"`
	Models                int            `json:"models"`
	LayersPerModel        int            `json:"layers_per_model"`
	PerModelResidentBytes int64          `json:"per_model_resident_bytes"`
	ReplicaBudgetBytes    int64          `json:"replica_budget_bytes"`
	Clients               int            `json:"clients"`
	RequestsPerClient     int            `json:"requests_per_client"`
	RowsPerRequest        int            `json:"rows_per_request"`
	Points                []GatewayPoint `json:"points"`
	Scaling1To4           float64        `json:"scaling_1_to_4"`
}

var (
	gwOnce sync.Once
	gwNets []*nn.Network
	gwMods []*core.Model
	gwErr  error

	gwResOnce  sync.Once
	gwResident int64
	gwResErr   error
)

// gatewayWorkload builds (once) the gwModels compressed models the
// cluster serves: distinct weights per model, balanced fc layers, ~10%
// density.
func gatewayWorkload() ([]*nn.Network, []*core.Model, error) {
	gwOnce.Do(func() {
		for i := 0; i < gwModels; i++ {
			rng := tensor.NewRNG(uint64(900 + i))
			layers := []nn.Layer{nn.NewFlatten("flat")}
			ratios := map[string]float64{}
			for l := 0; l < gwLayersPerModel; l++ {
				name := fmt.Sprintf("fc%d", l)
				layers = append(layers, nn.NewDense(name, gwInputLen, gwInputLen, rng), nn.NewReLU(name+"-relu"))
				ratios[name] = 0.1
			}
			net := nn.NewNetwork(fmt.Sprintf("gw-bench-%d", i), layers...)
			prune.Network(net, ratios, 0.1)
			plan := &core.Plan{}
			for _, fc := range net.DenseLayers() {
				plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3})
			}
			m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01})
			if err != nil {
				gwErr = err
				return
			}
			gwNets = append(gwNets, net)
			gwMods = append(gwMods, m)
		}
	})
	return gwNets, gwMods, gwErr
}

// residentBytesPerModel measures (once — it is deterministic and costs
// a full decode) what one model costs the decode cache once warm (CSR
// residency at the default sparse threshold), so the replica budget
// tracks the workload instead of a magic number.
func residentBytesPerModel() (int64, error) {
	gwResOnce.Do(func() {
		nets, mods, err := gatewayWorkload()
		if err != nil {
			gwResErr = err
			return
		}
		reg := serve.NewRegistry(0, serve.BatchOptions{})
		defer reg.Close()
		e, err := reg.Add("probe", mods[0], nets[0], []int{gwInputLen})
		if err != nil {
			gwResErr = err
			return
		}
		row := make([]float32, gwInputLen)
		tensor.NewRNG(1).FillNormal(row, 0, 1)
		if _, err := e.Predict([][]float32{row}); err != nil {
			gwResErr = err
			return
		}
		s := reg.Cache().Stats()
		gwResident = s.SparseBytes + s.DenseBytes
	})
	return gwResident, gwResErr
}

// replicaBudget is the one place the per-replica cache budget is
// derived from the measured per-model cost: gwBudgetModels models plus
// slack so exactly that many fit without borderline eviction.
func replicaBudget(perModel int64) int64 {
	return gwBudgetModels*perModel + perModel/8
}

// BenchGatewayPoint boots an in-process cluster of n serve.Server
// replicas behind a gateway and drives the closed-loop multi-model load
// through real HTTP, returning the measured point.
func BenchGatewayPoint(n int) (GatewayPoint, error) {
	nets, mods, err := gatewayWorkload()
	if err != nil {
		return GatewayPoint{}, err
	}
	perModel, err := residentBytesPerModel()
	if err != nil {
		return GatewayPoint{}, err
	}
	budget := replicaBudget(perModel)

	regs := make([]*serve.Registry, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		reg := serve.NewRegistry(budget, serve.BatchOptions{})
		for j := range mods {
			if _, err := reg.Add(fmt.Sprintf("m%d", j), mods[j], nets[j], []int{gwInputLen}); err != nil {
				reg.Close()
				return GatewayPoint{}, err
			}
		}
		ts := httptest.NewServer(serve.NewServer(reg))
		defer ts.Close()
		defer reg.Close()
		regs[i], urls[i] = reg, ts.URL
	}
	g, err := gateway.New(urls, gateway.Options{
		ProbeInterval: 200 * time.Millisecond,
		HedgeAfter:    -1, // hedges would duplicate decodes and blur the cache story
		MaxPending:    1024,
	})
	if err != nil {
		return GatewayPoint{}, err
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	rng := tensor.NewRNG(7)
	rows := make([][]float32, gwRowsPerRequest)
	for i := range rows {
		rows[i] = make([]float32, gwInputLen)
		rng.FillNormal(rows[i], 0, 1)
	}
	body, err := json.Marshal(struct {
		Inputs [][]float32 `json:"inputs"`
	}{rows})
	if err != nil {
		return GatewayPoint{}, err
	}
	post := func(model int) error {
		resp, err := http.Post(fmt.Sprintf("%s/v1/models/m%d/predict", gw.URL, model), "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict m%d: status %d", model, resp.StatusCode)
		}
		return nil
	}

	// Warm: one pass over every model settles the affinity placement.
	for m := 0; m < gwModels; m++ {
		if err := post(m); err != nil {
			return GatewayPoint{}, err
		}
	}
	hits0, misses0 := cacheTotals(regs)

	errCh := make(chan error, gwClients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < gwClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Random (not round-robin) model choice: a strict cycle is
			// LRU's pathological worst case and would overstate thrash.
			r := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < gwRequestsPerClient; i++ {
				if err := post(r.Intn(gwModels)); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	select {
	case err := <-errCh:
		return GatewayPoint{}, err
	default:
	}

	hits1, misses1 := cacheTotals(regs)
	p := GatewayPoint{
		Replicas:   n,
		RowsPerSec: float64(gwClients*gwRequestsPerClient*gwRowsPerRequest) / elapsed,
	}
	if dh, dm := hits1-hits0, misses1-misses0; dh+dm > 0 {
		p.HitRate = float64(dh) / float64(dh+dm)
	}
	s := g.Stats()
	p.Shed, p.Failovers = s.Shed, s.Failovers
	return p, nil
}

// cacheTotals sums hits and misses across the replicas' decode caches.
func cacheTotals(regs []*serve.Registry) (hits, misses uint64) {
	for _, reg := range regs {
		s := reg.Cache().Stats()
		hits += s.Hits
		misses += s.Misses + s.Bypasses // a bypass is a miss that could not even be kept
	}
	return hits, misses
}

// BenchGateway measures the 1/2/4-replica scaling curve.
func BenchGateway() (*GatewayReport, error) {
	perModel, err := residentBytesPerModel()
	if err != nil {
		return nil, err
	}
	r := &GatewayReport{
		GeneratedUnix:         time.Now().Unix(),
		CPU:                   runtime.GOMAXPROCS(0),
		Models:                gwModels,
		LayersPerModel:        gwLayersPerModel,
		PerModelResidentBytes: perModel,
		ReplicaBudgetBytes:    replicaBudget(perModel),
		Clients:               gwClients,
		RequestsPerClient:     gwRequestsPerClient,
		RowsPerRequest:        gwRowsPerRequest,
	}
	for _, n := range []int{1, 2, 4} {
		p, err := BenchGatewayPoint(n)
		if err != nil {
			return nil, err
		}
		if len(r.Points) > 0 {
			p.SpeedupVs1 = p.RowsPerSec / r.Points[0].RowsPerSec
		}
		r.Points = append(r.Points, p)
	}
	r.Scaling1To4 = r.Points[len(r.Points)-1].RowsPerSec / r.Points[0].RowsPerSec
	return r, nil
}

// WriteBenchGateway runs BenchGateway and writes the JSON report to w.
func WriteBenchGateway(w io.Writer) error {
	r, err := BenchGateway()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
