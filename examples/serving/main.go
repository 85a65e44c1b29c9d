// Serving under memory pressure: the example spins up the deepszd serving
// stack in-process, fires concurrent clients at a compressed LeNet-300-100,
// and repeats the run under three decode-cache budgets — unlimited, exactly
// one (largest) layer, and half a layer. The cache counters show the
// behaviour shift from "decode once, hit forever" to LRU churn to pure
// streaming (bypass), while every configuration keeps returning identical
// predictions.
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	clients    = 8
	reqPerConn = 25
	rowsPerReq = 4
)

func main() {
	tr, err := models.Pretrained(models.LeNet300)
	if err != nil {
		log.Fatal(err)
	}
	pruned := tr.Net.Clone()
	prune.Network(pruned, prune.PaperRatios(models.LeNet300), 0.1)
	prune.Retrain(pruned, tr.Train, 1, 0.03, tensor.NewRNG(7))
	res, err := core.Encode(pruned, tr.Test, core.Config{
		ExpectedAccuracyLoss: 0.02,
		DistortionCriterion:  0.005,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := res.Model
	fmt.Printf("model %s: %d B compressed, %d B dense, largest layer %d B\n\n",
		m.NetName, m.TotalBytes(), m.TotalDenseBytes(), m.MaxDenseBytes())

	budgets := []struct {
		label  string
		budget int64
	}{
		{"unlimited", 0},
		{"one layer", m.MaxDenseBytes()},
		{"half layer", m.MaxDenseBytes() / 2},
	}
	var first []int
	for _, b := range budgets {
		argmax, err := runBudget(b.label, b.budget, m, pruned)
		if err != nil {
			log.Fatal(err)
		}
		if first == nil {
			first = argmax
		} else {
			for i := range first {
				if argmax[i] != first[i] {
					log.Fatalf("budget %q changed prediction %d: %d vs %d",
						b.label, i, argmax[i], first[i])
				}
			}
		}
	}
	fmt.Println("all budgets returned identical predictions")
}

// runBudget serves the model over real HTTP under one cache budget, fires
// concurrent clients, prints the stats, and returns the argmax of a fixed
// probe batch for cross-budget comparison.
func runBudget(label string, budget int64, m *core.Model, skeleton *nn.Network) ([]int, error) {
	reg := serve.NewRegistry(budget, serve.BatchOptions{})
	defer reg.Close()
	shape, err := models.InputShape(m.NetName)
	if err != nil {
		return nil, err
	}
	eng, err := reg.Add(m.NetName, m, skeleton, shape)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: serve.NewServer(reg)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Concurrent clients, each sending its own deterministic inputs.
	t0 := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := tensor.NewRNG(uint64(1000 + c))
			for r := 0; r < reqPerConn; r++ {
				rows := make([][]float32, rowsPerReq)
				for i := range rows {
					rows[i] = make([]float32, eng.InputLen())
					rng.FillNormal(rows[i], 0, 1)
				}
				body, _ := json.Marshal(map[string]any{"inputs": rows})
				resp, err := http.Post(base+"/v1/models/"+m.NetName+"/predict",
					"application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("predict status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	// Fixed probe batch for the cross-budget consistency check.
	probe := make([][]float32, 8)
	rng := tensor.NewRNG(99)
	for i := range probe {
		probe[i] = make([]float32, eng.InputLen())
		rng.FillNormal(probe[i], 0, 1)
	}
	out, err := eng.Predict(probe)
	if err != nil {
		return nil, err
	}
	argmax := make([]int, len(out))
	for i, row := range out {
		for j, v := range row {
			if v > row[argmax[i]] {
				argmax[i] = j
			}
		}
	}

	rows := clients * reqPerConn * rowsPerReq
	s := reg.Cache().Stats()
	es := eng.Stats()
	fmt.Printf("budget %-9s (%8d B): %5d rows in %7.1fms (%6.0f rows/s), avg batch %.1f\n",
		label, s.Budget, rows, float64(elapsed.Microseconds())/1000, float64(rows)/elapsed.Seconds(), es.AvgBatch)
	fmt.Printf("  cache: %d hits, %d misses, %d coalesced, %d evictions, %d bypasses, %.1f%% hit rate, %d B resident\n",
		s.Hits, s.Misses, s.Coalesced, s.Evictions, s.Bypasses, 100*s.HitRate(), s.BytesInUse)
	return argmax, nil
}
