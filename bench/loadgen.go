package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// poolSize is the number of distinct input batches per served net.
const poolSize = 64

// inputPool is the seeded request material for one net: poolSize request
// bodies, marshalled once in set-up so the generator spends the measured
// window sending, not encoding, and the reference answer for each.
type inputPool struct {
	bodies [][]byte    // {"inputs":[[...], ...]}
	want   [][]float32 // reference logits per body, rows×classes flat
}

// newInputPool draws rows-row batches from the net's test images by seed
// and computes each batch's reference answer with ref.
func newInputPool(net string, ref *nn.Network, rows int, seed uint64) (*inputPool, error) {
	_, test, err := models.DataFor(net, 10, 512)
	if err != nil {
		return nil, err
	}
	shape, err := models.InputShape(net)
	if err != nil {
		return nil, err
	}
	inputLen := 1
	for _, d := range shape {
		inputLen *= d
	}
	rng := rand.New(rand.NewPCG(seed, 0x696e70757473)) // "inputs"
	p := &inputPool{}
	for b := 0; b < poolSize; b++ {
		flat := make([]float32, 0, rows*inputLen)
		batch := make([][]float32, rows)
		for r := range batch {
			img := test.Image(rng.IntN(test.Len())).Data
			batch[r] = img
			flat = append(flat, img...)
		}
		body, err := json.Marshal(struct {
			Inputs [][]float32 `json:"inputs"`
		}{batch})
		if err != nil {
			return nil, err
		}
		x := tensor.FromSlice(flat, append([]int{rows}, shape...)...)
		out := ref.Forward(x, false)
		p.bodies = append(p.bodies, body)
		p.want = append(p.want, append([]float32(nil), out.Data...))
	}
	return p, nil
}

// loadSpec is one measured window.
type loadSpec struct {
	gwURL    string
	names    int           // models m0..mN-1
	rows     int           // rows per request
	openRate float64       // > 0: open loop at this rate; 0: closed loop
	window   time.Duration // how long to offer load
	conns    int           // client connections = generator workers
	seed     uint64
	rec      *recorder // non-nil in a traced run
}

// loadResult is what the client side saw.
type loadResult struct {
	Sent, OK, Failed, Wrong int
	LatMs                   []float64 // correct answers only, in completion order; open loop: from due time
	LateMs                  []float64 // open loop: how long after its due time each request was sent, sorted
	Elapsed                 time.Duration
	FirstProblem            string
}

func (r *loadResult) rowsPerS(rows int) float64 {
	return float64(r.OK*rows) / r.Elapsed.Seconds()
}

// mix is SplitMix64's finaliser: request i's model and input batch are a
// pure function of (seed, i), so a closed loop of unknown length replays
// the same sequence for the same seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// schedule returns n due times inside window with exponential gaps (a
// Poisson process), scaled so the n arrivals span the window exactly: the
// seed moves the gaps, not how much work a run holds.
func schedule(n int, window time.Duration, seed uint64) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x6172726976616c73)) // "arrivals"
	cum := make([]float64, n+1)
	total := 0.0
	for i := range cum {
		total += rng.ExpFloat64()
		cum[i] = total
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(window) * cum[i] / total)
	}
	return due
}

// runLoad offers the workload's traffic to the gateway for one window and
// checks every answer. Workers never outnumber the cores: the generator
// shares the box with the daemons it measures.
//
// Open loop: request i is due at a scheduled instant regardless of how the
// system is doing; a worker that is free sleeps until then, and if both
// connections are busy the request waits — latency is timed from the due
// instant, so that wait counts, and how late the send began is reported.
// Closed loop: each worker sends its next request when the previous answer
// arrives.
func runLoad(ctx context.Context, spec loadSpec, pool *inputPool) *loadResult {
	tr := &http.Transport{MaxIdleConnsPerHost: spec.conns, MaxConnsPerHost: spec.conns, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	defer tr.CloseIdleConnections()

	var due []time.Duration
	if spec.openRate > 0 {
		due = schedule(int(spec.openRate*spec.window.Seconds()+0.5), spec.window, spec.seed)
	}
	type sample struct {
		latMs, lateMs float64
		outcome       string // "ok", "failed", "wrong"
		problem       string
	}
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	var lastDone time.Time
	start := time.Now()
	deadline := start.Add(spec.window)

	var wg sync.WaitGroup
	for c := 0; c < spec.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				from := time.Now()
				if due != nil {
					if i >= len(due) {
						return
					}
					from = start.Add(due[i])
					if d := time.Until(from); d > 0 {
						time.Sleep(d)
					}
				} else if !from.Before(deadline) {
					return
				}
				h := mix(spec.seed ^ mix(uint64(i)))
				model := fmt.Sprintf("m%d", h%uint64(spec.names))
				b := int((h >> 32) % poolSize)

				sent := time.Now()
				s := sample{lateMs: float64(sent.Sub(from).Nanoseconds()) / 1e6}
				traceID := ""
				if spec.rec != nil {
					traceID = fmt.Sprintf("bench-%d-%d", spec.seed, i)
				}
				s.outcome, s.problem = predictOnce(ctx, client, spec.gwURL, model, pool.bodies[b], pool.want[b], traceID)
				done := time.Now()
				s.latMs = float64(done.Sub(from).Nanoseconds()) / 1e6
				if spec.rec != nil {
					spec.rec.add(span{
						Trace: traceID, ID: clientSpanID(traceID), Name: "client.request",
						StartNs: spec.rec.since(sent), DurNs: done.Sub(sent).Nanoseconds(),
						Attrs: map[string]string{"model": model, "outcome": s.outcome},
					})
				}
				mu.Lock()
				samples = append(samples, s)
				if done.After(lastDone) {
					lastDone = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	r := &loadResult{Sent: len(samples), Elapsed: lastDone.Sub(start)}
	for _, s := range samples {
		switch s.outcome {
		case "ok":
			r.OK++
			r.LatMs = append(r.LatMs, s.latMs)
		case "wrong":
			r.Wrong++
		default:
			r.Failed++
		}
		if s.problem != "" && r.FirstProblem == "" {
			r.FirstProblem = s.problem
		}
		if due != nil {
			r.LateMs = append(r.LateMs, s.lateMs)
		}
	}
	sort.Float64s(r.LateMs)
	return r
}

// predictOnce sends one predict and classifies the answer: "ok" is a 200
// whose logits equal the reference bit for bit, "wrong" a 200 that differs,
// "failed" anything else (non-200, timeout, unparsable body).
func predictOnce(ctx context.Context, client *http.Client, base, model string, body []byte, want []float32, traceID string) (outcome, problem string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/models/"+model+"/predict", bytes.NewReader(body))
	if err != nil {
		return "failed", err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(traceHeader, traceID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return "failed", err.Error()
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "failed", err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return "failed", fmt.Sprintf("%s: status %d: %.200s", model, resp.StatusCode, data)
	}
	var out struct {
		Outputs [][]float32 `json:"outputs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return "failed", fmt.Sprintf("%s: bad response body: %v", model, err)
	}
	if !sameBits(out.Outputs, want) {
		return "wrong", fmt.Sprintf("%s: answer differs from the in-process reference", model)
	}
	return "ok", ""
}

// clientConns is the generator's connection count: one per core, at most
// what the box has, so the load is sized for nproc from a single process.
func clientConns() int { return min(2, runtime.NumCPU()) }
