package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/tensor"
)

// servedModel builds a small pruned MLP, compresses it, and returns both:
// the fixture every engine/server test serves from.
func servedModel(t testing.TB, seed uint64) (*nn.Network, *core.Model) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork("test-mlp",
		nn.NewFlatten("flat"),
		nn.NewDense("ip1", 64, 32, rng),
		nn.NewReLU("relu1"),
		nn.NewDense("ip2", 32, 10, rng),
	)
	prune.Network(net, map[string]float64{"ip1": 0.2, "ip2": 0.4}, 0.1)
	plan := &core.Plan{}
	for _, fc := range net.DenseLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3})
	}
	m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	return net, m
}

// decodedReference applies the compressed model to a clone of net and
// returns its plain forward pass — the ground truth serving must match.
func decodedReference(t testing.TB, net *nn.Network, m *core.Model, rows [][]float32) [][]float32 {
	t.Helper()
	ref := net.Clone()
	if _, err := m.Apply(ref); err != nil {
		t.Fatal(err)
	}
	flat := make([]float32, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		flat = append(flat, r...)
	}
	y := ref.Forward(tensor.FromSlice(flat, len(rows), 1, 8, 8), false)
	classes := y.Len() / len(rows)
	out := make([][]float32, len(rows))
	for i := range out {
		out[i] = y.Data[i*classes : (i+1)*classes]
	}
	return out
}

func testRows(n int, seed uint64) [][]float32 {
	rng := tensor.NewRNG(seed)
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, 64)
		rng.FillNormal(rows[i], 0, 1)
	}
	return rows
}

func TestEnginePredictMatchesDecodedNetwork(t *testing.T) {
	net, m := servedModel(t, 1)
	for _, budget := range []int64{0, m.MaxDenseBytes(), 64} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			reg := NewRegistry(budget, BatchOptions{})
			defer reg.Close()
			e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
			if err != nil {
				t.Fatal(err)
			}
			rows := testRows(5, 2)
			got, err := e.Predict(rows)
			if err != nil {
				t.Fatal(err)
			}
			want := decodedReference(t, net, m, rows)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("row %d logit %d: %v, want %v", i, j, got[i][j], want[i][j])
					}
				}
			}
			// A second pass must agree too (exercises the hit / bypass path).
			again, err := e.Predict(rows)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j := range want[i] {
					if again[i][j] != want[i][j] {
						t.Fatalf("second pass diverged at row %d logit %d", i, j)
					}
				}
			}
		})
	}
}

func TestEngineTinyBudgetBypasses(t *testing.T) {
	net, m := servedModel(t, 3)
	reg := NewRegistry(64, BatchOptions{}) // smaller than any layer
	defer reg.Close()
	e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(testRows(1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(testRows(1, 5)); err != nil {
		t.Fatal(err)
	}
	s := reg.Cache().Stats()
	if s.Entries != 0 || s.Bypasses != 4 {
		t.Fatalf("tiny budget should bypass every layer decode: %+v", s)
	}
}

func TestEngineRejectsBadInput(t *testing.T) {
	net, m := servedModel(t, 6)
	reg := NewRegistry(0, BatchOptions{})
	defer reg.Close()
	e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Predict(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := e.Predict([][]float32{make([]float32, 63)}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := reg.Add("mlp", m, net, []int{1, 8, 8}); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	// Bad model/skeleton pairings must fail at registration, not panic in
	// a request's forward pass.
	rng := tensor.NewRNG(1)
	wrongShape := nn.NewNetwork("test-mlp",
		nn.NewFlatten("flat"),
		nn.NewDense("ip1", 64, 16, rng), // model stores ip1 as 32x64
		nn.NewReLU("relu1"),
		nn.NewDense("ip2", 32, 10, rng),
	)
	if _, err := reg.Add("wrong-shape", m, wrongShape, []int{1, 8, 8}); err == nil {
		t.Fatal("shape-mismatched skeleton accepted")
	}
	uncovered := nn.NewNetwork("test-mlp",
		nn.NewFlatten("flat"),
		nn.NewDense("ip1", 64, 32, rng),
		nn.NewReLU("relu1"),
		nn.NewDense("ip2", 32, 10, rng),
		nn.NewDense("ip3", 10, 4, rng), // not in the model
	)
	if _, err := reg.Add("uncovered", m, uncovered, []int{1, 8, 8}); err == nil {
		t.Fatal("skeleton with an uncovered fc layer accepted")
	}

	// A forged bias count passes the container checks (Unmarshal never ties
	// bias length to the shape) but must fail at registration, not panic in
	// the batcher's goroutine mid-request.
	badBias := &core.Model{NetName: m.NetName, Layers: append([]core.LayerBlob(nil), m.Layers...)}
	badBias.Layers[0].Bias = badBias.Layers[0].Bias[:1]
	if _, err := reg.Add("bad-bias", badBias, net, []int{1, 8, 8}); err == nil {
		t.Fatal("model with truncated bias accepted")
	}
}

func TestBatcherRecoversForwardPanic(t *testing.T) {
	net, m := servedModel(t, 12)
	reg := NewRegistry(0, BatchOptions{})
	defer reg.Close()
	// Lie about the input shape: rows of 128 values pass validation, but
	// flatten produces [N,128] and ip1 wants 64 — the forward panics.
	e, err := reg.Add("mlp", m, net, []int{2, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]float32{make([]float32, 128)}
	if _, err := e.PredictBatched(bad); err == nil {
		t.Fatal("expected error from panicking forward pass")
	}
	// The batcher survived: a second call still gets an error response
	// instead of deadlocking on a dead goroutine.
	if _, err := e.PredictBatched(bad); err == nil {
		t.Fatal("batcher died after recovered panic")
	}
}

// TestMicroBatchingCoalesces: calls that arrive while a forward runs share
// the next one. One call is held mid-forward, seven queue behind it, and
// the eight are served by exactly two passes.
func TestMicroBatchingCoalesces(t *testing.T) {
	net, m := servedModel(t, 7)
	reg := NewRegistry(0, BatchOptions{MaxBatch: 64})
	defer reg.Close()
	e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(8, 8)
	want := decodedReference(t, net, m, rows)

	release := holdForward(t, e)
	var wg sync.WaitGroup
	calls := []*call{startCall(&wg, e, rows[:1])}
	awaitHeld(t, e)
	for i := 1; i < len(rows); i++ {
		calls = append(calls, startCall(&wg, e, rows[i:i+1]))
	}
	await(t, "seven calls to queue behind the held forward", func() bool { return queued(e) == 7 })
	release()
	wg.Wait()
	for i, c := range calls {
		if c.err != nil {
			t.Fatalf("call %d: %v", i, c.err)
		}
		for j := range want[i] {
			if c.out[0][j] != want[i][j] {
				t.Fatalf("batched row %d logit %d: %v, want %v", i, j, c.out[0][j], want[i][j])
			}
		}
	}
	s := e.Stats()
	if s.Requests != 8 || s.Rows != 8 {
		t.Fatalf("stats %+v, want 8 requests / 8 rows", s)
	}
	if s.Batches != 2 {
		t.Fatalf("%d batches for 1 held + 7 queued requests, want exactly 2", s.Batches)
	}

	e.Close()
	if _, err := e.PredictBatched([][]float32{rows[0]}); err != ErrClosed {
		t.Fatalf("predict after close: %v, want ErrClosed", err)
	}
}

// servedConvModel builds a conv+fc network with every weighted layer
// pruned and compresses it whole (LayersAll): the whole-network serving
// fixture. Input shape: [1, 8, 8].
func servedConvModel(t testing.TB, seed uint64) (*nn.Network, *core.Model) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork("test-conv",
		nn.NewConv2D("conv1", 1, 6, 3, 1, 1, rng), // 8×8
		nn.NewMaxPool2D("pool1", 2, 2),            // →4
		nn.NewReLU("reluc1"),
		nn.NewConv2D("conv2", 6, 8, 3, 1, 1, rng), // 4×4
		nn.NewReLU("reluc2"),
		nn.NewFlatten("flat"),
		nn.NewDense("ip1", 128, 32, rng),
		nn.NewReLU("relu1"),
		nn.NewDense("ip2", 32, 10, rng),
	)
	prune.NetworkAll(net, map[string]float64{"ip1": 0.1, "ip2": 0.3}, 0.1, 0.3)
	plan := &core.Plan{}
	for _, cl := range net.CompressibleLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: cl.Name(), EB: 1e-3})
	}
	m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01, Layers: core.LayersAll})
	if err != nil {
		t.Fatal(err)
	}
	return net, m
}

// TestEngineServesConvLayersThroughCache: a whole-network model must serve
// with the conv layers fetched through the decode cache, byte-for-byte
// matching a fully decoded network, at every budget regime (unlimited,
// one-layer, thrash) and under concurrency.
func TestEngineServesConvLayersThroughCache(t *testing.T) {
	net, m := servedConvModel(t, 21)
	if len(m.Layers) != 4 {
		t.Fatalf("model has %d layers, want 4 (2 conv + 2 fc)", len(m.Layers))
	}
	for i := range m.Layers {
		l := &m.Layers[i]
		if int64(l.CompressedBytes()) >= l.DenseBytes() {
			t.Fatalf("layer %s (%s) not compressed: %d stored vs %d dense",
				l.Name, l.Kind, l.CompressedBytes(), l.DenseBytes())
		}
	}
	rows := testRows(4, 22)
	ref := net.Clone()
	if _, err := m.Apply(ref); err != nil {
		t.Fatal(err)
	}
	flat := make([]float32, 0, len(rows)*64)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	y := ref.Forward(tensor.FromSlice(flat, len(rows), 1, 8, 8), false)
	classes := y.Len() / len(rows)

	for _, budget := range []int64{0, m.MaxDenseBytes(), 64} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			reg := NewRegistry(budget, BatchOptions{})
			defer reg.Close()
			e, err := reg.Add("conv", m, net, []int{1, 8, 8})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := e.Predict(rows)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						for j := range got[i] {
							if got[i][j] != y.Data[i*classes+j] {
								t.Errorf("row %d logit %d: served %v, decoded %v", i, j, got[i][j], y.Data[i*classes+j])
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			// All four layers — conv included — must have moved through the
			// cache, not fallen back to (stripped) layer parameters.
			s := reg.Cache().Stats()
			if s.Misses+s.Bypasses < 4 {
				t.Fatalf("only %d decodes for 4 layers: conv layers not cache-fed (%+v)", s.Misses+s.Bypasses, s)
			}
		})
	}
}

// TestEngineReportsKindAndShape locks the /v1/stats satellite: layer
// metadata must carry each layer's kind and weight shape.
func TestEngineReportsKindAndShape(t *testing.T) {
	net, m := servedConvModel(t, 23)
	reg := NewRegistry(0, BatchOptions{})
	defer reg.Close()
	e, err := reg.Add("conv", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	metas := e.Stats().Layers
	if len(metas) != 4 {
		t.Fatalf("stats report %d layers, want 4", len(metas))
	}
	want := map[string]struct {
		kind string
		rank int
	}{
		"conv1": {"conv", 4}, "conv2": {"conv", 4},
		"ip1": {"fc", 2}, "ip2": {"fc", 2},
	}
	for _, lm := range metas {
		w, ok := want[lm.Name]
		if !ok {
			t.Fatalf("unexpected layer %q", lm.Name)
		}
		if lm.Kind != w.kind || len(lm.Shape) != w.rank || lm.Codec == "" {
			t.Fatalf("layer %s reported kind=%s shape=%v codec=%q, want %s rank %d",
				lm.Name, lm.Kind, lm.Shape, lm.Codec, w.kind, w.rank)
		}
	}
}

func serverFixture(t testing.TB, budget int64) (*httptest.Server, *Registry) {
	t.Helper()
	net, m := servedModel(t, 9)
	reg := NewRegistry(budget, BatchOptions{})
	if _, err := reg.Add("mlp", m, net, []int{1, 8, 8}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() { ts.Close(); reg.Close() })
	return ts, reg
}

func getJSON(t testing.TB, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestServerEndpoints(t *testing.T) {
	ts, _ := serverFixture(t, 0)

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}

	var list struct {
		Models []modelInfo `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/v1/models", &list); code != http.StatusOK {
		t.Fatalf("models status %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "mlp" || len(list.Models[0].Layers) != 2 {
		t.Fatalf("models response %+v", list)
	}
	if list.Models[0].InputLen != 64 || list.Models[0].DenseBytes <= 0 {
		t.Fatalf("model info %+v", list.Models[0])
	}
	for _, li := range list.Models[0].Layers {
		if li.Kind != "fc" || len(li.Shape) != 2 {
			t.Fatalf("layer %s reported kind=%q shape=%v, want fc rank 2", li.Name, li.Kind, li.Shape)
		}
	}

	rows := testRows(3, 10)
	body, _ := json.Marshal(predictRequest{Inputs: rows})
	resp, err := http.Post(ts.URL+"/v1/models/mlp/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	if len(pr.Outputs) != 3 || len(pr.Argmax) != 3 {
		t.Fatalf("predict response %d outputs / %d argmax", len(pr.Outputs), len(pr.Argmax))
	}
	for i, row := range pr.Outputs {
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if pr.Argmax[i] != best {
			t.Fatalf("argmax[%d]=%d, want %d", i, pr.Argmax[i], best)
		}
	}

	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Models["mlp"].Rows != 3 {
		t.Fatalf("stats rows %+v", stats.Models["mlp"])
	}
	if stats.Cache.Misses != 2 {
		t.Fatalf("cache misses %d, want 2 (one per layer)", stats.Cache.Misses)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := serverFixture(t, 0)

	if code := getJSON(t, ts.URL+"/v1/models/nope/predict", nil); code != http.StatusMethodNotAllowed {
		// GET on a POST route is routed by method; the JSON API only
		// accepts POST here.
		t.Fatalf("GET predict status %d", code)
	}

	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/models/nope/predict", `{"inputs":[[1]]}`); code != http.StatusNotFound {
		t.Fatalf("unknown model status %d", code)
	}
	if code := post("/v1/models/mlp/predict", `{"inputs":`); code != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", code)
	}
	if code := post("/v1/models/mlp/predict", `{"inputs":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty inputs status %d", code)
	}
	if code := post("/v1/models/mlp/predict", `{"inputs":[[1,2,3]]}`); code != http.StatusBadRequest {
		t.Fatalf("short row status %d", code)
	}
}

// TestEngineAdmissionSheds locks the bounded-admission satellite: an
// engine at MaxPending admitted predicts rejects the overflow with
// ErrOverloaded instead of queueing it, and the queue-depth gauge and
// shed counter report what happened.
func TestEngineAdmissionSheds(t *testing.T) {
	net, m := servedModel(t, 31)
	reg := NewRegistry(0, BatchOptions{MaxPending: 1})
	defer reg.Close()
	e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(1, 32)
	// Hold the first predict mid-forward, so the second provably arrives
	// while it is still pending.
	release := holdForward(t, e)
	first := make(chan error, 1)
	go func() {
		_, err := e.PredictBatched(rows)
		first <- err
	}()
	awaitHeld(t, e)
	if d := e.Stats().QueueDepth; d != 1 {
		t.Fatalf("queue depth %d with one predict running, want 1", d)
	}
	if _, err := e.Predict(rows); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("predict over the admission bound: %v, want ErrOverloaded", err)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("admitted predict failed: %v", err)
	}
	s := e.Stats()
	if s.Shed != 1 || s.MaxPending != 1 {
		t.Fatalf("stats shed=%d max_pending=%d, want 1/1", s.Shed, s.MaxPending)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after all predicts finished, want 0", s.QueueDepth)
	}
	// The bound is a gate, not a latch: the engine serves again.
	if _, err := e.Predict(rows); err != nil {
		t.Fatalf("predict after shed: %v", err)
	}
}

// TestServerShedsWith503RetryAfter drives the admission bound through
// the HTTP layer: overflow predicts get 503 + Retry-After, admitted ones
// still succeed.
func TestServerShedsWith503RetryAfter(t *testing.T) {
	net, m := servedModel(t, 33)
	reg := NewRegistry(0, BatchOptions{MaxPending: 1})
	e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() { ts.Close(); reg.Close() })

	body, _ := json.Marshal(predictRequest{Inputs: testRows(1, 34)})
	// post returns the status and Retry-After of one predict (0 on a
	// transport error).
	post := func() (int, string) {
		resp, err := http.Post(ts.URL+"/v1/models/mlp/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	// Hold the admitted predict mid-forward: every predict sent meanwhile
	// is over the bound and must be shed.
	release := holdForward(t, e)
	admitted := make(chan int, 1)
	go func() {
		code, _ := post()
		admitted <- code
	}()
	awaitHeld(t, e)
	const overflow = 3
	for i := 0; i < overflow; i++ {
		code, retryAfter := post()
		if code != http.StatusServiceUnavailable {
			t.Fatalf("predict %d over the bound: status %d, want 503", i, code)
		}
		if retryAfter == "" {
			t.Fatal("503 without a Retry-After hint")
		}
	}
	release()
	if code := <-admitted; code != http.StatusOK {
		t.Fatalf("admitted predict: status %d, want 200", code)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	ms := stats.Models["mlp"]
	if ms.Shed != overflow || ms.MaxPending != 1 {
		t.Fatalf("engine stats %+v, want shed=%d max_pending=1", ms, overflow)
	}
	if stats.InFlight != 0 || ms.QueueDepth != 0 {
		t.Fatalf("gauges in_flight=%d queue_depth=%d at rest, want 0/0", stats.InFlight, ms.QueueDepth)
	}
}

// TestServerMaxBodyBytes locks the request-size satellite: a predict
// body over the configured cap is refused with 413.
func TestServerMaxBodyBytes(t *testing.T) {
	net, m := servedModel(t, 35)
	reg := NewRegistry(0, BatchOptions{})
	if _, err := reg.Add("mlp", m, net, []int{1, 8, 8}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(reg, ServerOptions{MaxBodyBytes: 2048}))
	t.Cleanup(func() { ts.Close(); reg.Close() })

	big, _ := json.Marshal(predictRequest{Inputs: testRows(4, 36)}) // 4×64 floats ≫ 512 B
	resp, err := http.Post(ts.URL+"/v1/models/mlp/predict", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
	// Under the cap the same model still serves.
	small, _ := json.Marshal(predictRequest{Inputs: testRows(1, 37)})
	if len(small) > 2048 {
		t.Fatalf("fixture row serialises to %d B, does not fit the 2 KiB cap", len(small))
	}
	resp, err = http.Post(ts.URL+"/v1/models/mlp/predict", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-bounds body status %d, want 200", resp.StatusCode)
	}
}

func TestServerConcurrentPredicts(t *testing.T) {
	ts, reg := serverFixture(t, 0)
	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rows := testRows(2, uint64(100+c))
			body, _ := json.Marshal(predictRequest{Inputs: rows})
			resp, err := http.Post(ts.URL+"/v1/models/mlp/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	s := reg.Cache().Stats()
	// Two layers total: everything beyond the first decode of each must be
	// a hit or a coalesced wait, never a duplicate decode.
	if s.Misses != 2 {
		t.Fatalf("misses=%d, want 2 (singleflight under concurrency)", s.Misses)
	}
	e, _ := reg.Get("mlp")
	if e.Stats().Rows != 2*clients {
		t.Fatalf("rows=%d, want %d", e.Stats().Rows, 2*clients)
	}
}

func TestRegistryLoadFile(t *testing.T) {
	_, m := servedModel(t, 11)
	dir := t.TempDir()
	path := dir + "/model.dsz"
	if err := m.WriteModel(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0, BatchOptions{})
	defer reg.Close()
	// test-mlp is not a models.Build name, so LoadFile must fail cleanly.
	if _, err := reg.LoadFile("", path, ""); err == nil {
		t.Fatal("expected error for unknown network name")
	}
	if _, err := reg.LoadFile("", dir+"/missing.dsz", ""); err == nil {
		t.Fatal("expected error for missing file")
	}

	// A model whose NetName the registry knows loads end to end: the fc
	// suffix comes entirely from the .dsz (lenet-300-100 has no conv
	// prefix, so no weights file is needed).
	lenet, err := models.Build(models.LeNet300, tensor.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	prune.Network(lenet, map[string]float64{"ip1": 0.05, "ip2": 0.1, "ip3": 0.5}, 0.1)
	plan := &core.Plan{}
	for _, fc := range lenet.DenseLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3})
	}
	lm, err := core.Generate(lenet, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	lpath := dir + "/lenet.dsz"
	if err := lm.WriteModel(lpath); err != nil {
		t.Fatal(err)
	}
	e, err := reg.LoadFile("", lpath, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != models.LeNet300 || e.InputLen() != 784 {
		t.Fatalf("loaded engine %s/%d", e.Name(), e.InputLen())
	}
	row := make([]float32, 784)
	tensor.NewRNG(13).FillNormal(row, 0, 1)
	out, err := e.Predict([][]float32{row})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 10 {
		t.Fatalf("predict shape %d×%d, want 1×10", len(out), len(out[0]))
	}
}

func TestRegistryLoadFileConvNeedsWeights(t *testing.T) {
	lenet5, err := models.Build(models.LeNet5, tensor.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	prune.Network(lenet5, map[string]float64{"ip1": 0.05, "ip2": 0.2}, 0.1)
	plan := &core.Plan{}
	for _, fc := range lenet5.DenseLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-2})
	}
	m, err := core.Generate(lenet5, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/lenet5.dsz"
	if err := m.WriteModel(path); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0, BatchOptions{})
	defer reg.Close()
	// A conv-prefix network must refuse to serve without trained weights.
	if _, err := reg.LoadFile("", path, ""); err == nil {
		t.Fatal("conv network loaded without a weights file")
	}
	wpath := dir + "/lenet5.weights"
	f, err := os.Create(wpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.SaveWeights(f, lenet5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	e, err := reg.LoadFile("", path, wpath)
	if err != nil {
		t.Fatal(err)
	}
	if e.InputLen() != 784 {
		t.Fatalf("input len %d, want 784", e.InputLen())
	}
	row := make([]float32, 784)
	if _, err := e.Predict([][]float32{row}); err != nil {
		t.Fatal(err)
	}
}
