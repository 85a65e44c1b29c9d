package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestParseModelSpec(t *testing.T) {
	cases := []struct {
		in                  string
		name, path, weights string
		wantErr             bool
	}{
		{in: "model.dsz", path: "model.dsz"},
		{in: "alex=model.dsz", name: "alex", path: "model.dsz"},
		{in: "alex=model.dsz:w.bin", name: "alex", path: "model.dsz", weights: "w.bin"},
		{in: "model.dsz:w.bin", path: "model.dsz", weights: "w.bin"},
		{in: "alex=", wantErr: true},
	}
	for _, c := range cases {
		s, err := parseModelSpec(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("parseModelSpec(%q) err=%v, wantErr=%v", c.in, err, c.wantErr)
		}
		if err == nil && (s.name != c.name || s.path != c.path || s.weights != c.weights) {
			t.Fatalf("parseModelSpec(%q) = %+v", c.in, s)
		}
	}
}

// TestServeUntilDoneDrainsInFlight locks the shutdown contract both
// daemons get from cliutil.ServeUntilDone: a predict accepted before shutdown completes during the
// drain, while new connections are refused the moment it begins.
func TestServeUntilDoneDrainsInFlight(t *testing.T) {
	rng := tensor.NewRNG(5)
	netw := nn.NewNetwork("test-mlp",
		nn.NewFlatten("flat"),
		nn.NewDense("ip1", 64, 32, rng),
		nn.NewReLU("relu1"),
		nn.NewDense("ip2", 32, 10, rng),
	)
	prune.Network(netw, map[string]float64{"ip1": 0.2, "ip2": 0.4}, 0.1)
	plan := &core.Plan{}
	for _, fc := range netw.DenseLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3})
	}
	m, err := core.Generate(netw, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(0, serve.BatchOptions{})
	defer reg.Close()
	if _, err := reg.Add("mlp", m, netw, []int{1, 8, 8}); err != nil {
		t.Fatal(err)
	}
	// The gate: claim the decode flight of the model's first layer in the
	// cold cache. The predict's forward pass joins that flight and sleeps
	// on it until release aborts it (the pass then decodes the layer
	// itself) — so the predict is provably mid-forward, inside the daemon,
	// for as long as the test wants.
	_, release := reg.Cache().BeginPrefetch("mlp/ip1", nil)
	if release == nil {
		t.Fatal("decode cache not cold")
	}
	held := func() bool { return reg.Cache().Stats().Coalesced == 1 }

	srv := cliutil.NewHTTPServer(serve.NewServer(reg))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cliutil.ServeUntilDone(ctx, srv, ln, 30*time.Second) }()

	// Put one predict in flight; it stops at the gate.
	row := make([]float32, 64)
	tensor.NewRNG(6).FillNormal(row, 0, 1)
	body, _ := json.Marshal(struct {
		Inputs [][]float32 `json:"inputs"`
	}{[][]float32{row}})
	type result struct {
		code    int
		outputs int
		err     error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/models/mlp/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var pr struct {
			Outputs [][]float32 `json:"outputs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&pr)
		inFlight <- result{code: resp.StatusCode, outputs: len(pr.Outputs), err: err}
	}()
	await(t, "the predict to reach the gate", held)

	// Begin shutdown under it. New connections are refused once the
	// listener closes; the poll covers the handoff between cancel() and
	// Shutdown's listener close.
	cancel()
	await(t, "new connections to be refused", func() bool {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			conn.Close()
		}
		return err != nil
	})
	select {
	case r := <-inFlight:
		t.Fatalf("predict answered (%+v) while its forward pass was held: it was not in flight during shutdown", r)
	case err := <-done:
		t.Fatalf("ServeUntilDone returned (%v) with a predict still in flight", err)
	default:
	}
	release()

	// The in-flight predict must have completed normally.
	r := <-inFlight
	if r.err != nil {
		t.Fatalf("in-flight predict killed by shutdown: %v", r.err)
	}
	if r.code != http.StatusOK || r.outputs != 1 {
		t.Fatalf("in-flight predict: status %d, %d outputs; want 200 with 1 output", r.code, r.outputs)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveUntilDone: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilDone never returned after drain")
	}
}

// await spins (yielding, not sleeping) until cond holds; the deadline only
// turns a hang into a failure.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}
