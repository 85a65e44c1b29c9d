package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// report collects every scenario; TestMain writes it to the path in
// DEEPSZ_CHAOS_REPORT (the CI chaos-smoke step uploads it as an
// artifact).
var report = NewReport()

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("DEEPSZ_CHAOS_REPORT"); path != "" {
		if err := report.Write(path); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: writing report: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

// ip1Bypass is a cache budget below lenet-300-100's largest layer: ip1
// bypasses the cache and is decoded on every request, so a corrupted
// blob is hit immediately instead of hiding behind a resident entry.
const ip1Bypass = 32 << 10

// lenetFixture builds a pruned, compressed lenet-300-100 (a models.Build
// name, so serve can reload it from disk), writes it to dir, and returns
// the network, model, and path.
func lenetFixture(t testing.TB, dir string) (*nn.Network, *core.Model, string) {
	t.Helper()
	net, err := models.Build(models.LeNet300, tensor.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	prune.Network(net, map[string]float64{"ip1": 0.05, "ip2": 0.1, "ip3": 0.5}, 0.1)
	plan := &core.Plan{}
	for _, fc := range net.DenseLayers() {
		plan.Choices = append(plan.Choices, core.Choice{Layer: fc.Name(), EB: 1e-3})
	}
	m, err := core.Generate(net, plan, core.Config{ExpectedAccuracyLoss: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/lenet.dsz"
	if err := m.WriteModel(path); err != nil {
		t.Fatal(err)
	}
	return net, m, path
}

// refLogits is the decoded network's forward pass — the ground truth
// every 200 answer must match bit for bit.
func refLogits(t testing.TB, net *nn.Network, m *core.Model, rows [][]float32) [][]float32 {
	t.Helper()
	ref := net.Clone()
	if _, err := m.Apply(ref); err != nil {
		t.Fatal(err)
	}
	flat := make([]float32, 0, len(rows)*784)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	y := ref.Forward(tensor.FromSlice(flat, len(rows), 1, 28, 28), false)
	classes := y.Len() / len(rows)
	out := make([][]float32, len(rows))
	for i := range out {
		out[i] = y.Data[i*classes : (i+1)*classes]
	}
	return out
}

func chaosRows(n int) [][]float32 {
	rng := tensor.NewRNG(7)
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = make([]float32, 784)
		rng.FillNormal(rows[i], 0, 1)
	}
	return rows
}

// predictOutcome posts one predict and classifies the answer against
// want. Every request carries a minted trace ID, so a wrong or failed
// outcome in the chaos report names the exact request to look up in the
// server's /v1/traces/{id} — the returned ID is what Scenario.Count
// records.
func predictOutcome(url, model string, body []byte, want [][]float32) (Outcome, string) {
	traceID := telemetry.MintID()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/models/"+model+"/predict", bytes.NewReader(body))
	if err != nil {
		return Failed, traceID
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return Failed, traceID
	}
	defer resp.Body.Close()
	var pr struct {
		Outputs [][]float32 `json:"outputs"`
	}
	dec := json.NewDecoder(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		if dec.Decode(&pr) != nil || len(pr.Outputs) != len(want) {
			return Wrong, traceID
		}
		for i := range want {
			if len(pr.Outputs[i]) != len(want[i]) {
				return Wrong, traceID
			}
			for j := range want[i] {
				if pr.Outputs[i][j] != want[i][j] {
					return Wrong, traceID
				}
			}
		}
		return OK, traceID
	case http.StatusServiceUnavailable:
		return Unavailable, traceID
	default:
		return Failed, traceID
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// finish stamps the registry counters into the scenario, records it, and
// asserts the one non-negotiable invariant.
func finish(t *testing.T, s *Scenario, reg *serve.Registry, t0 time.Time) {
	t.Helper()
	if reg != nil {
		s.Quarantines, s.Reloads, s.ReloadFails = reg.ReloadStats()
		s.Ejections = reg.Cache().Stats().CorruptEjections
	}
	s.Seconds = time.Since(t0).Seconds()
	report.Add(s)
	if s.Wrong != 0 {
		t.Fatalf("%s: %d WRONG ANSWERS escaped to clients (of %d requests); traces: %v",
			s.Name, s.Wrong, s.Requests, s.WrongTraces)
	}
}

// TestChaosCacheRot flips bits in resident decode-cache buffers between
// waves of concurrent load. Verified decode (fill-time checksums,
// release-time re-verification, periodic scrub) must eject every rotted
// entry: some requests pay a 503, none get wrong logits.
func TestChaosCacheRot(t *testing.T) {
	net, m, path := lenetFixture(t, t.TempDir())
	reg := serve.NewRegistry(0, serve.BatchOptions{})
	defer reg.Close()
	if err := reg.SetVerifyDecoded(true); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadFile("", path, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(reg))
	defer ts.Close()

	rows := chaosRows(2)
	want := refLogits(t, net, m, rows)
	body, _ := json.Marshal(map[string]any{"inputs": rows})
	s := &Scenario{Name: "cache-rot"}
	t0 := time.Now()

	// The scrub is driven synchronously from the inject hook rather than
	// via SetScrubInterval: a background scrub goroutine checksumming a
	// buffer the harness is flipping would be a harness-vs-scrub data
	// race, not a serving bug. Phasing applies to the scrubber too.
	Waves(8, 4, 4,
		func() { s.Count(predictOutcome(ts.URL, models.LeNet300, body, want)) },
		func(wave int) {
			if wave >= 1 && wave <= 6 { // leave the last wave clean
				if FlipResident(reg.Cache()) {
					s.Injections++
				}
				if wave%2 == 0 {
					// Even waves: the scrub sweep catches the rot before any
					// request does. Odd waves leave it for the per-release
					// verify path, so both detectors are exercised.
					reg.Cache().Scrub()
				}
			}
		})

	if s.Injections == 0 {
		t.Fatal("no faults injected; the harness never hit a resident entry")
	}
	if got := reg.Cache().Stats().CorruptEjections; got < uint64(s.Injections) {
		t.Fatalf("%d injections but only %d corrupt ejections — rot survived in the cache", s.Injections, got)
	}
	if q, _, _ := reg.ReloadStats(); q != 0 {
		t.Fatalf("cache-surface rot quarantined the model (%d quarantines); it must self-heal", q)
	}
	finish(t, s, reg, t0)
}

// TestChaosBlobRotRecovers flips a byte in the live engine's in-memory
// compressed blob while the artifact on disk stays clean: decode CRC
// catches it, the model quarantines (503s, never wrong bytes), and the
// automatic reload from disk restores service without a restart.
func TestChaosBlobRotRecovers(t *testing.T) {
	net, m, path := lenetFixture(t, t.TempDir())
	reg := serve.NewRegistry(ip1Bypass, serve.BatchOptions{})
	defer reg.Close()
	e, err := reg.LoadFile("", path, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(reg))
	defer ts.Close()

	rows := chaosRows(2)
	want := refLogits(t, net, m, rows)
	body, _ := json.Marshal(map[string]any{"inputs": rows})
	s := &Scenario{Name: "blob-rot-recovers"}
	t0 := time.Now()

	Waves(4, 4, 4,
		func() { s.Count(predictOutcome(ts.URL, models.LeNet300, body, want)) },
		func(wave int) {
			if wave == 2 {
				FlipBlob(e.Model(), 0)
				s.Injections++
			}
		})
	if s.Unavailable == 0 {
		t.Fatal("blob rot was never detected: no request answered 503")
	}
	// The disk artifact is clean, so the quarantine-triggered reload must
	// bring the model back on its own; a full post-recovery wave is then
	// flawless.
	waitUntil(t, "quarantine to clear", func() bool {
		_, quarantined := reg.Quarantined(models.LeNet300)
		return !quarantined
	})
	before := *s
	Waves(1, 4, 4, func() { s.Count(predictOutcome(ts.URL, models.LeNet300, body, want)) }, nil)
	// The wave's own delta: 16 sent, 16 OK, nothing wrong or failed. (How
	// many of the earlier requests hit the quarantine depends on when the
	// reload landed, so cumulative totals prove nothing here.)
	if sent, ok := s.Requests-before.Requests, s.OKAnswers-before.OKAnswers; sent != 16 || ok != 16 ||
		s.Wrong != before.Wrong || s.Failed != before.Failed {
		t.Fatalf("post-recovery wave not clean: %d of %d OK; before %+v, after %+v", ok, sent, before, *s)
	}
	if _, reloads, _ := reg.ReloadStats(); reloads == 0 {
		t.Fatal("model recovered without a recorded reload")
	}
	finish(t, s, reg, t0)
}

// TestChaosDiskRotRepaired rots both memory and the on-disk artifact:
// the reload fails and the model stays quarantined (503, never wrong),
// until the artifact is repaired — then the scrub-tick retry notices the
// changed file and restores service, still without a restart.
func TestChaosDiskRotRepaired(t *testing.T) {
	dir := t.TempDir()
	net, m, path := lenetFixture(t, dir)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(ip1Bypass, serve.BatchOptions{})
	defer reg.Close()
	reg.SetScrubInterval(20 * time.Millisecond)
	e, err := reg.LoadFile("", path, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(reg))
	defer ts.Close()

	rows := chaosRows(2)
	want := refLogits(t, net, m, rows)
	body, _ := json.Marshal(map[string]any{"inputs": rows})
	s := &Scenario{Name: "disk-rot-repaired"}
	t0 := time.Now()

	Waves(4, 4, 4,
		func() { s.Count(predictOutcome(ts.URL, models.LeNet300, body, want)) },
		func(wave int) {
			if wave == 2 {
				if err := FlipFileByte(path); err != nil {
					t.Error(err)
				}
				FlipBlob(e.Model(), 0)
				s.Injections++
			}
		})
	if s.Unavailable == 0 {
		t.Fatal("corruption was never detected: no request answered 503")
	}
	waitUntil(t, "a failed reload attempt", func() bool {
		_, _, fails := reg.ReloadStats()
		return fails >= 1
	})
	if _, quarantined := reg.Quarantined(models.LeNet300); !quarantined {
		t.Fatal("model recovered from a corrupt artifact — reload validation is broken")
	}

	// Repair the artifact. The periodic retry keys on the file identity
	// changing, so nudge the mtime past filesystem timestamp granularity.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), time.Now().Add(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "repaired artifact to clear quarantine", func() bool {
		_, quarantined := reg.Quarantined(models.LeNet300)
		return !quarantined
	})
	okBefore := s.OKAnswers
	Waves(1, 4, 4, func() { s.Count(predictOutcome(ts.URL, models.LeNet300, body, want)) }, nil)
	if s.OKAnswers != okBefore+16 {
		t.Fatalf("post-repair wave not clean: %+v", s)
	}
	finish(t, s, reg, t0)
}

// TestChaosGatewayFailover corrupts one replica's copy of the model
// under a two-replica gateway: the corrupt replica 503s with the
// quarantine header, the gateway fails over and routes around the pair —
// clients see nothing but correct 200s.
func TestChaosGatewayFailover(t *testing.T) {
	net, m, path := lenetFixture(t, t.TempDir())
	regs := make([]*serve.Registry, 2)
	urls := make([]string, 2)
	engines := make([]*serve.Engine, 2)
	for i := range regs {
		regs[i] = serve.NewRegistry(ip1Bypass, serve.BatchOptions{})
		defer regs[i].Close()
		e, err := regs[i].LoadFile("", path, "")
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
		ts := httptest.NewServer(serve.NewServer(regs[i]))
		defer ts.Close()
		urls[i] = ts.URL
	}
	g, err := gateway.New(urls, gateway.Options{
		ProbeInterval: time.Hour, // health probing out of the picture
		HedgeAfter:    -1,        // failover only
		QuarantineTTL: time.Hour, // the avoid set must hold for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	rows := chaosRows(2)
	want := refLogits(t, net, m, rows)
	body, _ := json.Marshal(map[string]any{"inputs": rows})
	s := &Scenario{Name: "gateway-failover"}
	t0 := time.Now()

	Waves(4, 4, 4,
		func() { s.Count(predictOutcome(gw.URL, models.LeNet300, body, want)) },
		func(wave int) {
			if wave == 0 {
				// Cold corruption on one replica: the gateway's first attempt
				// there meets the CRC failure, not a cached clean layer. Which
				// replica is ranked first doesn't matter — either the first
				// attempt 503s and fails over, or routing never touches the
				// corrupt copy.
				FlipBlob(engines[0].Model(), 0)
				s.Injections++
			}
		})

	// The invariant is stricter here than on a single replica: the fleet
	// absorbs the fault, so clients never even see the 503.
	if s.Unavailable != 0 || s.Failed != 0 {
		t.Fatalf("fleet leaked failures to clients: %+v", s)
	}
	if s.OKAnswers != s.Requests {
		t.Fatalf("%d of %d answers OK: %+v", s.OKAnswers, s.Requests, s)
	}
	finish(t, s, regs[0], t0)
}
