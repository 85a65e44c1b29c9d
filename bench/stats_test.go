package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixtures under testdata/ are /v1/stats answers captured from the seed
// commit's deepszd and deepszgw around a short thrash_closed-style window,
// and an X-Deepsz-Stages value from one of its responses. The tests pin two
// things: the bench reads today's surface correctly, and a surface that
// changed under it costs a null with a reason, never a failed run.

func loadStats(t *testing.T, name string) statsDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	d, err := parseStats(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func capturedWindow(t *testing.T) *statsWindow {
	return &statsWindow{
		before: snapshot{
			replicas: []statsDoc{loadStats(t, "replica0_before.json"), loadStats(t, "replica1_before.json")},
			gateway:  loadStats(t, "gateway_before.json"),
		},
		after: snapshot{
			replicas: []statsDoc{loadStats(t, "replica0_after.json"), loadStats(t, "replica1_after.json")},
			gateway:  loadStats(t, "gateway_after.json"),
		},
	}
}

// edit returns a deep copy of d with fn applied to the object at path.
func edit(t *testing.T, d statsDoc, path string, fn func(map[string]any)) statsDoc {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var c statsDoc
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	obj := map[string]any(c)
	if path != "" {
		for _, k := range strings.Split(path, ".") {
			obj = obj[k].(map[string]any)
		}
	}
	fn(obj)
	return c
}

var statsNames = []string{
	"serve.cache.hit_rate", "serve.cache.effective_hit_rate", "serve.cache.misses",
	"serve.cache.evictions", "serve.cache.coalesced", "serve.cache.prefetches",
	"serve.cache.prefetch_hit_share", "serve.cache.prefetch_waste", "serve.cache.decode_s",
	"serve.cache.bytes_in_use", "gateway.primary_share", "gateway.hedges",
	"gateway.hedge_wasted_s", "gateway.failovers", "gateway.shed",
}

func TestStatsMetricsFromCapturedFixtures(t *testing.T) {
	ms := newMetricSet()
	statsMetrics(capturedWindow(t), ms)
	for _, name := range statsNames {
		if _, ok := ms.get(name); !ok {
			t.Errorf("%s is null on the captured fixtures: %s", name, ms.reason(name))
		}
	}
	// The window thrashed: it missed, evicted and decoded.
	for _, name := range []string{"serve.cache.misses", "serve.cache.evictions", "serve.cache.decode_s", "serve.cache.prefetches"} {
		if v, _ := ms.get(name); v <= 0 {
			t.Errorf("%s = %v on a thrashing window, want > 0", name, v)
		}
	}
	hit, _ := ms.get("serve.cache.hit_rate")
	eff, _ := ms.get("serve.cache.effective_hit_rate")
	if hit <= 0 || hit >= 1 || eff < hit || eff > 1 {
		t.Errorf("hit_rate %v, effective %v: want 0 < hit ≤ effective ≤ 1", hit, eff)
	}
	if v, _ := ms.get("gateway.primary_share"); v < 0.5 || v > 1 {
		t.Errorf("gateway.primary_share = %v, want within [0.5, 1] for two replicas", v)
	}
	// Deltas, not totals: the fixtures' counters were non-zero before.
	after, _ := capturedWindow(t).after.replicas[0].num("cache.misses")
	after1, _ := capturedWindow(t).after.replicas[1].num("cache.misses")
	if v, _ := ms.get("serve.cache.misses"); v >= after+after1 {
		t.Errorf("serve.cache.misses = %v is not a delta (totals sum to %v)", v, after+after1)
	}
}

func TestStatsMetricsDegrade(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(t *testing.T, w *statsWindow)
		null     []string // must be null, with the fragment in the reason
		fragment string
		intact   []string // must still be measured
	}{
		{
			name: "renamed cache counter",
			mutate: func(t *testing.T, w *statsWindow) {
				w.after.replicas[1] = edit(t, w.after.replicas[1], "cache", func(m map[string]any) {
					m["miss_count"] = m["misses"]
					delete(m, "misses")
				})
			},
			null:     []string{"serve.cache.misses", "serve.cache.hit_rate", "serve.cache.effective_hit_rate"},
			fragment: `"cache.misses"`,
			intact:   []string{"serve.cache.evictions", "serve.cache.decode_s", "gateway.hedges", "gateway.primary_share"},
		},
		{
			name: "counter became a string",
			mutate: func(t *testing.T, w *statsWindow) {
				w.before.replicas[0] = edit(t, w.before.replicas[0], "cache", func(m map[string]any) {
					m["decode_time_nanos"] = "12ms"
				})
			},
			null:     []string{"serve.cache.decode_s"},
			fragment: "not a number",
			intact:   []string{"serve.cache.misses", "serve.cache.hit_rate"},
		},
		{
			name: "per-model stats dropped",
			mutate: func(t *testing.T, w *statsWindow) {
				w.after.replicas[0] = edit(t, w.after.replicas[0], "", func(m map[string]any) { delete(m, "models") })
			},
			null:     []string{"gateway.primary_share"},
			fragment: `"models"`,
			intact:   []string{"serve.cache.misses", "gateway.shed"},
		},
		{
			name: "gateway field renamed",
			mutate: func(t *testing.T, w *statsWindow) {
				w.after.gateway = edit(t, w.after.gateway, "", func(m map[string]any) {
					m["hedge_waste_s"] = m["hedge_wasted_seconds"]
					delete(m, "hedge_wasted_seconds")
				})
			},
			null:     []string{"gateway.hedge_wasted_s"},
			fragment: `"hedge_wasted_seconds"`,
			intact:   []string{"gateway.hedges", "gateway.failovers", "serve.cache.misses"},
		},
		{
			name: "replica stats unreachable",
			mutate: func(t *testing.T, w *statsWindow) {
				w.after.replicas, w.after.replicaErr = nil, os.ErrDeadlineExceeded
			},
			null:     []string{"serve.cache.misses", "serve.cache.bytes_in_use", "gateway.primary_share"},
			fragment: "timeout",
			intact:   []string{"gateway.hedges", "gateway.shed"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := capturedWindow(t)
			c.mutate(t, w)
			ms := newMetricSet()
			statsMetrics(w, ms)
			for _, name := range c.null {
				if v, ok := ms.get(name); ok {
					t.Errorf("%s = %v, want null", name, v)
				} else if !strings.Contains(ms.reason(name), c.fragment) {
					t.Errorf("%s: reason %q does not mention %s", name, ms.reason(name), c.fragment)
				}
			}
			for _, name := range c.intact {
				if _, ok := ms.get(name); !ok {
					t.Errorf("%s went null too: %s", name, ms.reason(name))
				}
			}
		})
	}
}

func TestParseStages(t *testing.T) {
	captured, err := os.ReadFile(filepath.Join("testdata", "stages_header.txt"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseStages(strings.TrimSpace(string(captured)))
	if err != nil {
		t.Fatalf("captured header rejected: %v", err)
	}
	have := map[string]bool{}
	for _, s := range st {
		have[s.Name] = true
	}
	for _, name := range stageNames {
		if !have[name] {
			t.Errorf("captured header has no %q stage", name)
		}
	}

	cases := []struct {
		in   string
		want []stage
		bad  bool
	}{
		{in: "queue=10;batch_wait=2000000;kernel=150", want: []stage{{"queue", 10}, {"batch_wait", 2000000}, {"kernel", 150}}},
		{in: "decode=0", want: []stage{{"decode", 0}}},
		{in: "queue=1;gpu_copy=7", want: []stage{{"queue", 1}, {"gpu_copy", 7}}}, // a stage a later PR adds passes through
		{in: "", bad: true},             // header absent
		{in: "queue", bad: true},        // no value
		{in: "queue=abc", bad: true},    // not a number
		{in: "queue=-5", bad: true},     // negative duration
		{in: "=5", bad: true},           // no name
		{in: "queue=1;;k=2", bad: true}, // empty entry
		{in: "queue=1.5", bad: true},    // not whole nanoseconds
	}
	for _, c := range cases {
		got, err := parseStages(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("parseStages(%q) accepted: %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseStages(%q): %v", c.in, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseStages(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseStages(%q)[%d] = %v, want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// spansFor builds the spans of one request: client span, attempts with their
// stage splits.
func spansFor(trace string, clientNs int64, attempts ...[]int64) []span {
	out := []span{{Trace: trace, ID: clientSpanID(trace), Name: "client.request", DurNs: clientNs, Attrs: map[string]string{"outcome": "ok"}}}
	for n, a := range attempts {
		// a = [start, dur, status, queue, batch_wait, cache_lookup, decode, kernel]
		id := trace + ".a" + string(rune('0'+n))
		att := span{Trace: trace, ID: id, Parent: clientSpanID(trace), Name: "replica.attempt", StartNs: a[0], DurNs: a[1],
			Attrs: map[string]string{"status": map[int64]string{200: "200", 503: "503", 0: "error"}[a[2]]}}
		out = append(out, att)
		for i, name := range stageNames {
			if 3+i < len(a) {
				out = append(out, span{Trace: trace, ID: id + "." + name, Parent: id, Name: "stage." + name, DurNs: a[3+i]})
			}
		}
	}
	return out
}

func TestTraceMetricsSelfTimes(t *testing.T) {
	const ms1 = int64(1e6)
	var spans []span
	// Three plain requests: client 10 ms, attempt 8 ms, stages sum to 7 ms.
	for _, tr := range []string{"t1", "t2", "t3"} {
		spans = append(spans, spansFor(tr, 10*ms1, []int64{0, 8 * ms1, 200, 1 * ms1, 2 * ms1, 0, 1 * ms1, 3 * ms1})...)
	}
	// One hedged request: the first attempt was cancelled, the second won.
	spans = append(spans, spansFor("t4", 10*ms1,
		[]int64{0, 9 * ms1, 0},
		[]int64{1 * ms1, 8 * ms1, 200, 1 * ms1, 2 * ms1, 0, 1 * ms1, 3 * ms1})...)
	// A failed request contributes nothing.
	failed := spansFor("t5", 99*ms1, []int64{0, 90 * ms1, 503})
	failed[0].Attrs["outcome"] = "failed"
	spans = append(spans, failed...)

	ms := newMetricSet()
	traceMetrics(spans, ms)
	want := map[string]float64{
		"gateway.hop_p50_ms":        2, // client − winning attempt
		"serve.queue_p50_ms":        1,
		"serve.batch_wait_p50_ms":   2,
		"serve.batch_wait_p95_ms":   2,
		"serve.cache_lookup_p50_ms": 0,
		"serve.decode_p50_ms":       1,
		"serve.kernel_p50_ms":       3,
		"serve.http_self_p50_ms":    1, // attempt − Σ stages
		"serve.unaccounted_share":   0, // the parts add up exactly here
	}
	for name, w := range want {
		if v, ok := ms.get(name); !ok || math.Abs(v-w) > 1e-9 {
			t.Errorf("%s = %v (measured %v, reason %q), want %v", name, v, ok, ms.reason(name), w)
		}
	}
}

func TestTraceMetricsDegrade(t *testing.T) {
	const ms1 = int64(1e6)
	t.Run("no stages header", func(t *testing.T) {
		spans := spansFor("t1", 10*ms1, []int64{0, 8 * ms1, 200})
		spans[1].Attrs["stages_error"] = "empty " + stagesHeader
		ms := newMetricSet()
		traceMetrics(spans, ms)
		if v, ok := ms.get("gateway.hop_p50_ms"); !ok || v != 2 {
			t.Errorf("gateway.hop_p50_ms = %v, %v; the hop needs no stages", v, ok)
		}
		for _, name := range []string{"serve.kernel_p50_ms", "serve.http_self_p50_ms", "serve.unaccounted_share"} {
			if _, ok := ms.get(name); ok {
				t.Errorf("%s measured without a stage split", name)
			}
		}
		if r := ms.reason("serve.kernel_p50_ms"); !strings.Contains(r, stagesHeader) {
			t.Errorf("reason %q does not name the header", r)
		}
	})
	t.Run("stage renamed", func(t *testing.T) {
		spans := spansFor("t1", 10*ms1, []int64{0, 8 * ms1, 200, 1 * ms1, 2 * ms1, 0, 1 * ms1, 3 * ms1})
		for i := range spans {
			if spans[i].Name == "stage.kernel" {
				spans[i].Name = "stage.compute"
			}
		}
		ms := newMetricSet()
		traceMetrics(spans, ms)
		if _, ok := ms.get("serve.kernel_p50_ms"); ok {
			t.Error("serve.kernel_p50_ms measured after the stage was renamed")
		}
		if r := ms.reason("serve.kernel_p50_ms"); !strings.Contains(r, "kernel") {
			t.Errorf("reason %q does not name the stage", r)
		}
		if _, ok := ms.get("serve.queue_p50_ms"); !ok {
			t.Error("serve.queue_p50_ms went null too")
		}
		if _, ok := ms.get("serve.unaccounted_share"); ok {
			t.Error("serve.unaccounted_share reported with a part missing")
		}
	})
	t.Run("trace header not forwarded", func(t *testing.T) {
		spans := spansFor("t1", 10*ms1) // no attempt joined
		ms := newMetricSet()
		traceMetrics(spans, ms)
		if _, ok := ms.get("gateway.hop_p50_ms"); ok {
			t.Error("gateway.hop_p50_ms measured with no attempt span")
		}
		if r := ms.reason("gateway.hop_p50_ms"); !strings.Contains(r, traceHeader) {
			t.Errorf("reason %q does not name the header", r)
		}
	})
}

func TestParseProc(t *testing.T) {
	// Field 2 may contain spaces and parentheses.
	stat := "1234 (deep szd) (x)) S 1 1234 1234 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 5 0 100 1000000 300 18446744073709551615"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 2.0 {
		t.Errorf("parseProcStat = %v, %v; want 2.0 s (150 + 50 ticks)", cpu, err)
	}
	if _, err := parseProcStat("1234 deepszd S 1"); err == nil {
		t.Error("stat line without a command field accepted")
	}
	if _, err := parseProcStat("1 (x) S 1 2 3"); err == nil {
		t.Error("truncated stat line accepted")
	}
	rss, err := parseProcStatus("Name:\tdeepszd\nVmPeak:\t  20000 kB\nVmRSS:\t   15360 kB\nThreads:\t5\n")
	if err != nil || rss != 15 {
		t.Errorf("parseProcStatus = %v, %v; want 15 MB", rss, err)
	}
	if _, err := parseProcStatus("Name:\tdeepszd\n"); err == nil {
		t.Error("status without VmRSS accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) — exclusive method, Python's default.
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 9}, 1, 5, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
