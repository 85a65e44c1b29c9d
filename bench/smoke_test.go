package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// skipUnlessSmoke keeps the CPU-heavy tests out of a plain `go test ./...`.
func skipUnlessSmoke(t *testing.T) {
	t.Helper()
	if testing.Short() || os.Getenv("BENCH_SMOKE") != "1" {
		t.Skip("set BENCH_SMOKE=1 (without -short): CPU-heavy — builds the commands, trains the zoo nets, boots daemons on pinned ports")
	}
}

// contractResult is the last line of a run, as the driver reads it.
type contractResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, args ...string) contractResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\nstderr: %s\nstdout tail: %s", args, code, stderr.String(), tail(stdout.String(), 2000))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(top) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", top)
	}
	var res contractResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("bench %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// checkTable demands exactly the table's metrics, each measured, with its
// unit.
func checkTable(t *testing.T, res contractResult, table []metricDef, args []string) {
	t.Helper()
	if len(res.Metrics) != len(table) {
		t.Errorf("bench %v printed %d metrics, want %d", args, len(res.Metrics), len(table))
	}
	for _, d := range table {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("bench %v: %s missing", args, d.Name)
		case m.Value == nil:
			t.Errorf("bench %v: %s is null", args, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("bench %v: %s has unit %q, want %q", args, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmoke boots the whole harness — build, fixtures, CLI, daemons,
// generator, checker — on every workload with one-second windows, then one
// traced run, and checks that every answer is correct and every metric
// present. It asserts no timing.
//
// It runs only when BENCH_SMOKE=1. `go test ./...` runs two packages at a
// time on this box, and 35 s of encode passes and daemons next to them made
// the suite's own timing-sensitive tests fail (internal/experiments'
// TestBenchServeReport measured a CSR speed-up of 0.97× instead of > 1×;
// internal/chaos' recovery wave came up short) — tests that pass when the
// smoke does not run beside them.
func TestSmoke(t *testing.T) {
	skipUnlessSmoke(t)
	t.Cleanup(stopAllChildren)
	for _, w := range workloads {
		args := []string{"-workload", w.Name, "-seconds", "1", "-seed", "7"}
		res := runBench(t, args...)
		checkTable(t, res, endToEnd, args)
		for _, d := range endToEnd {
			// End-to-end metrics are chosen never to be zero.
			if m := res.Metrics[d.Name]; m.Value != nil && *m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, d.Name, *m.Value)
			}
		}
	}

	args := []string{"-workload", "thrash_closed", "-seconds", "2", "-seed", "7", "-trace", "1"}
	res := runBench(t, args...)
	checkTable(t, res, perLayer, args)
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-thrash_closed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range doc.Spans {
		names[s.Name]++
	}
	for _, want := range []string{"client.request", "replica.attempt", "stage.kernel", "stage.decode"} {
		if names[want] == 0 {
			t.Errorf("span file has no %s spans (have %v)", want, names)
		}
	}
	if names["replica.attempt"] < names["client.request"] {
		t.Errorf("%d client spans but only %d attempt spans", names["client.request"], names["replica.attempt"])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
		{"-repeat", "0"},
		{"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("bench %v exited %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("bench %v printed a result: %s", args, stdout.String())
		}
	}
}
