// Command bench is DeepSZ's one end-to-end benchmark. It is black-box
// towards the serving layers: it builds cmd/deepsz, cmd/deepszd and
// cmd/deepszgw, makes models with the real train → prune → encode CLI,
// boots one gateway and two replicas as child processes on loopback, and
// talks to them over HTTP only. Every answer is checked against an
// in-process reference, every compressed weight against its error bound.
//
//	go run ./bench                         all four workloads, end-to-end metrics
//	go run ./bench -workload warm_open     one workload
//	go run ./bench -trace 1                per-layer metrics, spans in bench/out/trace-*.json
//	go run ./bench -repeat 10              medians, quartiles and spread per metric
//
// The last line of standard output is one JSON object per the contract in
// BENCHMARK.json; see bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty = all)")
	seed := fs.Uint64("seed", 1, "fixes input pools, model-choice order and arrival gaps")
	seconds := fs.Int("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 1, "runs per workload (seed, seed+1, ...); more than one prints median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be at least 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		todo = []workload{w}
	}

	// A signal stops the daemons before the bench dies; nothing may outlive
	// it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer stopAllChildren()

	e, err := prepare(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "# deepsz bench: commit %s, seed %d, window %d s, trace %d, nproc %d, GOMAXPROCS %d, %s\n",
		commit(e.root), *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "# build %.1f s, fixtures %.1f s (shared by all workloads, in no end-to-end metric)\n", e.buildS, e.fixtureS)

	table := endToEnd
	if *trace == 1 {
		table = perLayer
	}
	status := 0
	var last *result
	for _, w := range todo {
		var runs []*result
		for i := 0; i < *repeat; i++ {
			o := runOpts{seed: *seed + uint64(i), seconds: *seconds, trace: *trace == 1}
			res, err := runWorkload(ctx, e, w, o)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			report(stdout, w, o, res)
			if !res.correct() {
				status = 1
			}
			runs = append(runs, res)
			last = res
		}
		if *repeat > 1 {
			reportSpread(stdout, w, table, runs)
		}
	}
	if status != 0 {
		fmt.Fprintln(stderr, "bench: FAILED — an output was wrong or an operation failed; see the problems above")
	}
	// The contract line, for the last run made.
	line, err := json.Marshal(contractLine(last, table))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// commit names the code under test; a checkout that is not a git
// repository (the driver's) says so.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report prints one run: every metric by name with its unit. Metrics of the
// other table that this run happened to measure are listed too; a null
// carries its reason.
func report(out io.Writer, w workload, o runOpts, r *result) {
	fmt.Fprintf(out, "\n== %s (seed %d): %s\n", w.Name, o.seed, w.Why)
	for _, d := range endToEnd {
		printMetric(out, r.Metrics, d)
	}
	fmt.Fprintf(out, "   predict_p50_ms/p95 over %d correct answers; attempted %d, failed %d; the run took %.1f s\n", r.Samples, r.Attempted, r.Failed, r.TookS)
	fmt.Fprintln(out, "-- per layer")
	for _, d := range perLayer {
		printMetric(out, r.Metrics, d)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(out, "!! %s\n", p)
	}
}

func printMetric(out io.Writer, ms *metricSet, d metricDef) {
	if v, ok := ms.get(d.Name); ok {
		fmt.Fprintf(out, "%-42s %14.6g %s\n", d.Name, v, d.Unit)
	} else {
		fmt.Fprintf(out, "%-42s %14s %s   (%s)\n", d.Name, "null", d.Unit, ms.reason(d.Name))
	}
}

// quartiles matches Python's statistics.quantiles(values, n=4) — the rule
// the driver judges spread by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	n := len(data)
	if n < 2 {
		return data[0], data[0], data[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// reportSpread prints, per metric, the median and quartiles over the runs
// and the interquartile distance as a share of the median.
func reportSpread(out io.Writer, w workload, table []metricDef, runs []*result) {
	fmt.Fprintf(out, "\n== %s over %d runs: median [q1, q3] spread\n", w.Name, len(runs))
	for _, d := range table {
		var vals []float64
		for _, r := range runs {
			if v, ok := r.Metrics.get(d.Name); ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			fmt.Fprintf(out, "%-42s null\n", d.Name)
			continue
		}
		q1, q2, q3 := quartiles(vals)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(out, "%-42s %12.6g [%.6g, %.6g] %s  spread %.2f%%\n", d.Name, q2, q1, q3, d.Unit, 100*spread)
	}
}

// contractLine is the machine-readable result: exactly the keys the driver
// reads, the metrics of the requested table only.
func contractLine(r *result, table []metricDef) map[string]any {
	type entry struct {
		Value  *float64 `json:"value"`
		Unit   string   `json:"unit"`
		Reason string   `json:"reason,omitempty"`
	}
	metrics := map[string]entry{}
	for _, d := range table {
		en := entry{Unit: d.Unit}
		if v, ok := r.Metrics.get(d.Name); ok {
			en.Value = &v
		} else {
			en.Reason = r.Metrics.reason(d.Name)
		}
		metrics[d.Name] = en
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}
