package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
)

// statsDoc is one /v1/stats answer, kept schemaless: the bench reads the
// daemons from outside, and a field a later PR renames or drops must turn
// one per-layer metric into a null with a reason, not break the run.
type statsDoc map[string]any

func fetchStats(client *http.Client, base string) (statsDoc, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/v1/stats answered %d", base, resp.StatusCode)
	}
	return parseStats(data)
}

func parseStats(data []byte) (statsDoc, error) {
	var d statsDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return d, nil
}

// num reads the number at a dotted path ("cache.hits").
func (d statsDoc) num(path string) (float64, error) {
	var cur any = map[string]any(d)
	for _, key := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("/v1/stats has no field %q", path)
		}
		if cur, ok = m[key]; !ok {
			return 0, fmt.Errorf("/v1/stats has no field %q", path)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("/v1/stats field %q is not a number", path)
	}
	return v, nil
}

// snapshot is every tier's counters at one instant: /v1/stats of each
// daemon and /proc's view of its process. A source that could not be read
// leaves its error behind, and every metric built on it reports that.
type snapshot struct {
	replicas    []statsDoc
	gateway     statsDoc
	replicaErr  error
	gatewayErr  error
	cpuS, rssMB []float64 // gateway first, then the replicas
	procErr     error
}

func (f *fleet) snapshot() snapshot {
	var s snapshot
	for _, base := range f.real {
		d, err := fetchStats(f.client, base)
		if err != nil {
			s.replicas, s.replicaErr = nil, err
			break
		}
		s.replicas = append(s.replicas, d)
	}
	s.gateway, s.gatewayErr = fetchStats(f.client, f.gwURL)
	for _, c := range append([]*child{f.gateway}, f.replicas...) {
		cpu, rss, err := procUsage(c.cmd.Process.Pid)
		if err != nil {
			s.procErr = err
			break
		}
		s.cpuS, s.rssMB = append(s.cpuS, cpu), append(s.rssMB, rss)
	}
	return s
}

// statsWindow is the two snapshots around a measured window.
type statsWindow struct {
	before, after snapshot
}

func (w *statsWindow) replicaErr() error {
	if err := errors.Join(w.before.replicaErr, w.after.replicaErr); err != nil {
		return err
	}
	if len(w.after.replicas) == 0 || len(w.before.replicas) != len(w.after.replicas) {
		return errors.New("replica /v1/stats not captured")
	}
	return nil
}

// replicaDelta sums a counter's growth over the window across replicas.
func (w *statsWindow) replicaDelta(path string) (float64, error) {
	if err := w.replicaErr(); err != nil {
		return 0, err
	}
	sum := 0.0
	for i := range w.after.replicas {
		a, err := w.after.replicas[i].num(path)
		if err != nil {
			return 0, err
		}
		b, err := w.before.replicas[i].num(path)
		if err != nil {
			return 0, err
		}
		sum += a - b
	}
	return sum, nil
}

// replicaSum sums a gauge at the end of the window across replicas.
func (w *statsWindow) replicaSum(path string) (float64, error) {
	if err := w.replicaErr(); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, d := range w.after.replicas {
		v, err := d.num(path)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func (w *statsWindow) gatewayDelta(path string) (float64, error) {
	if err := errors.Join(w.before.gatewayErr, w.after.gatewayErr); err != nil {
		return 0, err
	}
	a, err := w.after.gateway.num(path)
	if err != nil {
		return 0, err
	}
	b, err := w.before.gateway.num(path)
	if err != nil {
		return 0, err
	}
	return a - b, nil
}

// share divides a part by its whole once both were read; an empty whole is
// a reason, not a zero.
func share(part, whole float64, what string, errs ...error) (float64, error) {
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	if whole == 0 {
		return 0, fmt.Errorf("no %s in the window", what)
	}
	return part / whole, nil
}

// primaryShare is the share of each model's requests that landed on its
// most-used replica, averaged over requests: 1 means perfect affinity (two
// small caches act as one big one), 1/replicas means none.
func (w *statsWindow) primaryShare() (float64, error) {
	if err := w.replicaErr(); err != nil {
		return 0, err
	}
	perModel := map[string][]float64{}
	for i, after := range w.after.replicas {
		models, ok := after["models"].(map[string]any)
		if !ok {
			return 0, fmt.Errorf("/v1/stats has no field %q", "models")
		}
		for name := range models {
			path := "models." + name + ".requests"
			a, err := after.num(path)
			if err != nil {
				return 0, err
			}
			b, err := w.before.replicas[i].num(path)
			if err != nil {
				return 0, err
			}
			perModel[name] = append(perModel[name], a-b)
		}
	}
	var top, total float64
	for _, counts := range perModel {
		best := 0.0
		for _, c := range counts {
			total += c
			if c > best {
				best = c
			}
		}
		top += best
	}
	if total == 0 {
		return 0, fmt.Errorf("no replica requests in the window")
	}
	return top / total, nil
}

// statsMetrics fills the per-layer metrics that come from /v1/stats.
func statsMetrics(w *statsWindow, ms *metricSet) {
	hits, herr := w.replicaDelta("cache.hits")
	misses, merr := w.replicaDelta("cache.misses")
	coalesced, cerr := w.replicaDelta("cache.coalesced")
	v, err := share(hits, hits+misses, "cache gets", herr, merr)
	ms.setOr("serve.cache.hit_rate", v, err)
	v, err = share(hits+coalesced, hits+misses+coalesced, "cache gets", herr, merr, cerr)
	ms.setOr("serve.cache.effective_hit_rate", v, err)
	ms.setOr("serve.cache.misses", misses, merr)
	ms.setOr("serve.cache.coalesced", coalesced, cerr)
	evictions, err := w.replicaDelta("cache.evictions")
	ms.setOr("serve.cache.evictions", evictions, err)
	waste, err := w.replicaDelta("cache.prefetch_waste")
	ms.setOr("serve.cache.prefetch_waste", waste, err)
	// What speculation bought: hits ÷ prefetches started. None started reads
	// 0, with serve.cache.prefetches next to it showing the empty base.
	prefetches, perr := w.replicaDelta("cache.prefetches")
	ms.setOr("serve.cache.prefetches", prefetches, perr)
	phits, pherr := w.replicaDelta("cache.prefetch_hits")
	v, err = share(phits, math.Max(prefetches, 1), "prefetches", perr, pherr)
	ms.setOr("serve.cache.prefetch_hit_share", v, err)
	ns, err := w.replicaDelta("cache.decode_time_nanos")
	ms.setOr("serve.cache.decode_s", ns/1e9, err)
	v, err = w.replicaSum("cache.bytes_in_use")
	ms.setOr("serve.cache.bytes_in_use", v, err)

	v, err = w.primaryShare()
	ms.setOr("gateway.primary_share", v, err)
	for metric, path := range map[string]string{
		"gateway.hedges":         "hedges",
		"gateway.failovers":      "failovers",
		"gateway.shed":           "shed",
		"gateway.hedge_wasted_s": "hedge_wasted_seconds",
	} {
		v, err := w.gatewayDelta(path)
		ms.setOr(metric, v, err)
	}
}
