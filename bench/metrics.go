package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric and its unit. The two tables below are the
// single source of truth for what a run prints; BENCHMARK.json at the repo
// root repeats them for the driver and a test keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists what a user of DeepSZ sees: the paper's four numbers
// (ratio, accuracy, encode time, decode time) plus predict latency and
// throughput through deepszgw → deepszd. Every workload reports all nine.
var endToEnd = []metricDef{
	{"predict_p50_ms", "ms"},
	{"predict_p95_ms", "ms"},
	{"rows_per_s", "rows/s"},
	{"ok_share", "ratio"},
	{"encode_s", "s"},
	{"decode_ms", "ms"},
	{"compression_ratio", "x"},
	{"decoded_top1_pct", "%"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of single layers (this repo's modules), in the
// order the README's layer map discusses them.
var perLayer = []metricDef{
	// loadgen: the bench itself — validity of everything else.
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.wrong", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	// gateway: internal/gateway, cmd/deepszgw.
	{"gateway.hop_p50_ms", "ms"},
	{"gateway.hop_p95_ms", "ms"},
	{"gateway.hedges", "count"},
	{"gateway.hedge_wasted_s", "s"},
	{"gateway.failovers", "count"},
	{"gateway.shed", "count"},
	{"gateway.primary_share", "ratio"},
	{"deepszgw.cpu_ms_per_req", "ms"},
	{"deepszgw.rss_mb", "MB"},
	// serve: internal/serve, cmd/deepszd — stage split from X-Deepsz-Stages.
	{"serve.queue_p50_ms", "ms"},
	{"serve.batch_wait_p50_ms", "ms"},
	{"serve.batch_wait_p95_ms", "ms"},
	{"serve.cache_lookup_p50_ms", "ms"},
	{"serve.decode_p50_ms", "ms"},
	{"serve.decode_p95_ms", "ms"},
	{"serve.kernel_p50_ms", "ms"},
	{"serve.kernel_p95_ms", "ms"},
	{"serve.http_self_p50_ms", "ms"},
	{"serve.unaccounted_share", "ratio"},
	{"deepszd.cpu_ms_per_req", "ms"},
	{"deepszd.rss_mb", "MB"},
	// serve.cache: decode cache + prefetcher, from /v1/stats.
	{"serve.cache.hit_rate", "ratio"},
	{"serve.cache.effective_hit_rate", "ratio"},
	{"serve.cache.misses", "count"},
	{"serve.cache.evictions", "count"},
	{"serve.cache.coalesced", "count"},
	{"serve.cache.prefetches", "count"},
	{"serve.cache.prefetch_hit_share", "ratio"},
	{"serve.cache.prefetch_waste", "count"},
	{"serve.cache.decode_s", "s"},
	{"serve.cache.decode_cpu_share", "ratio"},
	{"serve.cache.bytes_in_use", "B"},
	// core: probes on the workload's own .dsz and nets.
	{"core.read_model_ms", "ms"},
	{"core.decode.lossless_ms", "ms"},
	{"core.decode.lossy_ms", "ms"},
	{"core.decode.reconstruct_ms", "ms"},
	{"core.assess_s", "s"},
	{"core.optimize_ms", "ms"},
	{"core.generate_s", "s"},
	{"core.accuracy_loss_pp", "pp"},
	{"core.max_err_over_eb", "ratio"},
	{"core.zeros_disturbed", "count"},
	// codec / sz / zfp / deepcomp: every lossy codec on one data array.
	{"codec.sz.compress_mb_s", "MB/s"},
	{"codec.sz.decompress_mb_s", "MB/s"},
	{"codec.sz.ratio", "x"},
	{"codec.sz.max_err_over_eb", "ratio"},
	{"codec.zfp.compress_mb_s", "MB/s"},
	{"codec.zfp.decompress_mb_s", "MB/s"},
	{"codec.zfp.ratio", "x"},
	{"codec.zfp.max_err_over_eb", "ratio"},
	{"codec.deepcomp.compress_mb_s", "MB/s"},
	{"codec.deepcomp.decompress_mb_s", "MB/s"},
	{"codec.deepcomp.ratio", "x"},
	{"codec.deepcomp.max_err_over_eb", "ratio"},
	// lossless / huffman: on the index array and SZ-style quantisation codes.
	{"lossless.best_compress_mb_s", "MB/s"},
	{"lossless.decompress_mb_s", "MB/s"},
	{"huffman.encode_mb_s", "MB/s"},
	{"huffman.decode_mb_s", "MB/s"},
	// tensor / nn: kernels at the workloads' shapes.
	{"tensor.dense_ns_per_row.fc784x300.b4", "ns"},
	{"tensor.csr_ns_per_row.fc784x300.b4", "ns"},
	{"tensor.dense_ns_per_row.fc256x512.b32", "ns"},
	{"tensor.csr_ns_per_row.fc256x512.b32", "ns"},
	{"nn.forward_ms.lenet-300-100.b4", "ms"},
	{"nn.forward_ms.vgg16-s.b32", "ms"},
	{"nn.conv_share.vgg16-s.b32", "ratio"},
	// bench: the harness's own costs and the box it ran on.
	{"bench.build_s", "s"},
	{"bench.fixtures_s", "s"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.nproc", "count"},
	{"bench.gomaxprocs", "count"},
}

// metricSet holds one run's measured values. A metric whose source is
// missing stays unset and carries the reason instead: per-layer sources sit
// behind interfaces a later PR may rename, and that must cost a null in the
// report, never a failed run.
type metricSet struct {
	values  map[string]float64
	reasons map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{values: map[string]float64{}, reasons: map[string]string{}}
}

func (s *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.miss(name, fmt.Sprintf("not a finite number (%v)", v))
		return
	}
	s.values[name] = v
	delete(s.reasons, name)
}

func (s *metricSet) miss(name, reason string) {
	delete(s.values, name)
	s.reasons[name] = reason
}

// setOr records v, or the error as the reason the metric is null.
func (s *metricSet) setOr(name string, v float64, err error) {
	if err != nil {
		s.miss(name, err.Error())
		return
	}
	s.set(name, v)
}

func (s *metricSet) get(name string) (float64, bool) {
	v, ok := s.values[name]
	return v, ok
}

// reason explains a null; metrics nothing ever tried to measure say so.
func (s *metricSet) reason(name string) string {
	if r, ok := s.reasons[name]; ok {
		return r
	}
	return "not measured in this run"
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the nearest-rank
// rule, so the result is always a value that was measured.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }
