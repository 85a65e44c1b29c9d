// Command deepszd is the DeepSZ model-serving daemon: it loads compressed
// .dsz models (the output of `deepsz encode`), keeps them compressed at
// rest, and serves JSON predict requests over HTTP, materialising fc
// layers on demand through a byte-budgeted decode cache.
//
// Typical session (after `deepsz train` / `prune` / `encode`):
//
//	deepszd -addr :8080 -model model.dsz -mem-budget 2m
//	curl localhost:8080/v1/models
//	curl -d '{"inputs":[[0,0,...]]}' localhost:8080/v1/models/lenet-300-100/predict
//	curl localhost:8080/v1/stats
//
// Each -model flag takes `[name=]path[:weights]`: an optional serving name
// (default: the network name stored in the file) and an optional trained
// weights file supplying the conv prefix for networks that have one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
)

type modelSpec struct {
	name, path, weights string
}

// parseModelSpec parses `[name=]path[:weights]`.
func parseModelSpec(v string) (modelSpec, error) {
	var s modelSpec
	if i := strings.IndexByte(v, '='); i >= 0 {
		s.name, v = v[:i], v[i+1:]
	}
	if i := strings.IndexByte(v, ':'); i >= 0 {
		s.path, s.weights = v[:i], v[i+1:]
	} else {
		s.path = v
	}
	if s.path == "" {
		return s, fmt.Errorf("empty model path in %q", v)
	}
	return s, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "deepszd:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("deepszd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	budgetStr := fs.String("mem-budget", "0", "decode-cache byte budget with optional k/m/g suffix (0 = unlimited)")
	maxBatch := fs.Int("max-batch", 32, "rows at which a micro-batch stops taking queued requests")
	maxPending := fs.Int("max-pending", 256, "per-model cap on predicts admitted at once; overflow is shed with 503 (0 = unlimited)")
	maxBodyStr := fs.String("max-body-bytes", "8m", "predict request body cap with optional k/m/g suffix; overflow is refused with 413 (0 = the 8m default, not unlimited)")
	sparseThreshold := fs.Float64("sparse-threshold", serve.DefaultSparseThreshold,
		"cache decoded layers in CSR form below this density; the uniform fallback when -autotune-sparse=false or for shapes autotuning skips (0 disables the sparse fast path)")
	autotuneSparse := fs.Bool("autotune-sparse", true,
		"micro-benchmark each layer shape at startup and pick per-layer dense-vs-CSR thresholds from the measured crossover")
	prefetchDepth := fs.Int("prefetch-depth", 1, "decode this many layers ahead of the one computing (0 = off); outputs are identical either way")
	verifyDecoded := fs.Bool("verify-decoded", false, "checksum every decoded layer at cache fill and re-verify before each use, ejecting rot (extends the encoder's criticality-marked coverage to all layers)")
	scrubInterval := fs.Duration("scrub-interval", 0, "background integrity sweep period: re-checksum resident cache entries and retry quarantined models whose artifact changed on disk (0 = off)")
	evictionPolicy := fs.String("eviction-policy", "lru", "decode-cache replacement policy: lru or gdsf (decode-cost per byte, frequency-scaled, aged)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	slowReq := fs.Duration("slow-request", 0, "log predicts at or above this end-to-end latency with their trace ID and stage breakdown (0 = off)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of predicts that record full span timelines served by /v1/traces (0 = the 1% default; negative = off; slow/errored requests are kept regardless)")
	traceStore := fs.Int("trace-store", 0, "kept traces retained in memory, newest evicting oldest (0 = the 256 default)")
	sloTargetMs := fs.Float64("slo-target-ms", 0, "per-model SLO latency target in milliseconds; /v1/stats and /metrics report rolling attainment and burn rate (0 = SLOs off)")
	sloObjective := fs.Float64("slo-objective", 0.99, "fraction of predicts that must finish within -slo-target-ms")
	var specs []modelSpec
	fs.Func("model", "compressed model `[name=]path[:weights]` (repeatable)", func(v string) error {
		s, err := parseModelSpec(v)
		if err != nil {
			return err
		}
		specs = append(specs, s)
		return nil
	})
	fs.Parse(os.Args[1:])
	if len(specs) == 0 {
		return errors.New("at least one -model is required")
	}
	logger, err := cliutil.SetupSlog(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	if addr, err := cliutil.StartPprof(*pprofAddr); err != nil {
		return err
	} else if addr != "" {
		logger.Info("pprof listening", "addr", addr)
	}
	budget, err := cliutil.ParseBytes(*budgetStr)
	if err != nil {
		return err
	}
	maxBody, err := cliutil.ParseBytes(*maxBodyStr)
	if err != nil {
		return err
	}

	policy, err := serve.ParseEvictionPolicy(*evictionPolicy)
	if err != nil {
		return err
	}

	reg := serve.NewRegistry(budget, serve.BatchOptions{MaxBatch: *maxBatch, MaxPending: *maxPending})
	defer reg.Close()
	if err := reg.SetEvictionPolicy(policy); err != nil {
		return err
	}
	reg.SetSparseThreshold(*sparseThreshold)
	reg.SetAutotuneSparse(*autotuneSparse)
	reg.SetPrefetchDepth(*prefetchDepth)
	if err := reg.SetVerifyDecoded(*verifyDecoded); err != nil {
		return err
	}
	reg.SetScrubInterval(*scrubInterval)
	if *sloTargetMs > 0 {
		reg.SetSLO(time.Duration(*sloTargetMs*float64(time.Millisecond)), *sloObjective)
		logger.Info("slo tracking enabled", "target_ms", *sloTargetMs, "objective", *sloObjective)
	}
	if *scrubInterval > 0 {
		logger.Info("integrity scrub enabled", "interval", *scrubInterval, "verify_decoded", *verifyDecoded)
	}
	for _, s := range specs {
		e, err := reg.LoadFile(s.name, s.path, s.weights)
		if err != nil {
			return err
		}
		m := e.Model()
		kinds := map[string]int{}
		for i := range m.Layers {
			kinds[m.Layers[i].Kind.String()]++
		}
		logger.Info("loaded model",
			"name", e.Name(),
			"net", m.NetName,
			"fc_layers", kinds["fc"],
			"conv_layers", kinds["conv"],
			"compressed_bytes", m.TotalBytes(),
			"dense_bytes", m.TotalDenseBytes(),
		)
	}
	if *autotuneSparse {
		for shape, st := range reg.AutotuneTunes() {
			logger.Info("autotuned kernel crossover",
				"rows", shape[0], "cols", shape[1], "sparse_threshold", st.Threshold)
		}
	}
	if budget > 0 {
		logger.Info("decode cache budget", "bytes", budget)
	} else {
		logger.Info("decode cache budget", "bytes", "unlimited")
	}

	srv := cliutil.NewHTTPServer(serve.NewServerWith(reg, serve.ServerOptions{
		MaxBodyBytes:         maxBody,
		SlowRequestThreshold: *slowReq,
		Logger:               logger,
		TraceSampleRate:      *traceSample,
		TraceStoreSize:       *traceStore,
	}))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("serving", "addr", ln.Addr().String())
	if err := cliutil.ServeUntilDone(ctx, srv, ln, *drain); err != nil {
		return err
	}
	s := reg.Cache().Stats()
	logger.Info("final cache stats",
		"policy", s.Policy,
		"hits", s.Hits,
		"misses", s.Misses,
		"coalesced", s.Coalesced,
		"evictions", s.Evictions,
		"bypasses", s.Bypasses,
		"prefetches", s.Prefetches,
		"prefetch_hits", s.PrefetchHits,
		"prefetch_waste", s.PrefetchWaste,
		"prefetch_overlap", s.PrefetchOver,
		"hit_rate", s.HitRate(),
		"effective_hit_rate", s.EffectiveHitRate(),
	)
	return nil
}
