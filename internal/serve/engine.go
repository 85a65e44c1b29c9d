package serve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ErrBadInput marks request-validation failures; the HTTP layer maps it
// to 400.
var ErrBadInput = errors.New("serve: bad input")

// ErrOverloaded marks predicts rejected by the per-engine admission
// bound (BatchOptions.MaxPending); the HTTP layer maps it to 503 with a
// Retry-After hint. It is the backpressure signal a routing tier keys
// on: shed here, cheaply and immediately, rather than time out there.
var ErrOverloaded = errors.New("serve: overloaded")

// DefaultSparseThreshold is the decoded-layer density below which engines
// keep the layer in CSR form: core.SparseThreshold, where the value and
// its rationale live.
const DefaultSparseThreshold = core.SparseThreshold

// Engine serves one compressed model: forward passes run on a pool of
// weight-stripped network clones, and every compressed layer's weights (fc
// and conv alike) are fetched through the shared decode cache at the moment
// the kernel needs them. Peak extra memory for compressed weights is
// therefore the cache budget, not the model's dense size; layers whose
// decoded density falls below the sparse threshold are cached in CSR form,
// stretching that budget and feeding the sparse kernels. Engine implements
// nn.WeightProvider.
type Engine struct {
	name      string
	model     *core.Model
	cache     *DecodeCache
	inShape   []int   // per-example input shape, e.g. [1 28 28]
	inLen     int     // product of inShape
	threshold float64 // density below which decoded layers stay CSR; <= 0 disables
	pool      sync.Pool
	flatPool  sync.Pool // per-request input flatten buffers (*[]float32)

	// thresholds, when non-nil, overrides threshold per layer (index into
	// model.Layers) with the autotuned dense-vs-CSR crossover measured for
	// that layer's shape on this machine. Set once before traffic.
	thresholds []float64
	autotuned  bool

	// obs[i] is what the last decode of model.Layers[i] observed (density,
	// resident format/bytes); nil until the layer is first decoded.
	obs []atomic.Pointer[layerObs]

	// Telemetry hooks, attached by Registry.Add. All are nil-safe no-ops
	// on a bare NewEngine, so tests and benchmarks that build engines
	// directly pay only nil checks.
	stageHist  [telemetry.NumStages]*telemetry.Histogram
	codecBytes map[codec.ID]*telemetry.Counter // decoded dense bytes per codec

	requests atomic.Uint64 // predict calls
	rows     atomic.Uint64 // examples served
	batches  atomic.Uint64 // forward passes run

	// verifyRelease: after each layer's kernel consumes a cached buffer
	// (and before its pin drops), the cache entry is re-checksummed; a
	// mismatch fails the whole forward pass instead of serving output
	// computed from flipped bits. Set before traffic (SetVerifyRelease).
	verifyRelease bool

	// Integrity counters: checks that passed/failed, and failures split by
	// where the corruption was detected (see core.CorruptKind).
	integOK, integFail                        atomic.Uint64
	corruptBlob, corruptDecoded, corruptCache atomic.Uint64

	maxPending int          // admitted-predict cap; 0 = unlimited
	pendingNow atomic.Int64 // predicts admitted and not yet finished
	shed       atomic.Uint64

	batcher *batcher

	// estCost[i] is model.Layers[i].EstimatedDecodeCostNs(), precomputed so
	// the prefetcher can rank its candidate window without touching blobs.
	estCost  []int64
	prefetch *prefetcher // nil until StartPrefetch; nil = decode-ahead off
}

// layerObs is a point-in-time observation of one layer's decoded form.
type layerObs struct {
	density  float64
	sparse   bool
	resident int64
}

// NewEngine builds an engine for model, using skeleton for the network
// topology and conv-prefix weights. The skeleton is cloned and stripped;
// the caller's copy is not retained or modified. inputShape is the
// per-example input shape the network expects. sparseThreshold is the
// decoded density below which layers are cached in CSR form
// (DefaultSparseThreshold is the tuned default; <= 0 keeps every layer
// dense).
func NewEngine(name string, model *core.Model, skeleton *nn.Network, inputShape []int, cache *DecodeCache, opt BatchOptions, sparseThreshold float64) (*Engine, error) {
	// Bad model files must fail here, at load time, not as panics inside a
	// request's forward pass: every stored layer has to match a weighted
	// layer's kind and shape, and every layer of a kind the model carries
	// has to be covered (those layers are weight-stripped from serving
	// clones, so there is no fallback).
	kinds := map[nn.LayerKind]bool{}
	for i := range model.Layers {
		l := &model.Layers[i]
		cl := skeleton.CompressibleByName(l.Name)
		if cl == nil {
			return nil, fmt.Errorf("serve: model %s has layer %q absent from network %s", name, l.Name, skeleton.Name())
		}
		if cl.Kind() != l.Kind {
			return nil, fmt.Errorf("serve: model %s layer %s is %s, network %s has %s",
				name, l.Name, l.Kind, skeleton.Name(), cl.Kind())
		}
		if !shapeEqual(l.Shape, cl.WeightShape()) {
			return nil, fmt.Errorf("serve: model %s layer %s has shape %v, network %s wants %v",
				name, l.Name, l.Shape, skeleton.Name(), cl.WeightShape())
		}
		// A forged bias count would otherwise pass the container checks and
		// panic inside ForwardWith — in the micro-batcher's goroutine, where
		// no per-request recover shields the process. Zero biases are fine
		// (the provider hands ForwardWith nil, meaning zero bias).
		if want := len(cl.BiasParam().W.Data); len(l.Bias) != 0 && len(l.Bias) != want {
			return nil, fmt.Errorf("serve: model %s layer %s has %d biases, network %s wants %d",
				name, l.Name, len(l.Bias), skeleton.Name(), want)
		}
		kinds[l.Kind] = true
	}
	for _, cl := range skeleton.CompressibleLayers() {
		if kinds[cl.Kind()] && model.Layer(cl.Name()) == nil {
			return nil, fmt.Errorf("serve: model %s does not cover %s layer %s of network %s",
				name, cl.Kind(), cl.Name(), skeleton.Name())
		}
	}
	inLen := 1
	for _, d := range inputShape {
		inLen *= d
	}
	if inLen <= 0 {
		return nil, fmt.Errorf("serve: model %s: bad input shape %v", name, inputShape)
	}
	template := skeleton.Clone()
	nn.StripWeights(template, func(layer string) bool { return model.Layer(layer) != nil })
	e := &Engine{
		name:       name,
		model:      model,
		cache:      cache,
		inShape:    append([]int(nil), inputShape...),
		inLen:      inLen,
		threshold:  sparseThreshold,
		maxPending: opt.MaxPending,
		obs:        make([]atomic.Pointer[layerObs], len(model.Layers)),
	}
	e.pool.New = func() any { return template.Clone() }
	e.batcher = newBatcher(e, opt)
	return e, nil
}

// Name returns the registered model name.
func (e *Engine) Name() string { return e.name }

// Model returns the compressed model being served.
func (e *Engine) Model() *core.Model { return e.model }

// Codec returns the name(s) of the lossy codec(s) the served model's data
// arrays were compressed with — one name for a normally generated model,
// comma-joined in layer order for mixed-codec files.
func (e *Engine) Codec() string {
	ids := e.model.Codecs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = codec.NameOf(id)
	}
	return strings.Join(names, ",")
}

// InputLen returns the flattened per-example input length.
func (e *Engine) InputLen() int { return e.inLen }

// attachTelemetry wires the engine's per-stage histograms and per-codec
// decode-byte counters. Called by Registry.Add before the engine sees
// traffic; tel may be nil (everything stays a no-op).
func (e *Engine) attachTelemetry(tel *telemetry.Registry, stages [telemetry.NumStages]*telemetry.Histogram) {
	if tel == nil {
		return
	}
	e.stageHist = stages
	e.codecBytes = map[codec.ID]*telemetry.Counter{}
	for _, id := range e.model.Codecs() {
		e.codecBytes[id] = tel.Counter("deepsz_decoded_bytes_total",
			"Dense bytes materialised by layer decodes, by codec.",
			telemetry.Label{Name: "codec", Value: codec.NameOf(id)})
	}
}

// StartPrefetch turns on decode-ahead at the given depth: while layer k
// of the model's storage order computes, a worker decodes layers
// k+1..k+depth into the cache. depth <= 0 leaves prefetch off. Call once,
// before traffic; outputs are bit-identical at any depth (the worker only
// warms the cache).
func (e *Engine) StartPrefetch(depth int) {
	if depth <= 0 || e.prefetch != nil {
		return
	}
	e.estCost = make([]int64, len(e.model.Layers))
	for i := range e.model.Layers {
		e.estCost[i] = e.model.Layers[i].EstimatedDecodeCostNs()
	}
	e.prefetch = newPrefetcher(e, depth)
}

// PrefetchDepth returns the decode-ahead depth (0 = off).
func (e *Engine) PrefetchDepth() int {
	if e.prefetch == nil {
		return 0
	}
	return e.prefetch.depth
}

// cacheKey names model.Layers[idx] in the shared decode cache.
func (e *Engine) cacheKey(idx int) string {
	return e.name + "/" + e.model.Layers[idx].Name
}

// setLayerThresholds installs per-layer autotuned sparse thresholds
// (len(ts) must equal the model's layer count). Call before traffic, like
// StartPrefetch: decodeForCache reads the slice without synchronisation.
func (e *Engine) setLayerThresholds(ts []float64) {
	if len(ts) != len(e.model.Layers) {
		panic(fmt.Sprintf("serve: %s: %d thresholds for %d layers", e.name, len(ts), len(e.model.Layers)))
	}
	e.thresholds = ts
	e.autotuned = true
}

// thresholdFor returns the sparse threshold for model.Layers[idx]: the
// autotuned per-shape crossover when installed, the uniform engine
// threshold otherwise.
func (e *Engine) thresholdFor(idx int) float64 {
	if e.thresholds != nil {
		return e.thresholds[idx]
	}
	return e.threshold
}

// Autotuned reports whether per-layer autotuned thresholds are installed.
func (e *Engine) Autotuned() bool { return e.autotuned }

// SetVerifyRelease turns release-time re-verification on: every cached
// layer a kernel consumed is re-checksummed before its pin drops, and a
// mismatch fails the forward pass with a cache-kind core.CorruptError.
// Requires the shared cache to have integrity tracking on. Call before
// traffic, like StartPrefetch.
func (e *Engine) SetVerifyRelease(on bool) { e.verifyRelease = on }

// decodeForCache builds the decode thunk for model.Layers[idx] that the
// cache runs on a miss (demand or prefetch): decode straight into the
// resident form — CSR below the sparse threshold, dense otherwise —
// record the density observation, and report the resident byte cost the
// budget is charged.
func (e *Engine) decodeForCache(idx int) func() (*core.DecodedLayer, int64, error) {
	return func() (*core.DecodedLayer, int64, error) {
		dl, err := e.model.DecodeLayer(e.model.Layers[idx].Name, e.thresholdFor(idx))
		if err != nil {
			var ce *core.CorruptError
			if errors.As(err, &ce) {
				e.integFail.Add(1)
				if ce.Kind == core.CorruptDecoded {
					e.corruptDecoded.Add(1)
				} else {
					e.corruptBlob.Add(1)
				}
			}
			return nil, 0, err
		}
		if e.model.Layers[idx].Checksummed {
			// DecodeLayer verified the blob CRCs (and the decoded checksum
			// when present) on the way here.
			e.integOK.Add(1)
		}
		e.obs[idx].Store(&layerObs{density: dl.Density, sparse: dl.Sparse != nil, resident: dl.ResidentBytes()})
		e.codecBytes[e.model.Layers[idx].Codec].Add(uint64(e.model.Layers[idx].DenseBytes()))
		return dl, dl.ResidentBytes(), nil
	}
}

// LayerWeights implements nn.WeightProvider over the decode cache. A
// layer below the sparse threshold is decoded to CSR, so it is charged to
// the budget (and handed to the kernels) in its cheap form. The returned
// release drops the entry's eviction pin; ForwardWithProvider calls it
// when the layer's kernel finishes, so prefetch of layer k+1 can never
// displace layer k mid-forward.
func (e *Engine) LayerWeights(layer string) (nn.LayerWeights, func(), error) {
	lw, rel, _, _, err := e.layerWeightsTimed(layer, nil)
	return lw, rel, err
}

// layerWeightsTimed is LayerWeights plus the nanoseconds this call spent
// actually decoding (zero on a cache hit, or when another caller's
// in-flight decode was joined — that wait is lookup time, not decode
// time, because the decode cost is charged to the request that ran it).
// Before looking layer k up it announces k to the prefetcher, so the
// decode of k+1 overlaps with k's kernel.
//
// When verify-on-release is on and corrupt is non-nil, the release handed
// back re-checksums the cache entry after the kernel consumed it (while
// the pin still guarantees it is the same buffer) and records the first
// failing layer in *corrupt — the caller must then discard the pass's
// output.
func (e *Engine) layerWeightsTimed(layer string, corrupt *string) (nn.LayerWeights, func(), int64, string, error) {
	idx, ok := e.model.LayerIndex(layer)
	if !ok {
		return nn.LayerWeights{}, nil, 0, "", nn.ErrNotProvided
	}
	e.prefetch.advance(idx)
	inner := e.decodeForCache(idx)
	var decodeNs int64
	key := e.cacheKey(idx)
	dl, release, outcome, err := e.cache.getPinnedOutcome(key, func() (*core.DecodedLayer, int64, error) {
		t0 := time.Now()
		dl, cost, err := inner()
		decodeNs = time.Since(t0).Nanoseconds()
		return dl, cost, err
	})
	if err != nil {
		return nn.LayerWeights{}, nil, decodeNs, outcome, err
	}
	if e.verifyRelease && corrupt != nil {
		inner := release
		layerName := e.model.Layers[idx].Name
		release = func() {
			if !e.cache.CheckEntry(key) {
				e.integFail.Add(1)
				e.corruptCache.Add(1)
				if *corrupt == "" {
					*corrupt = layerName
				}
			} else {
				e.integOK.Add(1)
			}
			inner()
		}
	}
	return nn.LayerWeights{Dense: dl.Weights, Sparse: dl.Sparse, Bias: dl.Bias}, release, decodeNs, outcome, nil
}

// layerEventMeta looks up the span attributes for a layer after its fetch
// landed: codec from the manifest, density and resident format from the
// per-layer observation the decode recorded (obs is always populated by
// the time a fetch returns — the decode path stores it before handing the
// layer back, and a hit implies an earlier decode did).
func (e *Engine) layerEventMeta(layer string) (codecName, format string, density float64) {
	idx, ok := e.model.LayerIndex(layer)
	if !ok {
		return "", "", 0
	}
	codecName = codec.NameOf(e.model.Layers[idx].Codec)
	if o := e.obs[idx].Load(); o != nil {
		density = o.density
		if o.sparse {
			format = "csr"
		} else {
			format = "dense"
		}
	}
	return codecName, format, density
}

// timedProvider wraps the engine's weight provider for one forward pass,
// splitting provider time into cache lookup (hits, bookkeeping, waiting
// on coalesced decodes) and decode proper. One batch runs in one
// goroutine, so plain fields suffice — including corruptLayer, which the
// release funcs write from the same goroutine (ForwardWithProvider calls
// release after each layer's kernel, on the forward path), and events,
// which only this goroutine appends.
type timedProvider struct {
	e                  *Engine
	lookupNs, decodeNs int64
	corruptLayer       string // first layer whose release-check failed
	record             bool   // collect per-layer events for span tracing
	events             []telemetry.LayerEvent
}

func (p *timedProvider) LayerWeights(layer string) (nn.LayerWeights, func(), error) {
	t0 := time.Now()
	lw, rel, decodeNs, outcome, err := p.e.layerWeightsTimed(layer, &p.corruptLayer)
	p.decodeNs += decodeNs
	p.lookupNs += time.Since(t0).Nanoseconds() - decodeNs
	if p.record && err == nil {
		codecName, format, density := p.e.layerEventMeta(layer)
		p.events = append(p.events, telemetry.LayerEvent{
			Layer: layer, Codec: codecName, Outcome: outcome, Format: format, Density: density,
			Start: t0, Dur: time.Since(t0),
			// DecodeDur is the same nanoseconds charged to StageDecode, so a
			// trace's decode.<layer> spans sum exactly to its decode stage.
			DecodeDur: time.Duration(decodeNs),
		})
	}
	return lw, rel, err
}

// forwardWith runs one inference pass over a [N, inShape...] batch with
// the given weight provider.
func (e *Engine) forwardWith(x *tensor.Tensor, p nn.WeightProvider) (*tensor.Tensor, error) {
	net := e.pool.Get().(*nn.Network)
	defer e.pool.Put(net)
	e.batches.Add(1)
	return net.ForwardWithProvider(x, p)
}

// fwdStages is one forward pass's stage split. For a micro-batched pass
// these costs are shared by every rider: each request's trace is charged
// the full amount (the latency it actually experienced), while the stage
// histograms observe the pass once so per-stage totals stay physical.
type fwdStages struct {
	lookup, decode, kernel time.Duration
}

// addTo charges the forward stages to a trace (nil-safe).
func (st fwdStages) addTo(tr *telemetry.Trace) {
	tr.Add(telemetry.StageCacheLookup, st.lookup)
	tr.Add(telemetry.StageDecode, st.decode)
	tr.Add(telemetry.StageKernel, st.kernel)
}

// observe records the pass in the engine's per-stage histograms.
// exemplarID, when non-empty, is a sampled rider's trace ID: it lands as
// the bucket exemplar so a dashboard's slow-decode bucket links to a
// retrievable trace; empty, ObserveExemplar is a plain Observe.
func (st fwdStages) observe(e *Engine, exemplarID string) {
	e.stageHist[telemetry.StageCacheLookup].ObserveExemplar(st.lookup.Seconds(), exemplarID)
	e.stageHist[telemetry.StageDecode].ObserveExemplar(st.decode.Seconds(), exemplarID)
	e.stageHist[telemetry.StageKernel].ObserveExemplar(st.kernel.Seconds(), exemplarID)
}

// admit charges one predict against the engine's admission bound and
// returns the release func, or fails with ErrOverloaded when the engine
// is already at MaxPending admitted calls.
func (e *Engine) admit() (func(), error) {
	d := e.pendingNow.Add(1)
	if e.maxPending > 0 && d > int64(e.maxPending) {
		e.pendingNow.Add(-1)
		e.shed.Add(1)
		return nil, fmt.Errorf("%w: %s: %d predicts pending (max %d)", ErrOverloaded, e.name, d-1, e.maxPending)
	}
	return func() { e.pendingNow.Add(-1) }, nil
}

// Predict runs rows (flattened examples) through the model immediately,
// without micro-batching, and returns one logits row per input. Safe for
// concurrent use.
func (e *Engine) Predict(rows [][]float32) ([][]float32, error) {
	return e.PredictTraced(rows, nil)
}

// PredictTraced is Predict with a per-request trace: the forward pass's
// cache-lookup/decode/kernel split is charged to tr (which may be nil).
func (e *Engine) PredictTraced(rows [][]float32, tr *telemetry.Trace) ([][]float32, error) {
	if err := e.checkRows(rows); err != nil {
		return nil, err
	}
	release, err := e.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	e.requests.Add(1)
	e.rows.Add(uint64(len(rows)))
	exemplarID := ""
	if tr.Recording() {
		exemplarID = tr.ID
	}
	out, st, evs, err := e.run(rows, tr.Recording(), exemplarID)
	st.addTo(tr)
	tr.AddLayerEvents(evs)
	return out, err
}

// PredictBatched is Predict through the micro-batcher: callers that queue
// while the previous forward runs share the next one.
func (e *Engine) PredictBatched(rows [][]float32) ([][]float32, error) {
	return e.PredictBatchedTraced(rows, nil)
}

// PredictBatchedTraced is PredictBatched with a per-request trace: queue
// and batch-wait time are charged per request, and the shared forward
// pass's stage split is charged in full to every batch rider (it is the
// latency each of them experienced). tr may be nil.
func (e *Engine) PredictBatchedTraced(rows [][]float32, tr *telemetry.Trace) ([][]float32, error) {
	if err := e.checkRows(rows); err != nil {
		return nil, err
	}
	release, err := e.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	e.requests.Add(1)
	e.rows.Add(uint64(len(rows)))
	return e.batcher.submit(rows, tr)
}

func (e *Engine) checkRows(rows [][]float32) error {
	if len(rows) == 0 {
		return fmt.Errorf("%w: %s: inputs must be a non-empty array of rows", ErrBadInput, e.name)
	}
	for i, r := range rows {
		if len(r) != e.inLen {
			return fmt.Errorf("%w: %s: input %d has %d values, want %d", ErrBadInput, e.name, i, len(r), e.inLen)
		}
	}
	return nil
}

// run executes rows as a single forward pass and splits the logits. The
// input flatten buffer is pooled across requests: no layer retains the
// input tensor in inference mode, so once the forward returns the buffer
// is dead — unless the network's trailing layers were all views
// (Flatten's Reshape, inference-mode pass-throughs), in which case the
// returned logits still alias it and it must be dropped instead of
// recycled.
func (e *Engine) run(rows [][]float32, record bool, exemplarID string) ([][]float32, fwdStages, []telemetry.LayerEvent, error) {
	n := len(rows)
	need := n * e.inLen
	flatPtr, _ := e.flatPool.Get().(*[]float32)
	if flatPtr == nil || cap(*flatPtr) < need {
		s := make([]float32, 0, need)
		flatPtr = &s
	}
	flat := (*flatPtr)[:0]
	for _, r := range rows {
		flat = append(flat, r...)
	}
	x := tensor.FromSlice(flat, append([]int{n}, e.inShape...)...)
	p := timedProvider{e: e, record: record}
	t0 := time.Now()
	y, err := e.forwardWith(x, &p)
	st := fwdStages{
		lookup: time.Duration(p.lookupNs),
		decode: time.Duration(p.decodeNs),
		kernel: time.Since(t0) - time.Duration(p.lookupNs+p.decodeNs),
	}
	if st.kernel < 0 {
		st.kernel = 0 // clock skew between nested time.Now pairs
	}
	st.observe(e, exemplarID)
	if y == nil || len(y.Data) == 0 || &y.Data[0] != &flat[0] {
		// View layers share storage from element 0, so a first-element
		// address match is exactly "y aliases the pooled buffer".
		*flatPtr = flat
		e.flatPool.Put(flatPtr)
	}
	if err != nil {
		return nil, st, p.events, err
	}
	if p.corruptLayer != "" {
		// A cached buffer failed its post-kernel re-check: the logits were
		// (possibly) computed from flipped bits. The entry is already
		// ejected, so a retry decodes fresh; this pass's output must die.
		for i := range p.events {
			if p.events[i].Layer == p.corruptLayer {
				p.events[i].Outcome = OutcomeCorruptEject
			}
		}
		return nil, st, p.events, &core.CorruptError{Layer: p.corruptLayer, Kind: core.CorruptCache,
			Detail: "cached weights failed release-time re-verification"}
	}
	classes := y.Len() / n
	out := make([][]float32, n)
	for i := range out {
		out[i] = y.Data[i*classes : (i+1)*classes : (i+1)*classes]
	}
	return out, st, p.events, nil
}

// EngineStats is a snapshot of one model's serving counters. QueueDepth
// is the load gauge a routing tier reads: predicts admitted and not yet
// finished (queued in the batcher plus running), bounded by MaxPending
// when that is non-zero; Shed counts the calls the bound rejected.
type EngineStats struct {
	Codec           string      `json:"codec"`
	SparseThreshold float64     `json:"sparse_threshold"`
	AutotuneSparse  bool        `json:"autotune_sparse"`
	VerifyRelease   bool        `json:"verify_release,omitempty"`
	PrefetchDepth   int         `json:"prefetch_depth,omitempty"`
	Requests        uint64      `json:"requests"`
	Rows            uint64      `json:"rows"`
	Batches         uint64      `json:"batches"`
	AvgBatch        float64     `json:"avg_batch_rows"`
	QueueDepth      int64       `json:"queue_depth"`
	MaxPending      int         `json:"max_pending,omitempty"`
	Shed            uint64      `json:"shed"`
	Layers          []LayerMeta `json:"layers"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Codec:           e.Codec(),
		SparseThreshold: e.threshold,
		AutotuneSparse:  e.autotuned,
		VerifyRelease:   e.verifyRelease,
		PrefetchDepth:   e.PrefetchDepth(),
		Requests:        e.requests.Load(),
		Rows:            e.rows.Load(),
		Batches:         e.batches.Load(),
		QueueDepth:      e.pendingNow.Load(),
		MaxPending:      e.maxPending,
		Shed:            e.shed.Load(),
		Layers:          e.LayerMeta(),
	}
	if s.Batches > 0 {
		s.AvgBatch = float64(s.Rows) / float64(s.Batches)
	}
	return s
}

// LayerMeta describes one served layer: its kind (fc/conv), weight shape,
// the codec its data array was compressed with, and what the sparse fast
// path sees — the layer's density and the format/cost it takes when
// resident in the decode cache. Until a layer is first decoded, Density
// is the stream-header estimate (stored sparse entries over dense slots,
// an upper bound) and Format is empty; after a decode they report the
// exact density and the chosen representation ("csr" or "dense") with
// its resident byte cost.
type LayerMeta struct {
	Name          string  `json:"name"`
	Kind          string  `json:"kind"`
	Shape         []int   `json:"shape"`
	Codec         string  `json:"codec"`
	Density       float64 `json:"density"`
	Format        string  `json:"format,omitempty"`
	ResidentBytes int64   `json:"resident_bytes,omitempty"`
	DenseBytes    int64   `json:"dense_bytes"`
	// SparseThreshold is the density below which this layer is cached in
	// CSR form; Autotuned marks it as a measured per-shape crossover
	// rather than the engine's uniform setting.
	SparseThreshold float64 `json:"sparse_threshold"`
	Autotuned       bool    `json:"autotuned,omitempty"`
}

// LayerMeta lists the served model's layers in storage order.
func (e *Engine) LayerMeta() []LayerMeta {
	out := make([]LayerMeta, len(e.model.Layers))
	for i := range e.model.Layers {
		l := &e.model.Layers[i]
		out[i] = LayerMeta{
			Name:            l.Name,
			Kind:            l.Kind.String(),
			Shape:           append([]int(nil), l.Shape...),
			Codec:           codec.NameOf(l.Codec),
			Density:         l.EstimatedDensity(),
			DenseBytes:      l.DenseBytes(),
			SparseThreshold: e.thresholdFor(i),
			Autotuned:       e.autotuned,
		}
		if o := e.obs[i].Load(); o != nil {
			out[i].Density = o.density
			out[i].ResidentBytes = o.resident
			if o.sparse {
				out[i].Format = "csr"
			} else {
				out[i].Format = "dense"
			}
		}
	}
	return out
}

// Close stops the micro-batcher and the prefetch worker. Predict keeps
// working; PredictBatched returns an error after Close.
func (e *Engine) Close() {
	e.batcher.close()
	e.prefetch.stop()
}

func shapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
