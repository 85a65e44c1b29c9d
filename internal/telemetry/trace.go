package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace ID between tiers: the gateway
// mints an ID per client request, stamps it on every backend attempt
// (hedges included, so one client request is one trace fleet-wide), and
// the replica echoes it back and threads it through its slow-request log.
const TraceHeader = "X-Deepsz-Trace"

// Stage is one segment of a predict request's life. The stages partition
// where time goes on the serving path — which is exactly the evidence the
// roadmap's next levers need: decode-ahead pipelining wants StageDecode
// vs StageKernel, cost-aware eviction wants StageDecode per layer, batch
// tuning wants StageQueue vs StageBatchWait.
type Stage int

const (
	// StageQueue is admission queueing: from the moment a predict is
	// admitted until its batch's forward starts — the wait behind the
	// previous batch's forward pass, ~zero on an idle engine.
	StageQueue Stage = iota
	// StageBatchWait was residency in the batch window. The batcher never
	// waits for company, so it is always 0; the stage stays so headers,
	// histograms and parsers keep their column.
	StageBatchWait
	// StageCacheLookup is time inside decode-cache lookups that is not
	// decoding: hit bookkeeping, and waiting on another caller's
	// in-flight decode (the coalesced path).
	StageCacheLookup
	// StageDecode is time spent actually decompressing layers on cache
	// misses — the cost the paper trades against resident bytes.
	StageDecode
	// StageKernel is the forward pass proper: matmuls/convolutions with
	// weights already in hand.
	StageKernel
	// StageEncode is response serialisation back to JSON.
	StageEncode

	// NumStages is the number of trace stages.
	NumStages = int(iota)
)

var stageNames = [NumStages]string{
	"queue", "batch_wait", "cache_lookup", "decode", "kernel", "encode",
}

// String returns the stage's exposition label value.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Stages lists every stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, NumStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// MintID returns a fresh 16-hex-char trace ID.
func MintID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// Trace accumulates one request's per-stage wall time. Adds are atomic
// because a batched request's decode/kernel time is charged by the
// batcher goroutine while the request goroutine owns the trace. A nil
// *Trace is a valid no-op, so untraced calls pay only a nil check.
type Trace struct {
	ID string
	ns [NumStages]atomic.Int64

	// recording turns per-layer event collection on for this request (set
	// once at creation, before the trace is shared — the sampling
	// decision). When false, the only cost the span machinery adds to the
	// hot path is this bool's check.
	recording bool

	mu     sync.Mutex
	events []LayerEvent
}

// NewTrace creates a trace with the given ID, minting one if empty.
func NewTrace(id string) *Trace {
	if id == "" {
		id = MintID()
	}
	return &Trace{ID: id}
}

// SetRecording marks the trace as span-recording. Call once at creation,
// before the trace is handed to other goroutines.
func (t *Trace) SetRecording(on bool) {
	if t != nil {
		t.recording = on
	}
}

// Recording reports whether per-layer events are being collected (false
// for a nil trace).
func (t *Trace) Recording() bool { return t != nil && t.recording }

// AddLayerEvents appends per-layer observations from a forward pass.
// No-op unless the trace is recording. Safe for concurrent use (the
// batcher goroutine writes while the request goroutine owns the trace).
func (t *Trace) AddLayerEvents(evs []LayerEvent) {
	if t == nil || !t.recording || len(evs) == 0 {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, evs...)
	t.mu.Unlock()
}

// LayerEvents snapshots the collected per-layer events.
func (t *Trace) LayerEvents() []LayerEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]LayerEvent(nil), t.events...)
}

// Add charges d to stage s.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || s < 0 || int(s) >= NumStages {
		return
	}
	t.ns[s].Add(d.Nanoseconds())
}

// Dur returns the time charged to stage s.
func (t *Trace) Dur(s Stage) time.Duration {
	if t == nil || s < 0 || int(s) >= NumStages {
		return 0
	}
	return time.Duration(t.ns[s].Load())
}

// Breakdown is the JSON shape of a trace in a predict response and in
// the slow-request log.
type Breakdown struct {
	ID string `json:"id"`
	// StagesNs maps stage name to nanoseconds. Stages a request never
	// touched report 0, so the schema is stable across paths (a
	// non-batched predict has queue=0 and batch_wait=0).
	StagesNs map[string]int64 `json:"stages_ns"`
	TotalNs  int64            `json:"total_ns,omitempty"`
}

// Breakdown snapshots the trace; total is the request's end-to-end wall
// time (0 omits the field). Returns nil for a nil trace.
func (t *Trace) Breakdown(total time.Duration) *Breakdown {
	if t == nil {
		return nil
	}
	b := &Breakdown{ID: t.ID, StagesNs: make(map[string]int64, NumStages), TotalNs: total.Nanoseconds()}
	for _, s := range Stages() {
		b.StagesNs[s.String()] = t.ns[s].Load()
	}
	return b
}
