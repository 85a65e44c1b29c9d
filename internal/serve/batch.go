package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// ErrClosed is returned by PredictBatched after the engine is closed.
var ErrClosed = errors.New("serve: engine closed")

// BatchOptions tunes the micro-batcher and the per-engine admission
// bound.
type BatchOptions struct {
	// MaxBatch is the row count at which a batch stops taking queued
	// requests (default 32).
	MaxBatch int
	// MaxPending caps the predict calls admitted per engine at once
	// (queued in the batcher plus running). A call over the cap fails
	// immediately with ErrOverloaded — shedding with a clear signal the
	// moment the engine saturates, instead of queueing unboundedly until
	// every client times out anyway. 0 means unlimited.
	MaxPending int
}

// batcher folds concurrent predict calls into shared forward passes and is
// work-conserving: it never waits for company. One batch is in flight at a
// time per engine; calls that arrive while a forward runs queue up, and the
// next batch is whatever queued meanwhile, oldest first, up to MaxBatch
// rows. Batch size so follows load by itself: an idle engine serves a lone
// call at kernel latency, a saturated one fills every batch.
type batcher struct {
	engine *Engine
	opt    BatchOptions
	done   chan struct{} // closed when loop has returned

	mu     sync.Mutex
	wake   sync.Cond  // on mu: a request was queued, or closed was set
	queue  []batchReq // submitted and not yet taken, in submission order
	closed bool
}

type batchReq struct {
	rows     [][]float32
	resp     chan batchResp
	tr       *telemetry.Trace // may be nil
	submitAt time.Time        // when the caller entered submit
}

type batchResp struct {
	out [][]float32
	err error
}

func newBatcher(e *Engine, opt BatchOptions) *batcher {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 32
	}
	b := &batcher{engine: e, opt: opt, done: make(chan struct{})}
	b.wake.L = &b.mu
	go b.loop()
	return b
}

func (b *batcher) submit(rows [][]float32, tr *telemetry.Trace) ([][]float32, error) {
	resp := make(chan batchResp, 1)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.queue = append(b.queue, batchReq{rows: rows, resp: resp, tr: tr, submitAt: time.Now()})
	b.mu.Unlock()
	b.wake.Signal()
	r := <-resp
	return r.out, r.err
}

// close stops the loop after the batch in flight, fails every call still
// queued with ErrClosed, and returns once the loop goroutine is gone.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wake.Signal()
	<-b.done
}

func (b *batcher) loop() {
	defer close(b.done)
	for batch := b.take(); batch != nil; batch = b.take() {
		b.flush(batch)
	}
}

// take blocks until a call is queued, then takes the next batch off the
// head of the queue — the oldest call whole, then further ones while the
// batch is under MaxBatch rows — never waiting for a call that has not
// arrived. Once closed it fails whatever is queued (resp is buffered: the
// sends cannot block under the lock) and returns nil.
func (b *batcher) take() []batchReq {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 && !b.closed {
		b.wake.Wait()
	}
	if b.closed {
		for _, req := range b.queue {
			req.resp <- batchResp{err: ErrClosed}
		}
		b.queue = nil
		return nil
	}
	n := 0
	for rows := 0; n < len(b.queue) && rows < b.opt.MaxBatch; n++ {
		rows += len(b.queue[n].rows)
	}
	batch := b.queue[:n:n]
	if b.queue = b.queue[n:]; len(b.queue) == 0 {
		b.queue = nil // let the drained array die with its batch
	}
	return batch
}

// flush runs one forward pass over every request in the batch and splits
// the result rows back out in submission order. A panic in the forward
// pass fails the batch instead of killing the batcher goroutine (and with
// it the whole daemon — unlike HTTP handler goroutines, nothing above us
// recovers). Each request's queue time (submit → here: it waited behind
// the previous forward) and the shared forward stage split are charged to
// its trace before its response is released, so callers never race the
// instrumentation. Nothing waits for company, so batch_wait is always zero;
// the stage stays so dashboards and parsers keep their column.
func (b *batcher) flush(batch []batchReq) {
	flushAt := time.Now()
	e := b.engine
	rows := make([][]float32, 0, len(batch))
	// One sampled rider is enough to record the shared pass's layer events
	// (every sampled rider gets a copy — the pass IS their latency); the
	// first one's trace ID becomes the stage histograms' exemplar.
	record := false
	exemplarID := ""
	for i := range batch {
		req := &batch[i]
		rows = append(rows, req.rows...)
		queued := flushAt.Sub(req.submitAt)
		req.tr.Add(telemetry.StageQueue, queued)
		e.stageHist[telemetry.StageBatchWait].Observe(0)
		if req.tr.Recording() {
			record = true
			if exemplarID == "" {
				exemplarID = req.tr.ID
			}
			e.stageHist[telemetry.StageQueue].ObserveExemplar(queued.Seconds(), req.tr.ID)
		} else {
			e.stageHist[telemetry.StageQueue].Observe(queued.Seconds())
		}
	}
	out, st, evs, err := func() (out [][]float32, st fwdStages, evs []telemetry.LayerEvent, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: forward pass panicked: %v", r)
			}
		}()
		return e.run(rows, record, exemplarID)
	}()
	off := 0
	for i := range batch {
		req := &batch[i]
		st.addTo(req.tr)
		req.tr.AddLayerEvents(evs)
		if err != nil {
			req.resp <- batchResp{err: err}
			continue
		}
		req.resp <- batchResp{out: out[off : off+len(req.rows)]}
		off += len(req.rows)
	}
}
