package serve

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The batcher tests never sleep and never assert on wall-clock time. They
// hold a forward pass on a gate, watch callers arrive through the
// batcher's own queue, and release: every batch shape below is the only
// one the code can produce, at any -count and under -race.

// await spins (yielding, not sleeping) until cond holds. The deadline only
// turns a hang into a failure.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// holdForward parks e's next forward pass at its first weight fetch and
// returns the release. It claims the decode flight of the model's first
// layer in the (cold) cache, so the forward's demand get joins that flight
// and sleeps on it; release aborts the flight, which sends the get back
// through the ordinary miss path. The serving code runs unmodified.
func holdForward(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	_, abort := e.cache.BeginPrefetch(e.cacheKey(0), nil)
	if abort == nil {
		t.Fatal("holdForward needs a cold cache")
	}
	return abort
}

// awaitHeld waits until a forward pass is parked on holdForward's flight.
func awaitHeld(t *testing.T, e *Engine) {
	t.Helper()
	await(t, "the forward pass to reach the gate", func() bool { return e.cache.Stats().Coalesced == 1 })
}

// queued is how many calls sit in e's batcher, submitted and not yet taken.
func queued(e *Engine) int {
	b := e.batcher
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// call is one PredictBatched caller with a recording trace: the shared
// pass's layer events are copied to every rider, so the first event's
// start time names the batch a call rode in.
type call struct {
	rows [][]float32
	tr   *telemetry.Trace
	out  [][]float32
	err  error
}

func startCall(wg *sync.WaitGroup, e *Engine, rows [][]float32) *call {
	c := &call{rows: rows, tr: telemetry.NewTrace("")}
	c.tr.SetRecording(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.out, c.err = e.PredictBatchedTraced(c.rows, c.tr)
	}()
	return c
}

func (c *call) batch(t *testing.T) time.Time {
	t.Helper()
	evs := c.tr.LayerEvents()
	if len(evs) == 0 {
		t.Fatal("call rode no forward pass")
	}
	return evs[0].Start
}

func sameRows(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func batcherEngine(t *testing.T, seed uint64, opt BatchOptions) *Engine {
	t.Helper()
	net, m := servedModel(t, seed)
	reg := NewRegistry(0, opt)
	t.Cleanup(reg.Close)
	e, err := reg.Add("mlp", m, net, []int{1, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBatcherLoneRequestFlushesAtOnce: with nothing else queued a call is
// its own batch — one forward, no waiting for company.
func TestBatcherLoneRequestFlushesAtOnce(t *testing.T) {
	e := batcherEngine(t, 41, BatchOptions{})
	rows := testRows(3, 42)
	got, err := e.PredictBatched(rows)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Requests != 1 || s.Batches != 1 || s.AvgBatch != 3 {
		t.Fatalf("lone request: %d requests in %d batches (avg %v rows), want 1 in 1 of 3", s.Requests, s.Batches, s.AvgBatch)
	}
	want, err := e.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got, want) {
		t.Fatal("batched output differs from Engine.Predict")
	}
}

// TestBatcherSplitsAtMaxBatchInSubmissionOrder: K one-row calls queued
// behind a held forward, K > MaxBatch, leave in batches of exactly MaxBatch
// (then the remainder), oldest first, and every rider gets the rows
// Engine.Predict computes for its input.
func TestBatcherSplitsAtMaxBatchInSubmissionOrder(t *testing.T) {
	const maxBatch, k = 4, 10
	e := batcherEngine(t, 43, BatchOptions{MaxBatch: maxBatch})
	rows := testRows(1+k, 44)

	release := holdForward(t, e)
	var wg sync.WaitGroup
	calls := []*call{startCall(&wg, e, rows[:1])}
	awaitHeld(t, e)
	for i := 1; i <= k; i++ {
		calls = append(calls, startCall(&wg, e, rows[i:i+1]))
		await(t, "the call to queue", func() bool { return queued(e) == i })
	}
	release()
	wg.Wait()

	// The held call rode alone; the k behind it split 4, 4, 2 in order.
	wantBatch := []int{0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3}
	var starts []time.Time
	for i, c := range calls {
		if c.err != nil {
			t.Fatalf("call %d: %v", i, c.err)
		}
		at := c.batch(t)
		if len(starts) == 0 || !at.Equal(starts[len(starts)-1]) {
			if len(starts) > 0 && !at.After(starts[len(starts)-1]) {
				t.Fatalf("call %d rode a batch that ran before call %d's: served out of submission order", i, i-1)
			}
			starts = append(starts, at)
		}
		if got := len(starts) - 1; got != wantBatch[i] {
			t.Fatalf("call %d rode batch %d, want %d (batches must split at %d rows)", i, got, wantBatch[i], maxBatch)
		}
		want, err := e.Predict(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(c.out, want) {
			t.Fatalf("call %d: batched rows differ from Engine.Predict", i)
		}
	}
	// 4 batched passes + the k+1 reference Predicts above.
	if s := e.Stats(); s.Batches != 4+1+k {
		t.Fatalf("%d forward passes, want %d", s.Batches, 4+1+k)
	}
}

// TestBatcherPanicFailsOnlyItsBatch: a forward pass that panics fails the
// calls riding it and nobody else — the calls queued behind it are served
// by the next pass.
func TestBatcherPanicFailsOnlyItsBatch(t *testing.T) {
	e := batcherEngine(t, 45, BatchOptions{})
	rows := testRows(4, 46)

	// The first forward finds the clone pool empty and asks it for a
	// network: hold it there, then blow it up.
	gate := make(chan struct{})
	entered := make(chan struct{})
	newNet := e.pool.New
	var armed atomic.Bool
	armed.Store(true)
	e.pool.New = func() any {
		if armed.CompareAndSwap(true, false) {
			close(entered)
			<-gate
			panic("boom")
		}
		return newNet()
	}

	var wg sync.WaitGroup
	calls := []*call{startCall(&wg, e, rows[:1])}
	<-entered
	for i := 1; i < len(rows); i++ {
		calls = append(calls, startCall(&wg, e, rows[i:i+1]))
	}
	await(t, "the riders to queue", func() bool { return queued(e) == len(rows)-1 })
	close(gate)
	wg.Wait()

	if err := calls[0].err; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("call on the panicking pass: err = %v, want the recovered panic", err)
	}
	for i, c := range calls[1:] {
		if c.err != nil {
			t.Fatalf("call %d, queued behind the panicking pass, failed with it: %v", i+1, c.err)
		}
		want, err := e.Predict(c.rows)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(c.out, want) {
			t.Fatalf("call %d: batched rows differ from Engine.Predict", i+1)
		}
	}
}

// TestBatcherCloseAnswersEveryCaller: Close with one pass in flight and
// calls queued behind it lets the pass finish, fails the queue with
// ErrClosed, refuses later calls, and takes the loop goroutine with it.
func TestBatcherCloseAnswersEveryCaller(t *testing.T) {
	e := batcherEngine(t, 47, BatchOptions{})
	rows := testRows(5, 48)

	release := holdForward(t, e)
	var wg sync.WaitGroup
	calls := []*call{startCall(&wg, e, rows[:1])}
	awaitHeld(t, e)
	for i := 1; i < len(rows); i++ {
		calls = append(calls, startCall(&wg, e, rows[i:i+1]))
	}
	await(t, "the calls to queue", func() bool { return queued(e) == len(rows)-1 })

	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	await(t, "Close to reach the batcher", func() bool {
		e.batcher.mu.Lock()
		defer e.batcher.mu.Unlock()
		return e.batcher.closed
	})
	release()
	wg.Wait() // every caller returned: none is left parked
	<-closed  // and Close returned: the loop goroutine is gone
	<-e.batcher.done

	if calls[0].err != nil {
		t.Fatalf("the pass in flight at Close failed: %v", calls[0].err)
	}
	for i, c := range calls[1:] {
		if !errors.Is(c.err, ErrClosed) {
			t.Fatalf("call %d, queued at Close: err = %v, want ErrClosed", i+1, c.err)
		}
	}
	if _, err := e.PredictBatched(rows[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict after Close: %v, want ErrClosed", err)
	}
	if s := e.Stats(); s.QueueDepth != 0 || s.Batches != 1 {
		t.Fatalf("after Close: queue depth %d, %d batches; want 0 and 1", s.QueueDepth, s.Batches)
	}
	e.Close() // idempotent
}
