package serve

import (
	"container/heap"
	"container/list"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// EvictionPolicy selects the DecodeCache's replacement algorithm.
type EvictionPolicy int

const (
	// EvictLRU evicts the least-recently-used entry — oblivious to what a
	// re-decode would cost, which is fine when every layer decodes in
	// about the same time.
	EvictLRU EvictionPolicy = iota
	// EvictGDSF evicts by GreedyDual-Size-Frequency priority: an entry's
	// value is its measured decode cost per resident byte, scaled by how
	// often it is demand-used and aged against a global floor that rises
	// with every eviction. Expensive-to-decode layers outlive cheap ones
	// of the same size; a layer that stops being used sinks below the
	// floor and goes first. Prefetched-but-unused entries carry zero
	// frequency, so speculation can never displace a demand-hot layer.
	EvictGDSF
)

// String returns the policy's CLI name.
func (p EvictionPolicy) String() string {
	if p == EvictGDSF {
		return "gdsf"
	}
	return "lru"
}

// ParseEvictionPolicy parses the -eviction-policy flag value.
func ParseEvictionPolicy(s string) (EvictionPolicy, error) {
	switch s {
	case "lru", "":
		return EvictLRU, nil
	case "gdsf":
		return EvictGDSF, nil
	}
	return EvictLRU, fmt.Errorf("unknown eviction policy %q (want lru or gdsf)", s)
}

// DecodeCache is a byte-budgeted cache over decoded layers, evicting by
// LRU or by a GDSF cost/size priority (see EvictionPolicy). Concurrent
// Gets for the same key are deduplicated singleflight-style: one goroutine
// decodes, the rest wait and share the result. Entries whose cost exceeds
// the whole budget are decoded but never inserted (counted as bypasses),
// so a tiny budget degrades to pure streaming instead of thrashing.
//
// Entries can be pinned (GetPinned) for the duration of a kernel: a pinned
// entry is never evicted, which is what lets a prefetch of layer k+1 run
// while layer k computes without any risk of the prefetch displacing the
// layer mid-forward.
//
// Cached *core.DecodedLayer values are shared between callers and must be
// treated as read-only.
type DecodeCache struct {
	mu       sync.Mutex
	policy   EvictionPolicy
	budget   int64 // bytes; <= 0 means unlimited
	bytes    int64
	ll       *list.List // front = most recently used (EvictLRU order)
	heap     prioHeap   // min-priority order (EvictGDSF)
	entries  map[string]*cacheEntry
	inflight map[string]*flight

	agingL float64 // GDSF aging floor: the priority of the last eviction
	seq    uint64  // insertion sequence; deterministic GDSF tie-break

	// bytes split by resident format: sparseBytes + denseBytes == bytes.
	sparseBytes, denseBytes int64

	hits, misses, evictions, coalesced, bypasses          uint64
	prefetches, prefetchHits, prefetchWaste, prefetchOver uint64
	admissionDrops                                        uint64
	decodeTime                                            time.Duration
	prefetchTime                                          time.Duration

	// verify: entries are checksummed at insert and re-verified by Scrub
	// and CheckEntry; a mismatch ejects the entry (see SetIntegrityTracking).
	verify        bool
	scrubs        uint64 // Scrub sweeps completed
	scrubChecks   uint64 // entries checksummed by sweeps
	scrubEjected  uint64 // mismatches found by sweeps
	releaseChecks uint64 // entries checksummed by CheckEntry
	corrupt       uint64 // entries ejected on checksum mismatch (all paths)
	scrubTime     time.Duration
}

type cacheEntry struct {
	key    string
	layer  *core.DecodedLayer
	cost   int64 // resident bytes, charged to the budget
	sparse bool  // layer resident in CSR form

	el      *list.Element // LRU position; nil under EvictGDSF
	heapIdx int           // heap position; -1 under EvictLRU

	decodeNs   int64   // measured decode wall time that produced the entry
	freq       uint64  // demand uses since insertion
	prio       float64 // GDSF priority at last touch
	seq        uint64  // insertion order; older evicts first on prio ties
	pins       int     // > 0: in use by a kernel, not evictable
	prefetched bool    // inserted speculatively, no demand use yet
	crc        uint32  // fill-time checksum of the resident layer (verify mode)
}

// weight is the GDSF cost term: decode nanoseconds per resident byte —
// how much re-decode stall one evicted byte of this entry would buy back.
func (e *cacheEntry) weight() float64 {
	ns := e.decodeNs
	if ns < 1 {
		ns = 1 // decodes under clock resolution still have nonzero value
	}
	return float64(ns) / float64(max(e.cost, 1))
}

// prioHeap is a min-heap over GDSF priority with the insertion sequence as
// the tie-break, so eviction order under equal priorities is deterministic
// (oldest first) at any concurrency.
type prioHeap []*cacheEntry

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h prioHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *prioHeap) Push(x any) {
	e := x.(*cacheEntry)
	e.heapIdx = len(*h)
	*h = append(*h, e)
}
func (h *prioHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	e.heapIdx = -1
	return e
}

// flight is one in-progress decode that later arrivals wait on.
type flight struct {
	done     chan struct{}
	layer    *core.DecodedLayer
	err      error
	prefetch bool // decode was started speculatively, not by a request
}

// NewDecodeCache creates an LRU cache holding at most budget bytes of
// decoded layers (budget <= 0 means unlimited).
func NewDecodeCache(budget int64) *DecodeCache {
	return NewDecodeCacheWith(budget, EvictLRU)
}

// NewDecodeCacheWith is NewDecodeCache with an explicit eviction policy.
func NewDecodeCacheWith(budget int64, policy EvictionPolicy) *DecodeCache {
	return &DecodeCache{
		policy:   policy,
		budget:   budget,
		ll:       list.New(),
		entries:  map[string]*cacheEntry{},
		inflight: map[string]*flight{},
	}
}

// SetPolicy switches the eviction policy. Only valid while the cache is
// empty (call it at configuration time, before traffic).
func (c *DecodeCache) SetPolicy(p EvictionPolicy) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 0 || len(c.inflight) > 0 {
		return fmt.Errorf("serve: cannot switch eviction policy on a non-empty cache")
	}
	c.policy = p
	return nil
}

// Policy returns the active eviction policy.
func (c *DecodeCache) Policy() EvictionPolicy {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.policy
}

// SetIntegrityTracking turns resident-entry checksumming on or off: every
// inserted layer is checksummed at fill time, and Scrub/CheckEntry compare
// against that value, ejecting mismatches. Like SetPolicy it is only valid
// while the cache is empty — a half-tracked cache would scrub garbage.
func (c *DecodeCache) SetIntegrityTracking(on bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 0 || len(c.inflight) > 0 {
		return fmt.Errorf("serve: cannot toggle integrity tracking on a non-empty cache")
	}
	c.verify = on
	return nil
}

// IntegrityTracking reports whether resident checksumming is on.
func (c *DecodeCache) IntegrityTracking() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verify
}

// CheckEntry re-verifies the entry under key against its fill-time
// checksum, ejecting it on mismatch. It returns false only for a resident
// entry that failed (a missing entry is vacuously fine). The checksum runs
// outside the cache lock; the entry is ejected only if it is still the
// same entry afterwards. Engines call this while the entry is pinned —
// after a kernel consumed the buffer, before unpinning — so a false return
// means the kernel may have read flipped bits and its output must not be
// served.
func (c *DecodeCache) CheckEntry(key string) bool {
	c.mu.Lock()
	if !c.verify {
		c.mu.Unlock()
		return true
	}
	ent, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return true
	}
	layer, want := ent.layer, ent.crc
	c.releaseChecks++
	c.mu.Unlock()

	if layer.Checksum() == want {
		return true
	}
	c.mu.Lock()
	if cur, ok := c.entries[key]; ok && cur == ent {
		c.removeLocked(cur)
		c.corrupt++
	}
	c.mu.Unlock()
	return false
}

// Scrub sweeps every resident entry, re-verifying it against its
// fill-time checksum and ejecting mismatches. Checksums run outside the
// cache lock (the sweep holds it only to snapshot and to eject), so
// serving continues during a scrub. Pinned entries are verified and — on
// mismatch — removed from the index like any other: pointer holders keep
// a valid detached entry, and the in-flight kernel read is covered by
// release-time CheckEntry, not by the sweep. Returns entries checked and
// ejected; (0, 0) when tracking is off.
func (c *DecodeCache) Scrub() (checked, ejected int) {
	t0 := time.Now()
	c.mu.Lock()
	if !c.verify {
		c.mu.Unlock()
		return 0, 0
	}
	type snap struct {
		ent   *cacheEntry
		layer *core.DecodedLayer
		want  uint32
	}
	snaps := make([]snap, 0, len(c.entries))
	for _, ent := range c.entries {
		snaps = append(snaps, snap{ent, ent.layer, ent.crc})
	}
	c.mu.Unlock()

	var bad []*cacheEntry
	for _, s := range snaps {
		if s.layer.Checksum() != s.want {
			bad = append(bad, s.ent)
		}
	}

	c.mu.Lock()
	for _, ent := range bad {
		if cur, ok := c.entries[ent.key]; ok && cur == ent {
			c.removeLocked(cur)
			c.corrupt++
			c.scrubEjected++
			ejected++
		}
	}
	c.scrubs++
	c.scrubChecks += uint64(len(snaps))
	c.scrubTime += time.Since(t0)
	c.mu.Unlock()
	return len(snaps), ejected
}

// VisitResident calls fn for every resident entry's key and shared layer
// pointer, without touching recency or frequency. The layers are the live
// cached buffers — fn mutating them corrupts what kernels read, which is
// exactly what the chaos harness uses it for. Not part of the serving
// path.
func (c *DecodeCache) VisitResident(fn func(key string, layer *core.DecodedLayer)) {
	c.mu.Lock()
	type kv struct {
		key   string
		layer *core.DecodedLayer
	}
	snaps := make([]kv, 0, len(c.entries))
	for k, ent := range c.entries {
		snaps = append(snaps, kv{k, ent.layer})
	}
	c.mu.Unlock()
	for _, s := range snaps {
		fn(s.key, s.layer)
	}
}

// Get returns the layer stored under key, invoking decode on a miss.
// decode also reports the layer's resident size in bytes — known only
// after decoding, since a sparse-enough layer comes back in CSR form and
// costs ~40 bits per nonzero instead of 32 bits per dense slot. decode
// runs outside the cache lock; at most one decode per key is in flight.
func (c *DecodeCache) Get(key string, decode func() (*core.DecodedLayer, int64, error)) (*core.DecodedLayer, error) {
	layer, release, err := c.GetPinned(key, decode)
	release()
	return layer, err
}

// GetPinned is Get plus a pin: until release is called the entry cannot be
// evicted, no matter what demand or prefetch traffic inserts meanwhile.
// The returned release is never nil and is idempotent.
func (c *DecodeCache) GetPinned(key string, decode func() (*core.DecodedLayer, int64, error)) (*core.DecodedLayer, func(), error) {
	layer, release, _, err := c.getPinnedOutcome(key, decode)
	return layer, release, err
}

// Cache outcomes as span tracing sees them. These name the same paths the
// counters already count — the span layer just attributes them to a
// specific request instead of a fleet-wide sum.
const (
	OutcomeHit             = "hit"
	OutcomeMiss            = "miss"
	OutcomeCoalesced       = "coalesced"
	OutcomePrefetchHit     = "prefetch_hit"
	OutcomePrefetchOverlap = "prefetch_overlap"
	OutcomeCorruptEject    = "corrupt_eject"
)

// getPinnedOutcome is GetPinned's core; the extra return names which
// cache path served the request (OutcomeHit, OutcomeMiss, ...).
func (c *DecodeCache) getPinnedOutcome(key string, decode func() (*core.DecodedLayer, int64, error)) (*core.DecodedLayer, func(), string, error) {
retry:
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok {
		// touchLocked clears the prefetched flag (counting the prefetch
		// hit); read it first so the span sees which kind of hit this was.
		outcome := OutcomeHit
		if ent.prefetched {
			outcome = OutcomePrefetchHit
		}
		c.touchLocked(ent)
		c.hits++
		ent.pins++
		layer := ent.layer
		c.mu.Unlock()
		return layer, c.unpinFunc(ent), outcome, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.coalesced++
		joinedPrefetch := f.prefetch
		if joinedPrefetch {
			// The stall this request does pay is the tail of a decode that
			// started before it arrived — compute/decode overlap working.
			c.prefetchOver++
		}
		c.mu.Unlock()
		<-f.done
		if f.err == errPrefetchAborted {
			// The scheduler cancelled this speculative decode before it
			// started. Undo the join accounting and take the demand path.
			c.mu.Lock()
			c.coalesced--
			if joinedPrefetch {
				c.prefetchOver--
			}
			c.mu.Unlock()
			goto retry
		}
		outcome := OutcomeCoalesced
		if joinedPrefetch {
			outcome = OutcomePrefetchOverlap
		}
		if f.err != nil {
			return f.layer, func() {}, outcome, f.err
		}
		return f.layer, c.adoptAfterFlight(key), outcome, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses++
	c.mu.Unlock()

	t0 := time.Now()
	layer, cost, err := decode()
	dt := time.Since(t0)

	c.mu.Lock()
	c.decodeTime += dt
	delete(c.inflight, key)
	var release func()
	if err == nil {
		if ent := c.insertLocked(key, layer, cost, dt.Nanoseconds(), false); ent != nil {
			ent.pins++
			release = c.unpinFunc(ent)
		}
	}
	c.mu.Unlock()

	f.layer, f.err = layer, err
	close(f.done)
	if release == nil {
		release = func() {}
	}
	return layer, release, OutcomeMiss, err
}

// errPrefetchAborted marks a speculative flight that was cancelled before
// its decode started (scheduler queue full, or shutdown). Demand gets that
// joined such a flight retry through the normal paths; the sentinel never
// escapes the cache.
var errPrefetchAborted = errors.New("serve: prefetch aborted before decode")

// Prefetch decodes key into the cache if it is not already resident or in
// flight. It never touches recency, frequency, or the demand hit/miss
// counters, and a prefetched entry enters with zero frequency: under GDSF
// it is the first eviction candidate until a demand Get claims it, so
// speculation can stretch the budget but never shrink what is hot.
func (c *DecodeCache) Prefetch(key string, decode func() (*core.DecodedLayer, int64, error)) {
	run, _ := c.BeginPrefetch(key, decode)
	if run != nil {
		run()
	}
}

// BeginPrefetch registers a speculative decode flight for key and returns
// run (performs the decode; call outside any lock) and abort (cancels the
// registration when the decode cannot be scheduled). Exactly one of the
// two must be called. Both are nil when key is already resident or in
// flight.
//
// Splitting registration from execution lets the announcing goroutine
// claim the flight synchronously on the request path — from that moment a
// demand get for the key joins the speculative decode instead of racing
// it, so prefetch coverage does not depend on how quickly the worker
// goroutine is scheduled. Aborted flights wake their joiners with an
// internal sentinel that sends them back through the demand path, so a
// cancelled prefetch costs a retry, never a deadlock.
func (c *DecodeCache) BeginPrefetch(key string, decode func() (*core.DecodedLayer, int64, error)) (run, abort func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return nil, nil
	}
	if _, ok := c.inflight[key]; ok {
		return nil, nil
	}
	f := &flight{done: make(chan struct{}), prefetch: true}
	c.inflight[key] = f
	c.prefetches++

	run = func() {
		t0 := time.Now()
		layer, cost, err := decode()
		dt := time.Since(t0)

		c.mu.Lock()
		c.prefetchTime += dt
		delete(c.inflight, key)
		if err == nil {
			c.insertLocked(key, layer, cost, dt.Nanoseconds(), true)
		}
		c.mu.Unlock()

		f.layer, f.err = layer, err
		close(f.done)
	}
	abort = func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.prefetches-- // never started: keep the counter to decodes actually run
		c.mu.Unlock()
		f.err = errPrefetchAborted
		close(f.done)
	}
	return run, abort
}

// adoptAfterFlight claims a just-landed flight's entry for a demand
// caller: pin it, count its demand use, and clear the speculative flag (a
// coalesced wait on a prefetch is already counted as overlap, not as a
// prefetch hit). The entry may have been evicted in the window between
// flight completion and this lock — the shared layer pointer stays valid
// either way, there is just nothing to pin.
func (c *DecodeCache) adoptAfterFlight(key string) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if !ok {
		return func() {}
	}
	ent.prefetched = false
	ent.freq++
	c.reprioritizeLocked(ent)
	ent.pins++
	return c.unpinFunc(ent)
}

// unpinFunc returns the idempotent release for one pin on ent.
func (c *DecodeCache) unpinFunc(ent *cacheEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			ent.pins--
			// An insert that found everything pinned overshot the budget;
			// the pins that blocked it pay the eviction back as they go.
			for c.budget > 0 && c.bytes > c.budget {
				victim := c.victimLocked()
				if victim == nil {
					break
				}
				c.evictLocked(victim)
			}
			c.mu.Unlock()
		})
	}
}

// touchLocked records a demand use: recency under LRU, frequency and a
// re-aged priority under GDSF, and prefetch-hit accounting when this is
// the first demand use of a speculative entry. Caller owns c.mu.
func (c *DecodeCache) touchLocked(ent *cacheEntry) {
	if ent.prefetched {
		ent.prefetched = false
		c.prefetchHits++
	}
	ent.freq++
	if ent.el != nil {
		c.ll.MoveToFront(ent.el)
	}
	c.reprioritizeLocked(ent)
}

// reprioritizeLocked recomputes ent's GDSF priority from the current
// aging floor and fixes its heap position. No-op under LRU. Caller owns
// c.mu.
func (c *DecodeCache) reprioritizeLocked(ent *cacheEntry) {
	if c.policy != EvictGDSF || ent.heapIdx < 0 {
		return
	}
	ent.prio = c.agingL + float64(ent.freq)*ent.weight()
	heap.Fix(&c.heap, ent.heapIdx)
}

// insertLocked adds an entry and evicts until the budget holds, returning
// the resident entry (nil when the layer was not admitted). Caller owns
// c.mu.
//
// Under LRU anything inserted evicts from the tail, skipping pinned
// entries. Under GDSF the incoming entry competes on priority: it only
// displaces entries worth less than itself, and an incoming entry worth
// less than everything resident is dropped instead (admission control) —
// for a demand insert that is harmless (the caller already holds the
// decoded layer), for a prefetch it is the speculation losing to the
// working set, as it should.
func (c *DecodeCache) insertLocked(key string, layer *core.DecodedLayer, cost, decodeNs int64, prefetch bool) *cacheEntry {
	if ent, ok := c.entries[key]; ok {
		// A concurrent insert beat us (possible when a key is re-requested
		// right after eviction); refresh recency only.
		if ent.el != nil {
			c.ll.MoveToFront(ent.el)
		}
		return ent
	}
	if c.budget > 0 && cost > c.budget {
		c.bypasses++
		return nil
	}
	ent := &cacheEntry{
		key:      key,
		layer:    layer,
		cost:     cost,
		sparse:   layer.Sparse != nil,
		heapIdx:  -1,
		decodeNs: decodeNs,
		seq:      c.seq,
	}
	if c.verify {
		// Fill-time checksum; Scrub and CheckEntry compare against it. The
		// layer was verified against the stream by the decode that produced
		// it, so this pins the known-good resident bytes.
		ent.crc = layer.Checksum()
	}
	c.seq++
	if !prefetch {
		ent.freq = 1
	} else {
		ent.prefetched = true
	}
	ent.prio = c.agingL + float64(ent.freq)*ent.weight()

	for c.budget > 0 && c.bytes+cost > c.budget {
		victim := c.victimLocked()
		if victim == nil {
			// Everything resident is pinned by running kernels. A demand
			// insert overshoots until the first of those pins releases
			// (unpinFunc trims back); a speculative one is dropped instead.
			if prefetch {
				c.admissionDrops++
				c.prefetchWaste++
				return nil
			}
			break
		}
		if c.policy == EvictGDSF && victim.prio > ent.prio {
			// The incoming entry is worth less than the cheapest resident:
			// caching it would trade re-decode stall up, not down.
			c.admissionDrops++
			if prefetch {
				c.prefetchWaste++
			}
			return nil
		}
		c.evictLocked(victim)
	}
	c.entries[key] = ent
	switch c.policy {
	case EvictGDSF:
		heap.Push(&c.heap, ent)
	default:
		ent.el = c.ll.PushFront(ent)
	}
	c.bytes += cost
	c.addFormatBytes(ent.sparse, cost)
	return ent
}

// victimLocked picks the next eviction candidate — the LRU tail or the
// GDSF priority minimum — skipping pinned entries. Returns nil when
// nothing is evictable. Caller owns c.mu.
func (c *DecodeCache) victimLocked() *cacheEntry {
	if c.policy == EvictGDSF {
		// Pop pinned minima aside and restore them after: pins are held
		// for one kernel's duration, so this stays a handful of swaps.
		var pinned []*cacheEntry
		var victim *cacheEntry
		for c.heap.Len() > 0 {
			e := heap.Pop(&c.heap).(*cacheEntry)
			if e.pins > 0 {
				pinned = append(pinned, e)
				continue
			}
			victim = e
			break
		}
		for _, e := range pinned {
			heap.Push(&c.heap, e)
		}
		if victim != nil {
			// Re-attach so removeLocked finds it in a consistent state.
			heap.Push(&c.heap, victim)
		}
		return victim
	}
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if ent := el.Value.(*cacheEntry); ent.pins == 0 {
			return ent
		}
	}
	return nil
}

// evictLocked removes victim to make room and accounts for it. Caller
// owns c.mu.
func (c *DecodeCache) evictLocked(victim *cacheEntry) {
	c.removeLocked(victim)
	c.evictions++
	if victim.prefetched {
		c.prefetchWaste++
	}
	if c.policy == EvictGDSF && victim.prio > c.agingL {
		// Classic GreedyDual aging: the floor rises to the evicted
		// priority, so long-resident entries must keep earning hits to
		// stay above newcomers.
		c.agingL = victim.prio
	}
}

// removeLocked detaches ent from every index and returns its bytes.
// Caller owns c.mu.
func (c *DecodeCache) removeLocked(ent *cacheEntry) {
	delete(c.entries, ent.key)
	if ent.el != nil {
		c.ll.Remove(ent.el)
		ent.el = nil
	}
	if ent.heapIdx >= 0 {
		heap.Remove(&c.heap, ent.heapIdx)
	}
	c.bytes -= ent.cost
	c.addFormatBytes(ent.sparse, -ent.cost)
}

// addFormatBytes adjusts the per-format resident byte split. Caller owns
// c.mu.
func (c *DecodeCache) addFormatBytes(sparse bool, delta int64) {
	if sparse {
		c.sparseBytes += delta
	} else {
		c.denseBytes += delta
	}
}

// CacheStats is a point-in-time snapshot of cache behaviour.
type CacheStats struct {
	Policy      string `json:"policy"`              // "lru" or "gdsf"
	Budget      int64  `json:"budget_bytes"`        // 0 = unlimited
	BytesInUse  int64  `json:"bytes_in_use"`        // resident decoded layers
	SparseBytes int64  `json:"sparse_bytes_in_use"` // resident CSR-form layers
	DenseBytes  int64  `json:"dense_bytes_in_use"`  // resident dense-form layers
	Entries     int    `json:"entries"`             // resident layer count
	// Hits counts gets served from a resident entry; Misses counts gets
	// that ran a decode themselves. Coalesced gets — served by waiting on
	// another caller's in-flight decode — are neither: they decoded
	// nothing, but they did stall. HitRate reports hits over decode-or-hit
	// traffic only; EffectiveHitRate folds coalesced serves in as
	// non-decoding, which is the number that matches the
	// deepsz_cache_events_total totals under bursty identical traffic.
	Hits           uint64        `json:"hits"`
	Misses         uint64        `json:"misses"`
	Coalesced      uint64        `json:"coalesced"`
	Evictions      uint64        `json:"evictions"`           // evictions (either policy)
	Bypasses       uint64        `json:"bypasses"`            // layer larger than whole budget
	AdmissionDrops uint64        `json:"admission_drops"`     // GDSF refused to cache (worth less than residents)
	Prefetches     uint64        `json:"prefetches"`          // speculative decodes started
	PrefetchHits   uint64        `json:"prefetch_hits"`       // demand get served by a resident prefetched entry
	PrefetchWaste  uint64        `json:"prefetch_waste"`      // prefetched entries dropped or evicted unused
	PrefetchOver   uint64        `json:"prefetch_overlap"`    // demand gets that joined an in-flight prefetch decode
	DecodeTime     time.Duration `json:"decode_time_nanos"`   // cumulative demand decode wall time
	PrefetchTime   time.Duration `json:"prefetch_time_nanos"` // cumulative speculative decode wall time

	// Integrity tracking (zero when SetIntegrityTracking is off).
	Scrubs           uint64        `json:"scrubs"`            // completed scrub sweeps
	ScrubChecks      uint64        `json:"scrub_checks"`      // entries checksummed by sweeps
	ScrubEjections   uint64        `json:"scrub_ejections"`   // mismatches found by sweeps
	ReleaseChecks    uint64        `json:"release_checks"`    // entries checksummed at kernel release
	CorruptEjections uint64        `json:"corrupt_ejections"` // entries ejected on checksum mismatch
	ScrubTime        time.Duration `json:"scrub_time_nanos"`  // cumulative scrub wall time
}

// HitRate returns hits / (hits + misses), or 0 before any traffic: the
// fraction of decode-or-hit gets that found a resident entry. Coalesced
// gets are excluded — see EffectiveHitRate for the number that counts
// them as served-without-decoding.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// EffectiveHitRate returns (hits + coalesced) / (hits + misses +
// coalesced), or 0 before any traffic: the fraction of all gets that did
// not run a decode themselves. Under bursty identical traffic the
// singleflight path serves most callers by coalescing, so HitRate alone
// under-reports how well the cache is doing and disagrees with the event
// totals exported at /metrics; this is the rate to alert on.
func (s CacheStats) EffectiveHitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Stats snapshots the counters.
func (c *DecodeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Policy:         c.policy.String(),
		Budget:         max(c.budget, 0),
		BytesInUse:     c.bytes,
		SparseBytes:    c.sparseBytes,
		DenseBytes:     c.denseBytes,
		Entries:        len(c.entries),
		Hits:           c.hits,
		Misses:         c.misses,
		Coalesced:      c.coalesced,
		Evictions:      c.evictions,
		Bypasses:       c.bypasses,
		AdmissionDrops: c.admissionDrops,
		Prefetches:     c.prefetches,
		PrefetchHits:   c.prefetchHits,
		PrefetchWaste:  c.prefetchWaste,
		PrefetchOver:   c.prefetchOver,
		DecodeTime:     c.decodeTime,
		PrefetchTime:   c.prefetchTime,

		Scrubs:           c.scrubs,
		ScrubChecks:      c.scrubChecks,
		ScrubEjections:   c.scrubEjected,
		ReleaseChecks:    c.releaseChecks,
		CorruptEjections: c.corrupt,
		ScrubTime:        c.scrubTime,
	}
}
