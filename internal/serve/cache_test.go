package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeLayer builds a decoded layer whose weight slice is `cost` bytes.
func fakeLayer(cost int64) *core.DecodedLayer {
	return &core.DecodedLayer{Weights: make([]float32, cost/4)}
}

func TestCacheHitMissEviction(t *testing.T) {
	const cost = 400
	c := NewDecodeCache(2 * cost) // room for two entries
	decodes := map[string]int{}
	get := func(key string) {
		t.Helper()
		if _, err := c.Get(key, func() (*core.DecodedLayer, int64, error) {
			decodes[key]++
			return fakeLayer(cost), cost, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	get("a") // miss
	get("b") // miss
	get("a") // hit, refreshes a's recency
	get("c") // miss, evicts b (LRU)
	get("b") // miss again: b was evicted

	s := c.Stats()
	if s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 1/4", s.Hits, s.Misses)
	}
	if s.Evictions != 2 {
		// c evicted b; reloading b evicted a (LRU after c's insert).
		t.Fatalf("evictions=%d, want 2", s.Evictions)
	}
	if s.Entries != 2 || s.BytesInUse != 2*cost {
		t.Fatalf("entries=%d bytes=%d, want 2/%d", s.Entries, s.BytesInUse, 2*cost)
	}
	if decodes["b"] != 2 || decodes["a"] != 1 || decodes["c"] != 1 {
		t.Fatalf("decode counts %v", decodes)
	}
	if s.HitRate() != 0.2 {
		t.Fatalf("hit rate %v, want 0.2", s.HitRate())
	}
}

func TestCacheBudgetEdges(t *testing.T) {
	c := NewDecodeCache(1000)

	// cost == budget: fits exactly.
	if _, err := c.Get("exact", func() (*core.DecodedLayer, int64, error) {
		return fakeLayer(1000), 1000, nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 1 || s.BytesInUse != 1000 {
		t.Fatalf("exact-fit entry not resident: %+v", s)
	}

	// cost > budget: decoded but never cached (bypass), evicting nothing.
	for i := 0; i < 2; i++ {
		if _, err := c.Get("huge", func() (*core.DecodedLayer, int64, error) {
			return fakeLayer(1001), 1001, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Bypasses != 2 {
		t.Fatalf("bypasses=%d, want 2 (oversized layer must decode every time)", s.Bypasses)
	}
	if s.Entries != 1 || s.BytesInUse != 1000 {
		t.Fatalf("oversized layer disturbed residents: %+v", s)
	}
	if s.Evictions != 0 {
		t.Fatalf("oversized layer evicted residents: %+v", s)
	}

	// Unlimited budget caches everything and never evicts.
	u := NewDecodeCache(0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := u.Get(key, func() (*core.DecodedLayer, int64, error) {
			return fakeLayer(1 << 20), 1 << 20, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s := u.Stats(); s.Entries != 50 || s.Evictions != 0 || s.Budget != 0 {
		t.Fatalf("unlimited cache: %+v", s)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewDecodeCache(0)
	var decodes atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]*core.DecodedLayer, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dl, err := c.Get("shared", func() (*core.DecodedLayer, int64, error) {
				close(started)
				decodes.Add(1)
				<-release // hold the flight open until all callers queued
				return fakeLayer(64), 64, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = dl
		}(i)
	}
	<-started
	// While the flight is held open every other goroutine must end up
	// coalesced onto it; spin until they have all queued.
	for c.Stats().Coalesced < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := decodes.Load(); n != 1 {
		t.Fatalf("decode ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != waiters-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1/%d", s.Misses, s.Coalesced, waiters-1)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different layer pointer", i)
		}
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewDecodeCache(0)
	boom := fmt.Errorf("decode exploded")
	if _, err := c.Get("bad", func() (*core.DecodedLayer, int64, error) { return nil, 0, boom }); err != boom {
		t.Fatalf("error %v, want passthrough", err)
	}
	calls := 0
	if _, err := c.Get("bad", func() (*core.DecodedLayer, int64, error) {
		calls++
		return fakeLayer(40), 40, nil
	}); err != nil || calls != 1 {
		t.Fatalf("failed decode was cached: err=%v calls=%d", err, calls)
	}
}

// TestCacheUnpinTrimsOvershoot: a demand insert that finds every resident
// entry pinned overshoots the budget, and the overshoot ends with the pins —
// not with whatever insert happens to come next.
func TestCacheUnpinTrimsOvershoot(t *testing.T) {
	for _, policy := range []EvictionPolicy{EvictLRU, EvictGDSF} {
		const cost = 400
		c := NewDecodeCacheWith(cost, policy)
		decode := func() (*core.DecodedLayer, int64, error) { return fakeLayer(cost), cost, nil }
		_, releaseA, err := c.GetPinned("a", decode)
		if err != nil {
			t.Fatal(err)
		}
		_, releaseB, err := c.GetPinned("b", decode)
		if err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.BytesInUse != 2*cost {
			t.Fatalf("%v: pinned residents must not be evicted: %+v", policy, s)
		}
		releaseA()
		if s := c.Stats(); s.BytesInUse != cost || s.Evictions != 1 {
			t.Fatalf("%v: first unpin left the cache over budget: %+v", policy, s)
		}
		releaseB()
		if s := c.Stats(); s.BytesInUse != cost || s.Entries != 1 {
			t.Fatalf("%v: at rest: %+v", policy, s)
		}
	}
}

func TestCacheConcurrentStress(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 200
		keys       = 7
		cost       = 400
	)
	c := NewDecodeCache(3 * cost) // forces constant eviction across 7 keys
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("k%d", (g*31+r)%keys)
				dl, err := c.Get(key, func() (*core.DecodedLayer, int64, error) {
					return fakeLayer(cost), cost, nil
				})
				if err != nil || len(dl.Weights) != cost/4 {
					t.Errorf("get %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if got := s.Hits + s.Misses + s.Coalesced; got != goroutines*rounds {
		t.Fatalf("accounted gets %d, want %d (stats %+v)", got, goroutines*rounds, s)
	}
	if s.BytesInUse > 3*cost {
		t.Fatalf("budget exceeded: %d > %d", s.BytesInUse, 3*cost)
	}
}
