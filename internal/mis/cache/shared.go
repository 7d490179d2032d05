package cache

import (
	"container/list"
	"sync"

	"congestlb/internal/mis"
)

// DefaultSharedCapacity is the entry bound of a SharedTier built with a
// non-positive capacity. The tier holds completed solutions for the whole
// process (every tenant of a daemon), so it is bounded a notch wider than
// one private cache.
const DefaultSharedCapacity = 1024

// SharedTierStats is a snapshot of a SharedTier's counters.
type SharedTierStats struct {
	// Hits counts private-cache misses served by the tier — solves some
	// other cache (typically another tenant's) already paid for.
	Hits uint64 `json:"hits"`
	// Misses counts private-cache misses that found nothing in the tier
	// and went on to a disk lookup or a fresh branch-and-bound.
	Misses uint64 `json:"misses"`
	// Puts counts completed solutions published into the tier (repeat
	// publications of a key it already holds are counted but change
	// nothing).
	Puts uint64 `json:"puts"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of solutions currently held.
	Entries int `json:"entries"`
}

// sharedEntry is one completed solution in the tier. Unlike the private
// cache's entry there is no in-flight state: only finished, error-free
// solves are ever published.
type sharedEntry struct {
	key Key
	sol mis.Solution
}

// SharedTier is a content-addressed, LRU-bounded store of *completed*
// solve results, designed to sit underneath several private Caches (one
// per tenant of a daemon) as a read-through tier: a private-cache miss
// consults the tier before booking a miss, so an identical solve already
// paid for by any other cache is served with zero branch-and-bound steps
// and booked as a hit (Stats.SharedHits) by the consulting cache.
//
// The tier never deduplicates *in-flight* work across caches — two
// tenants racing the same cold key both solve it (the race costs one
// duplicate solve, never a wrong answer) and the second publication is a
// no-op. Single-flight dedup stays a private-cache property so one
// tenant's cancellation semantics can never leak into another's lookup.
//
// A SharedTier is safe for concurrent use by any number of caches. Lock
// order is always Cache.mu → SharedTier.mu; the tier never calls back
// into a cache.
type SharedTier struct {
	mu       sync.Mutex
	capacity int
	index    map[Key]*list.Element
	lru      *list.List // front = most recently used; values are *sharedEntry
	stats    SharedTierStats
}

// NewSharedTier returns an empty tier bounded to the given number of
// entries (DefaultSharedCapacity if capacity is not positive).
func NewSharedTier(capacity int) *SharedTier {
	if capacity <= 0 {
		capacity = DefaultSharedCapacity
	}
	return &SharedTier{
		capacity: capacity,
		index:    make(map[Key]*list.Element, capacity),
		lru:      list.New(),
	}
}

// get returns the tier's solution for key, booking a tier hit or miss.
// The returned Solution's Set is an independent copy.
func (t *SharedTier) get(key Key) (mis.Solution, bool) {
	if t == nil {
		return mis.Solution{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	el, found := t.index[key]
	if !found {
		t.stats.Misses++
		return mis.Solution{}, false
	}
	t.lru.MoveToFront(el)
	t.stats.Hits++
	return clone(el.Value.(*sharedEntry).sol), true
}

// put publishes a completed solution under key. The first publication
// wins; repeats refresh recency but keep the stored solution (solves are
// deterministic, so the results are identical anyway). The stored Set is
// an independent copy, so callers cannot corrupt the tier afterwards.
func (t *SharedTier) put(key Key, sol mis.Solution) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Puts++
	if el, found := t.index[key]; found {
		t.lru.MoveToFront(el)
		return
	}
	el := t.lru.PushFront(&sharedEntry{key: key, sol: clone(sol)})
	t.index[key] = el
	for t.lru.Len() > t.capacity {
		back := t.lru.Back()
		t.lru.Remove(back)
		delete(t.index, back.Value.(*sharedEntry).key)
		t.stats.Evictions++
	}
}

// Stats returns a snapshot of the tier's counters.
func (t *SharedTier) Stats() SharedTierStats {
	if t == nil {
		return SharedTierStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Entries = t.lru.Len()
	return s
}

// SetSharedTier attaches (or with nil detaches) a cross-cache read-through
// tier. Subsequent in-memory misses consult the tier before booking a
// miss: a tier hit is booked as Hits+SharedHits with StepsSaved credit and
// fills the private cache, so the "exactly one branch-and-bound per
// distinct graph" property extends across every cache sharing the tier.
// Completed error-free solves (fresh or disk-served) are published back.
// Attaching is not retroactive for in-flight solves.
func (c *Cache) SetSharedTier(t *SharedTier) {
	c.mu.Lock()
	c.sharedTier = t
	c.mu.Unlock()
}
