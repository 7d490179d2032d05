package cache

import (
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
	// Evictions counts solutions dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of solutions currently held.
	Entries int `json:"entries"`
}

// SharedTier is a content-addressed store of *completed* solve results,
// designed to sit underneath several private Caches (one per tenant of a
// daemon) as a read-through tier: a private-cache miss consults the tier
// before booking a miss, so an identical solve already paid for by any
// other cache is served with zero branch-and-bound steps and booked as a
// hit (Stats.SharedHits) by the consulting cache. It is bounded by the
// same lru type as a private cache's completed solves (lru.go), one slot
// per solution.
//
// The tier holds no solves in flight and never deduplicates them across
// caches — two
// tenants racing the same cold key both solve it (the race costs one
// duplicate solve, never a wrong answer) and the second publication is a
// no-op. Single-flight dedup stays a private-cache property so one
// tenant's cancellation semantics can never leak into another's lookup.
//
// A SharedTier is safe for concurrent use by any number of caches. Lock
// order is always Cache.mu → SharedTier.mu; the tier never calls back
// into a cache.
type SharedTier struct {
	mu    sync.Mutex
	sols  *lru[mis.Solution] // completed, error-free solves, size 1 each
	stats SharedTierStats
}

// NewSharedTier returns an empty tier bounded to the given number of
// entries (DefaultSharedCapacity if capacity is not positive).
func NewSharedTier(capacity int) *SharedTier {
	if capacity <= 0 {
		capacity = DefaultSharedCapacity
	}
	return &SharedTier{sols: newLRU[mis.Solution](int64(capacity))}
}

// get returns the tier's solution for key, booking a tier hit or miss.
// The returned Solution's Set is an independent copy.
func (t *SharedTier) get(key Key) (mis.Solution, bool) {
	if t == nil {
		return mis.Solution{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sol, found := t.sols.get(key)
	if !found {
		t.stats.Misses++
		return mis.Solution{}, false
	}
	t.stats.Hits++
	return clone(sol), true
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
	t.stats.Evictions += uint64(len(t.sols.put(key, clone(sol), 1)))
}

// Stats returns a snapshot of the tier's counters.
func (t *SharedTier) Stats() SharedTierStats {
	if t == nil {
		return SharedTierStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Entries = t.sols.len()
	return s
}

// SetSharedTier attaches (or with nil detaches) a cross-cache read-through
// tier. Subsequent in-memory misses consult the tier before booking a
// miss: a tier hit is booked as Hits+SharedHits with StepsSaved credit and
// fills the private cache, so the "exactly one branch-and-bound per
// distinct graph" property extends across every cache sharing the tier.
// Completed error-free solves (fresh or disk-served) are published back;
// the first publication of a key wins and a repeat only refreshes its
// recency. A solve already in flight when the tier is attached does not
// publish to it.
func (c *Cache) SetSharedTier(t *SharedTier) {
	c.mu.Lock()
	c.sharedTier = t
	c.mu.Unlock()
}
