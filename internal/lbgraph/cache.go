package lbgraph

// Content-addressed memoisation of lower-bound graph construction.
//
// Building a fixed construction is the second-dominant cost of an
// experiment sweep after the exact solves: the k-clique plus the q⁴-edge
// inter-copy wiring is rebuilt identically for every sweep point, every
// promise case, and every experiment that touches the same parameters
// (the FigureParams(2) graph alone is built by six figure experiments,
// the diameter sweep, the lemma checks and the quadratic theorems). The
// build cache collapses those rebuilds the way internal/mis/cache
// collapses duplicate solves: the fixed graph of a family is keyed by a
// canonical hash of its *content* — construction kind, parameters, the
// full codeword table and the ablation flags — and repeated builds are
// served as deep copies of the one cached instance.
//
// Three properties mirror the solve cache deliberately:
//
//   - Copy-on-return. Build results are mutated by callers (Build applies
//     input weights or input edges on top of BuildFixed; experiments are
//     free to edit graphs), so the cache never hands out its own instance:
//     hits return a deep clone (graph, partition and clique cover), and
//     the entry itself is a private clone of what the builder produced.
//     Mutating a returned instance can never poison the cache.
//   - Single-flight. Concurrent builders of the same key — the sharded
//     sweep loops hammer exactly this pattern — block on the one build in
//     progress instead of racing duplicates.
//   - Session attribution. A CacheSession view counts exactly the hits
//     and misses its caller generated, which is what makes the runner's
//     per-experiment lbgraph numbers in the JSON envelope exact at any
//     -jobs count.
//
// The cache is transparent by construction: builds are deterministic, so
// a cloned cached instance is identical to a fresh build and enabling the
// cache never changes any report. There is no process-wide cache: a build
// is memoised only in a cache its caller owns and hands in through a
// CacheSession (a congestlb.Lab, an experiment run). Build and BuildFixed
// build from scratch.

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"congestlb/internal/core"
	"congestlb/internal/graphs"
	"congestlb/internal/obs"
)

// CacheKey is the canonical content hash of one construction.
type CacheKey [sha256.Size]byte

// DefaultCacheCapacity bounds a BuildCache built with a non-positive
// capacity. Fixed graphs are a few hundred kilobytes at experiment sizes
// and the suite builds a few dozen distinct parameterisations, so this is
// generous.
const DefaultCacheCapacity = 64

// CacheStats is a snapshot of the build cache counters.
type CacheStats struct {
	// Hits counts builds served from a cached (or in-flight) construction.
	Hits uint64 `json:"hits"`
	// Misses counts builds that constructed the graph from scratch.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of constructions currently cached.
	Entries int `json:"entries"`
}

// buildEntry is one cached (or in-flight) construction. ready is closed
// once inst/err are final; done flips under the cache lock at the same
// moment so eviction can skip in-flight entries.
type buildEntry struct {
	key   CacheKey
	inst  core.Instance
	err   error
	done  bool
	ready chan struct{}
}

// BuildCache is a content-addressed, LRU-bounded, single-flight memo over
// fixed-graph constructions. The zero value is not usable; call
// NewBuildCache.
type BuildCache struct {
	mu       sync.Mutex
	capacity int
	index    map[CacheKey]*list.Element
	lru      *list.List // front = most recently used; values are *buildEntry
	stats    CacheStats
	// om holds the observability handles attached by SetRegistry (an
	// atomic pointer so attachment races no lookup and the detached
	// fast path costs one load — mirrors mis/cache).
	om atomic.Pointer[buildMetrics]
}

// buildMetrics is the build cache's resolved registry handle set.
// Events mirror the CacheStats/CacheSession bookkeeping one for one.
// Note that a session over no cache (NewCacheSession(nil)) never reaches
// a cache, so uncached-builds A/B runs book no build_cache_* events — the
// envelope's legacy lbgraph block is the record there.
type buildMetrics struct {
	hits, misses, waits *obs.Counter
	latency             *obs.Histogram
}

// SetRegistry attaches (or with nil detaches) an observability
// registry: subsequent builds book hit/miss/single-flight-wait counts
// and fresh builds record a latency histogram.
func (c *BuildCache) SetRegistry(r *obs.Registry) {
	if r == nil {
		c.om.Store(nil)
		return
	}
	c.om.Store(&buildMetrics{
		hits:    r.Counter(obs.MBuildCacheHits),
		misses:  r.Counter(obs.MBuildCacheMisses),
		waits:   r.Counter(obs.MBuildCacheWaits),
		latency: r.Histogram(obs.MBuildLatencyNS),
	})
}

// NewBuildCache returns an empty cache bounded to the given number of
// constructions (DefaultCacheCapacity if capacity is not positive).
func NewBuildCache(capacity int) *BuildCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &BuildCache{
		capacity: capacity,
		index:    make(map[CacheKey]*list.Element, capacity),
		lru:      list.New(),
	}
}

// instance returns the construction for key, building it via build on a
// miss. The first caller for a key runs build; concurrent callers with the
// same key wait for that build instead of duplicating it. The returned
// instance is always a private deep copy. Errors are not cached: a failed
// build is retried by the next caller.
func (c *BuildCache) instance(key CacheKey, build func() (core.Instance, error), sess *CacheSession) (core.Instance, error) {
	m := c.om.Load()
	c.mu.Lock()
	if el, found := c.index[key]; found {
		e := el.Value.(*buildEntry)
		c.lru.MoveToFront(el)
		c.stats.Hits++
		done := e.done
		c.mu.Unlock()
		sess.record(func(st *CacheStats) { st.Hits++ })
		if m != nil {
			m.hits.Inc()
			if !done {
				m.waits.Inc()
			}
		}
		<-e.ready
		if e.err != nil {
			return core.Instance{}, e.err
		}
		return cloneInstance(e.inst), nil
	}
	e := &buildEntry{key: key, ready: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.index[key] = el
	c.stats.Misses++
	c.evictLocked()
	c.mu.Unlock()
	sess.record(func(st *CacheStats) { st.Misses++ })
	if m != nil {
		m.misses.Inc()
	}

	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	inst, err := build()
	if m != nil && err == nil {
		m.latency.Observe(time.Since(t0).Nanoseconds())
	}

	c.mu.Lock()
	if err != nil {
		e.err = err
		e.done = true
		// Do not cache failures: drop the entry so later callers retry
		// (waiters already holding e still observe the error once).
		if cur, present := c.index[key]; present && cur == el {
			c.lru.Remove(el)
			delete(c.index, key)
		}
		c.mu.Unlock()
		close(e.ready)
		return core.Instance{}, err
	}
	// The entry keeps its own clone: the builder's instance goes to the
	// caller, who is free to mutate it.
	e.inst = cloneInstance(inst)
	e.done = true
	c.mu.Unlock()
	close(e.ready)
	return inst, nil
}

// evictLocked trims the LRU to capacity, skipping in-flight entries.
// Callers must hold c.mu.
func (c *BuildCache) evictLocked() {
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		for el != nil && !el.Value.(*buildEntry).done {
			el = el.Prev()
		}
		if el == nil {
			return // everything in flight; over-capacity resolves later
		}
		e := el.Value.(*buildEntry)
		c.lru.Remove(el)
		delete(c.index, e.key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *BuildCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Reset drops every entry and zeroes the counters. In-flight builds
// complete normally but are no longer indexed.
func (c *BuildCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index = make(map[CacheKey]*list.Element, c.capacity)
	c.lru = list.New()
	c.stats = CacheStats{}
}

// cloneInstance deep-copies an instance: graph, partition and clique
// cover share no storage with the original.
func cloneInstance(inst core.Instance) core.Instance {
	out := core.Instance{}
	if inst.Graph != nil {
		out.Graph = inst.Graph.Clone()
	}
	if inst.Partition != nil {
		out.Partition = inst.Partition.Clone()
	}
	if inst.CliqueCover != nil {
		out.CliqueCover = make([][]graphs.NodeID, len(inst.CliqueCover))
		for i, part := range inst.CliqueCover {
			out.CliqueCover[i] = append([]graphs.NodeID(nil), part...)
		}
	}
	return out
}

// CacheSession is a per-caller view of a BuildCache: it forwards builds to
// the underlying cache while keeping its own exact hit/miss counters. A
// session over no cache (NewCacheSession(nil)) builds every construction
// from scratch and books it as a miss. A nil *CacheSession is valid too:
// it builds from scratch and counts nothing, so deep callers can be handed
// "no session" without branching. Mirrors cache.Session in
// internal/mis/cache.
type CacheSession struct {
	c *BuildCache // nil = no cache: every build runs and books a miss

	mu    sync.Mutex
	stats CacheStats
}

// NewCacheSession returns a session over c (nil = no cache). A session
// over no cache is how a Lab configured with the build cache off expresses
// that choice: results are identical either way (builds are
// deterministic), and the mode exists for A/B measurements.
func NewCacheSession(c *BuildCache) *CacheSession {
	return &CacheSession{c: c}
}

// Stats returns a snapshot of the session's counters. Entries is always 0:
// occupancy belongs to the cache, not to a view of it.
func (s *CacheSession) Stats() CacheStats {
	if s == nil {
		return CacheStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// record applies a counter mutation; safe on a nil session (no-op).
func (s *CacheSession) record(f func(*CacheStats)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// instance routes a build through the session: the session's cache serves
// or runs it, the session books the traffic. key is computed only when
// there is a cache to look it up in.
func (s *CacheSession) instance(key func() CacheKey, build func() (core.Instance, error)) (core.Instance, error) {
	if s == nil {
		return build()
	}
	if s.c == nil {
		inst, err := build()
		s.record(func(st *CacheStats) { st.Misses++ })
		return inst, err
	}
	return s.c.instance(key(), build, s)
}

// keyHasher accumulates the canonical content of a construction. The hash
// covers a kind tag (no two families can collide whatever their
// parameters), the parameter triple, the full codeword table (so custom
// ablation codes key by what they encode, not by identity) and the
// ablation flags — never pointer identities or build order.
type keyHasher struct {
	buf []byte
}

func (h *keyHasher) str(s string) {
	h.buf = binary.LittleEndian.AppendUint32(h.buf, uint32(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *keyHasher) ints(vs ...int) {
	for _, v := range vs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(int64(v)))
	}
}

func (h *keyHasher) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			h.buf = append(h.buf, 1)
		} else {
			h.buf = append(h.buf, 0)
		}
	}
}

func (h *keyHasher) words(words [][]int) {
	h.ints(len(words))
	for _, w := range words {
		h.ints(len(w))
		h.ints(w...)
	}
}

func (h *keyHasher) sum() CacheKey { return sha256.Sum256(h.buf) }

// fixedKey is the content key of the family's fixed construction.
func (l *Linear) fixedKey() CacheKey {
	h := &keyHasher{buf: make([]byte, 0, 256)}
	h.str("lbgraph/linear/v1")
	h.ints(l.p.T, l.p.Alpha, l.p.Ell)
	h.words(l.words)
	h.bools(l.opts.OmitInterCopyWiring, l.opts.UniformWeights)
	return h.sum()
}

// fixedKey is the content key of the family's fixed construction. The
// input-edge ablation flags do not participate: they only change what
// Build adds on top, so the faithful family and its variants share one
// fixed graph — deliberate reuse, not a collision.
func (f *Quadratic) fixedKey() CacheKey {
	h := &keyHasher{buf: make([]byte, 0, 256)}
	h.str("lbgraph/quadratic/v1")
	h.ints(f.p.T, f.p.Alpha, f.p.Ell)
	h.words(f.words)
	return h.sum()
}
