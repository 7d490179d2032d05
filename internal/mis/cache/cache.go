// Package cache memoises exact MaxIS solves behind a content-addressed
// key. It exists for one dominant workload: in GossipExact-style CONGEST
// runs every one of the n nodes reconstructs the *identical* network graph
// and branch-and-bounds it locally, so n-1 of the n solves are pure waste.
// Keying the solve by a canonical hash of the graph's content — adjacency
// structure, node weights, clique cover and step budget — collapses them
// to one branch-and-bound plus n-1 cache hits, independent of how each
// caller happened to build its copy of the graph.
//
// The cache is LRU-bounded, safe for concurrent use, and deduplicates
// in-flight solves: concurrent callers with the same key block on the one
// solve in progress instead of racing their own. Hit/miss/eviction and
// branch-and-bound step counters are exposed for the experiment runner's
// JSON result envelope and for tests asserting the one-solve-per-distinct-
// graph property. Per-caller exact attribution of that traffic is
// available through Session views; SetDir attaches a persistent
// content-addressed disk tier (see disk.go) that survives the process, so
// repeated suite runs skip branch-and-bound entirely.
//
// There is no process-wide cache: every Cache belongs to its caller (a
// congestlb.Lab, an experiment run, one session-less CONGEST run). The
// CONGEST programs and the experiment suite solve through a Session over
// their caller's cache. Because the underlying solver is deterministic,
// cached and fresh results are identical, so a cache never changes any
// report.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/obs"
)

// isPanicError reports whether err carries a recovered solver panic
// (*fault.PanicError) — the marker of a degraded solve.
func isPanicError(err error) bool {
	var pe *fault.PanicError
	return errors.As(err, &pe)
}

// Key is the canonical content hash of one solve: graph structure, node
// weights, clique cover and step budget.
type Key [sha256.Size]byte

// DefaultCapacity is the entry bound of a Cache built with a non-positive
// capacity. Solutions are small (a node-ID slice plus counters), so a few
// hundred distinct graphs fit comfortably; the dominant workload needs
// exactly one entry live at a time.
const DefaultCapacity = 256

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served from a cached (or in-flight) solve.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that ran a fresh branch-and-bound.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of entries currently cached.
	Entries int `json:"entries"`
	// StepsSolved sums the branch-and-bound steps of all misses — the work
	// actually performed.
	StepsSolved int64 `json:"steps_solved"`
	// StepsSaved sums the steps of the cached solutions returned on hits —
	// the work the cache avoided. Solves served from the disk tier count
	// here too: their branch-and-bound ran in some earlier process.
	StepsSaved int64 `json:"steps_saved"`

	// SharedHits counts the subset of Hits served by an attached
	// cross-cache SharedTier — solves some *other* cache (typically
	// another tenant of the same daemon) already paid for. Zero with no
	// tier attached.
	SharedHits uint64 `json:"shared_hits,omitempty"`

	// DiskHits counts in-memory misses served by the persistent disk tier
	// (cmd/experiments -cache-dir); DiskMisses counts lookups that reached
	// a configured tier and found nothing valid (corrupt entries are
	// discarded and land here). Both stay zero with no tier attached.
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
	// DiskWrites counts solutions persisted; DiskEvictions counts entries
	// the tier's size bound deleted.
	DiskWrites    uint64 `json:"disk_writes,omitempty"`
	DiskEvictions uint64 `json:"disk_evictions,omitempty"`

	// Fault-containment accounting (see docs/robustness.md). DiskRetries
	// counts disk-tier I/O attempts retried after transient errors;
	// DiskQuarantined counts invalid entries moved to the quarantine
	// sidecar. DegradedSolves counts fresh solves whose search panicked
	// and fell back to the incumbent (surfaced as an error, so degraded
	// results are never cached).
	DiskRetries     uint64 `json:"disk_retries,omitempty"`
	DiskQuarantined uint64 `json:"disk_quarantined,omitempty"`
	DegradedSolves  uint64 `json:"degraded_solves,omitempty"`
}

// entry is one cached (or in-flight) solve. ready is closed once sol/err
// are final; done flips under the cache lock at the same moment, so the
// eviction scan can skip in-flight entries without touching the channel.
type entry struct {
	key   Key
	sol   mis.Solution
	err   error
	done  bool
	ready chan struct{}
}

// Cache is a content-addressed, LRU-bounded memoisation layer over
// mis.Exact. The zero value is not usable; call New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	index    map[Key]*list.Element
	lru      *list.List // front = most recently used; values are *entry
	stats    Stats
	disk     *diskTier // nil until SetDir attaches the persistent tier
	// sharedTier is the optional cross-cache read-through tier (see
	// shared.go); nil until SetSharedTier attaches one.
	sharedTier *SharedTier
	// om holds the observability handles attached by SetRegistry; an
	// atomic pointer (not the cache mutex) so the nil-registry fast path
	// costs one load and the attach can race live lookups under -race.
	om atomic.Pointer[cacheMetrics]
}

// cacheMetrics is the cache's resolved registry handle set. Events
// mirror the Stats/Session bookkeeping one for one, which is what makes
// the registry's solve_cache_* counters sum-consistent with the
// envelope's legacy cache block.
type cacheMetrics struct {
	hits, misses, waits          *obs.Counter
	sharedHits                   *obs.Counter
	diskHits, diskMisses         *obs.Counter
	diskRetries, diskQuarantined *obs.Counter
	degraded                     *obs.Counter
	steps, stepsSaved            *obs.Counter
	latency, stepsHist           *obs.Histogram
}

// SetRegistry attaches (or with nil detaches) an observability registry:
// every subsequent lookup books its hit/miss/single-flight-wait and
// fresh solves record latency and step histograms. The per-Lab registry
// wiring (congestlb.WithMetrics) calls this once at construction.
func (c *Cache) SetRegistry(r *obs.Registry) {
	if r == nil {
		c.om.Store(nil)
		return
	}
	c.om.Store(&cacheMetrics{
		hits:            r.Counter(obs.MSolveCacheHits),
		misses:          r.Counter(obs.MSolveCacheMisses),
		waits:           r.Counter(obs.MSolveCacheWaits),
		sharedHits:      r.Counter(obs.MSolveCacheSharedHits),
		diskHits:        r.Counter(obs.MSolveCacheDiskHits),
		diskMisses:      r.Counter(obs.MSolveCacheDiskMisses),
		diskRetries:     r.Counter(obs.MSolveCacheDiskRetries),
		diskQuarantined: r.Counter(obs.MSolveCacheDiskQuarantined),
		degraded:        r.Counter(obs.MSolverDegradedSolves),
		steps:           r.Counter(obs.MSolveSteps),
		stepsSaved:      r.Counter(obs.MSolveStepsSaved),
		latency:         r.Histogram(obs.MSolveLatencyNS),
		stepsHist:       r.Histogram(obs.MSolveStepsHist),
	})
}

// New returns an empty cache bounded to the given number of entries
// (DefaultCapacity if capacity is not positive).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		index:    make(map[Key]*list.Element, capacity),
		lru:      list.New(),
	}
}

// Exact returns the maximum-weight independent set of g under opts,
// serving repeated solves of content-identical inputs from the cache. The
// first caller for a key runs mis.Exact; concurrent callers with the same
// key wait for that solve instead of duplicating it. Errors are not
// cached: a failed solve is retried by the next caller. Solves whose
// clique cover cannot be canonicalised (malformed covers mis.Exact will
// reject anyway) bypass the cache entirely.
func (c *Cache) Exact(g *graphs.Graph, opts mis.Options) (mis.Solution, error) {
	return c.exact(context.Background(), g, opts, nil)
}

// ExactCtx is Exact under a context: the underlying branch-and-bound
// observes cancellation on its batched step cadence, and a caller waiting
// on another goroutine's in-flight solve of the same key stops waiting when
// its own context fires. Cancelled solves return ctx.Err() and are never
// cached (errors are not cached), so a later caller retries cleanly.
func (c *Cache) ExactCtx(ctx context.Context, g *graphs.Graph, opts mis.Options) (mis.Solution, error) {
	return c.exact(ctx, g, opts, nil)
}

// exact is the session-aware lookup behind Exact and Session.Exact: every
// counter event lands in the cache's stats and, when sess is non-nil, in
// the session's — giving callers exact attribution of the traffic they
// generated even while other goroutines share the cache.
func (c *Cache) exact(ctx context.Context, g *graphs.Graph, opts mis.Options, sess *Session) (mis.Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key, ok := KeyOf(g, opts)
	if !ok {
		return mis.ExactCtx(ctx, g, opts)
	}
	// Loop rather than recurse on the owner-cancelled retry below: a
	// long-lived waiter repeatedly losing the re-ownership race to a
	// stream of short-deadline owners must not grow a stack frame per
	// attempt.
	for {
		sol, err, retry := c.exactAttempt(ctx, key, g, opts, sess)
		if !retry {
			return sol, err
		}
	}
}

// exactAttempt is one pass of the lookup protocol; retry reports that the
// joined entry died of its owner's cancellation and the (still-live)
// caller should attempt the lookup again.
func (c *Cache) exactAttempt(ctx context.Context, key Key, g *graphs.Graph, opts mis.Options, sess *Session) (_ mis.Solution, _ error, retry bool) {
	m := c.om.Load() // nil when no registry is attached; every use is nil-guarded
	c.mu.Lock()
	disk := c.disk
	tier := c.sharedTier
	if el, found := c.index[key]; found {
		e := el.Value.(*entry)
		c.lru.MoveToFront(el)
		done := e.done
		c.mu.Unlock()
		// A completed entry is served unconditionally — even under a dead
		// context: the result is already in hand, and racing a closed
		// ready channel against a closed ctx.Done() in a select would
		// make the outcome a coin flip. Only genuinely in-flight solves
		// wait, honouring the waiter's own deadline: its context firing
		// must not leave it blocked on a solve another caller owns (which
		// may be running under a context that never cancels).
		if !done {
			if m != nil {
				m.waits.Inc()
			}
			select {
			case <-e.ready:
			case <-ctx.Done():
				// No cached result to hand over, so meet the incumbent
				// contract the direct solve path provides: the greedy
				// seed — a valid witness — alongside ctx.Err(). The
				// abandoned lookup books no counter events; the solve's
				// owner keeps its own accounting.
				return mis.SeedIncumbent(g), ctx.Err(), false
			}
		}
		if e.err != nil {
			// The owner's context dying is the owner's problem, not this
			// waiter's: its entry was already dropped, so a waiter whose
			// own context is still alive retries fresh (becoming the new
			// owner or joining one) instead of reporting a cancellation
			// that never happened to it. The retry books its own lookup;
			// this one books nothing, keeping attribution at one event
			// per call. Non-context errors propagate as always — they
			// describe the solve, not the caller.
			if ctx.Err() == nil &&
				(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
				return mis.Solution{}, nil, true
			}
			c.mu.Lock()
			c.stats.Hits++
			c.mu.Unlock()
			sess.record(func(st *Stats) { st.Hits++ })
			if m != nil {
				m.hits.Inc()
			}
			return clone(e.sol), e.err, false
		}
		c.mu.Lock()
		c.stats.Hits++
		c.stats.StepsSaved += e.sol.Steps
		c.mu.Unlock()
		sess.record(func(st *Stats) {
			st.Hits++
			st.StepsSaved += e.sol.Steps
		})
		if m != nil {
			m.hits.Inc()
			m.stepsSaved.Add(e.sol.Steps)
		}
		return clone(e.sol), nil, false
	}
	// A cross-cache tier hit is consulted *before* booking a miss: a
	// solve another cache already paid for is a hit from this cache's
	// point of view (zero branch-and-bound steps ran anywhere on its
	// behalf), attributed separately as SharedHits. The result also fills
	// the private LRU as a completed entry, so the tenant's next lookup
	// is an ordinary private hit. Lock order is c.mu → tier.mu (the tier
	// never calls back), so holding c.mu here is safe.
	if tier != nil {
		if tsol, tok := tier.get(key); tok {
			ready := make(chan struct{})
			close(ready)
			te := &entry{key: key, sol: tsol, done: true, ready: ready}
			c.index[key] = c.lru.PushFront(te)
			c.stats.Hits++
			c.stats.SharedHits++
			c.stats.StepsSaved += tsol.Steps
			c.evictLocked()
			c.mu.Unlock()
			sess.record(func(st *Stats) {
				st.Hits++
				st.SharedHits++
				st.StepsSaved += tsol.Steps
			})
			if m != nil {
				m.hits.Inc()
				m.sharedHits.Inc()
				m.stepsSaved.Add(tsol.Steps)
			}
			return clone(tsol), nil, false
		}
	}
	e := &entry{key: key, ready: make(chan struct{})}
	el := c.lru.PushFront(e)
	c.index[key] = el
	c.stats.Misses++
	c.evictLocked()
	c.mu.Unlock()
	sess.record(func(st *Stats) { st.Misses++ })
	if m != nil {
		m.misses.Inc()
	}

	// In-memory miss: try the persistent tier before paying for a solve.
	var sol mis.Solution
	var err error
	fromDisk := false
	if disk != nil {
		var dio diskIO
		sol, fromDisk, dio = disk.load(key, g)
		c.mu.Lock()
		if fromDisk {
			c.stats.DiskHits++
			c.stats.StepsSaved += sol.Steps
		} else {
			c.stats.DiskMisses++
		}
		c.stats.DiskRetries += dio.retries
		c.stats.DiskQuarantined += dio.quarantined
		c.mu.Unlock()
		sess.record(func(st *Stats) {
			if fromDisk {
				st.DiskHits++
				st.StepsSaved += sol.Steps
			} else {
				st.DiskMisses++
			}
			st.DiskRetries += dio.retries
			st.DiskQuarantined += dio.quarantined
		})
		if m != nil {
			if fromDisk {
				m.diskHits.Inc()
				m.stepsSaved.Add(sol.Steps)
			} else {
				m.diskMisses.Inc()
			}
			m.diskRetries.Add(int64(dio.retries))
			m.diskQuarantined.Add(int64(dio.quarantined))
		}
	}
	if !fromDisk {
		// This is the fresh-solve site: the only place branch-and-bound
		// actually runs, so it carries the solve span and the latency/step
		// histograms. With no registry, obs.Begin is one context lookup.
		solveCtx, sp := obs.Begin(ctx, "solve")
		var t0 time.Time
		if m != nil {
			t0 = time.Now()
		}
		sol, err = mis.ExactCtx(solveCtx, g, opts)
		sp.End()
		if m != nil && err == nil {
			m.latency.Observe(time.Since(t0).Nanoseconds())
			m.steps.Add(sol.Steps)
			m.stepsHist.Observe(sol.Steps)
		}
		if isPanicError(err) {
			// Fault containment: attribute a degraded solve (err is the
			// structured panic and the incumbent came back) to this
			// caller's session and the registry. Errors are never cached,
			// so a degraded solve is retried by the next caller for the
			// key.
			c.mu.Lock()
			c.stats.DegradedSolves++
			c.mu.Unlock()
			sess.record(func(st *Stats) { st.DegradedSolves++ })
			if m != nil {
				m.degraded.Inc()
			}
		}
		if err == nil && disk != nil {
			evicted, dio, werr := disk.store(key, sol)
			c.mu.Lock()
			if werr == nil {
				c.stats.DiskWrites++
				c.stats.DiskEvictions += uint64(evicted)
			}
			c.stats.DiskRetries += dio.retries
			c.mu.Unlock()
			sess.record(func(st *Stats) {
				if werr == nil {
					st.DiskWrites++
					st.DiskEvictions += uint64(evicted)
				}
				st.DiskRetries += dio.retries
			})
			if m != nil {
				m.diskRetries.Add(int64(dio.retries))
			}
		}
	}

	c.mu.Lock()
	e.sol, e.err, e.done = sol, err, true
	if err != nil {
		// Do not cache failures: drop the entry so later callers retry
		// (waiters already holding e still observe the error once).
		if cur, present := c.index[key]; present && cur == el {
			c.lru.Remove(el)
			delete(c.index, key)
		}
	} else if !fromDisk {
		c.stats.StepsSolved += sol.Steps
	}
	c.mu.Unlock()
	if err == nil && !fromDisk {
		sess.record(func(st *Stats) { st.StepsSolved += sol.Steps })
	}
	if err == nil && tier != nil {
		// Publish the completed solution (fresh or disk-served) so every
		// other cache on the tier skips its own solve for this key.
		tier.put(key, sol)
	}
	close(e.ready)
	return clone(sol), err, false
}

// SetDir attaches (or, with an empty dir, detaches) the persistent on-disk
// tier. Entries a previous process left in dir become immediately
// servable; maxBytes bounds the tier's total size (0 = DefaultDiskBytes).
// Attaching is not retroactive for in-flight solves.
func (c *Cache) SetDir(dir string, maxBytes int64) error {
	if dir == "" {
		c.mu.Lock()
		c.disk = nil
		c.mu.Unlock()
		return nil
	}
	d, err := newDiskTier(dir, maxBytes)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.disk = d
	c.mu.Unlock()
	return nil
}

// DiskDir reports the attached disk tier's directory ("" when none).
func (c *Cache) DiskDir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.disk == nil {
		return ""
	}
	return c.disk.dir
}

// evictLocked trims the LRU to capacity, skipping in-flight entries (they
// are always near the front anyway). Callers must hold c.mu.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.capacity {
		el := c.lru.Back()
		for el != nil && !el.Value.(*entry).done {
			el = el.Prev()
		}
		if el == nil {
			return // everything in flight; over-capacity resolves later
		}
		e := el.Value.(*entry)
		c.lru.Remove(el)
		delete(c.index, e.key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// Reset drops every in-memory entry and zeroes the counters; an attached
// disk tier keeps its files (detach with SetDir("")). In-flight solves
// complete normally but are not re-inserted observable-y: their entries
// are simply no longer indexed.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index = make(map[Key]*list.Element, c.capacity)
	c.lru = list.New()
	c.stats = Stats{}
}

// clone returns a Solution whose Set is an independent copy, so callers
// can never corrupt the cached witness (or each other's).
func clone(sol mis.Solution) mis.Solution {
	out := sol
	if sol.Set != nil {
		out.Set = append([]graphs.NodeID(nil), sol.Set...)
	}
	return out
}

// KeyOf computes the canonical content key of a solve. The hash covers the
// node count, per-node weights, the sorted edge list, the clique cover as
// a canonical partition (clique ids renumbered by first appearance in node
// order, so the same partition hashes identically however its parts are
// ordered) and the step budget. It depends only on the graph's final
// content — never on labels or on the order nodes and edges were inserted.
// ok is false when the cover is malformed (a node missing, repeated or out
// of range); such solves are uncacheable and fall through to mis.Exact,
// which reports the precise validation error.
func KeyOf(g *graphs.Graph, opts mis.Options) (Key, bool) {
	n := g.N()
	buf := make([]byte, 0, 16+8*n+8*g.M()+4*n)
	buf = append(buf, 'm', 'i', 's', 'v', '1')
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for v := 0; v < n; v++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Weight(v)))
	}
	for u := 0; u < n; u++ {
		g.ForEachNeighbor(u, func(v graphs.NodeID) {
			if u < v {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		})
	}
	if opts.CliqueCover == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		id := make([]int32, n)
		for i := range id {
			id[i] = -1
		}
		for ci, clique := range opts.CliqueCover {
			for _, v := range clique {
				if v < 0 || v >= n || id[v] != -1 {
					return Key{}, false
				}
				id[v] = int32(ci)
			}
		}
		// Renumber clique ids by first appearance so the key depends on
		// the partition, not on the ordering of its parts.
		renum := make([]int32, len(opts.CliqueCover))
		for i := range renum {
			renum[i] = -1
		}
		var next int32
		for v := 0; v < n; v++ {
			if id[v] == -1 {
				return Key{}, false
			}
			if renum[id[v]] == -1 {
				renum[id[v]] = next
				next++
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(renum[id[v]]))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.MaxSteps))
	// The trailing byte once flagged weight-only solves. It stays a
	// constant 0 so every key — and every disk-tier entry stored under
	// one — is the one earlier versions computed.
	buf = append(buf, 0)
	return sha256.Sum256(buf), true
}
