// Package cache memoises exact MaxIS solves behind a content-addressed
// key. It exists for one dominant workload: in GossipExact-style CONGEST
// runs every one of the n nodes reconstructs the *identical* network graph
// and branch-and-bounds it locally, so n-1 of the n solves are pure waste.
// Keying the solve by a canonical hash of the graph's content — adjacency
// structure, node weights, clique cover and step budget — collapses them
// to one branch-and-bound plus n-1 cache hits, independent of how each
// caller happened to build its copy of the graph.
//
// The cache is safe for concurrent use and deduplicates in-flight solves:
// concurrent callers with the same key block on the one solve in progress
// instead of racing their own. Completed solves sit in an LRU bounded by
// the cache's capacity; solves in flight sit beside it, outside the
// bound. The same lru type (lru.go) backs the cross-cache SharedTier
// (shared.go) and the disk tier's index. Each lookup books its
// outcome once, as one Stats delta that feeds three views of the same
// counters: the cache's Stats (the experiment runner's JSON result
// envelope and the one-solve-per-distinct-graph tests read it), the
// calling Session (exact per-caller attribution) and an attached
// observability registry. SetDir attaches a persistent content-addressed
// disk tier (see disk.go) that survives the process, so repeated suite
// runs skip branch-and-bound entirely.
//
// There is no process-wide cache: every Cache belongs to its caller (a
// congestlb.Lab, an experiment run, one session-less CONGEST run). The
// CONGEST programs and the experiment suite solve through a Session over
// their caller's cache. Because the underlying solver is deterministic,
// cached and fresh results are identical, so a cache never changes any
// report.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
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
	// Evictions counts completed solves dropped by the LRU bound. A solve
	// completing evicts; registering its miss does not, so a failed or
	// cancelled solve evicts nothing.
	Evictions uint64 `json:"evictions,omitempty"`
	// Entries is the number of completed solves cached; solves in flight
	// are not counted.
	//
	// Evictions and Entries describe the cache, not a session, so a
	// session's Stats never carries them; both are omitted from the JSON
	// form when zero.
	Entries int `json:"entries,omitempty"`
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

// Add adds every counter of d to s. Entries, a level rather than a
// counter, is left as it is.
func (s *Stats) Add(d Stats) {
	s.Hits += d.Hits
	s.Misses += d.Misses
	s.Evictions += d.Evictions
	s.StepsSolved += d.StepsSolved
	s.StepsSaved += d.StepsSaved
	s.SharedHits += d.SharedHits
	s.DiskHits += d.DiskHits
	s.DiskMisses += d.DiskMisses
	s.DiskWrites += d.DiskWrites
	s.DiskEvictions += d.DiskEvictions
	s.DiskRetries += d.DiskRetries
	s.DiskQuarantined += d.DiskQuarantined
	s.DegradedSolves += d.DegradedSolves
}

// flight is one solve in progress. ready is closed once sol and err are
// final.
type flight struct {
	sol   mis.Solution
	err   error
	ready chan struct{}
}

// Cache is a content-addressed, LRU-bounded memoisation layer over
// mis.Exact. The zero value is not usable; call New.
type Cache struct {
	mu       sync.Mutex
	sols     *lru[mis.Solution] // completed solves, size 1 each
	inflight map[Key]*flight    // solves running now, outside the bound
	stats    Stats
	disk     *diskTier // nil until SetDir attaches the persistent tier
	// sharedTier is the optional cross-cache read-through tier (see
	// shared.go); nil until SetSharedTier attaches one.
	sharedTier *SharedTier
	// om holds the registry handles resolved by SetRegistry; an atomic
	// pointer (not the cache mutex) so the attach can race live lookups
	// under -race. It is never nil once New returns.
	om atomic.Pointer[cacheMetrics]
}

// RegistryCounter pairs one Stats counter with the registry counter it is
// booked into.
type RegistryCounter struct {
	// Name is the counter's obs name.
	Name string
	// Of reads the Stats counter.
	Of func(Stats) int64
}

// RegistryCounters is the one mapping from Stats counters to registry
// counters: the cache books each lookup's delta through it, and whoever
// compares a registry with Stats (cmd/benchjson, the tests) iterates it.
// Evictions, Entries, DiskWrites and DiskEvictions have no registry
// counter.
var RegistryCounters = [...]RegistryCounter{
	{obs.MSolveCacheHits, func(s Stats) int64 { return int64(s.Hits) }},
	{obs.MSolveCacheMisses, func(s Stats) int64 { return int64(s.Misses) }},
	{obs.MSolveCacheSharedHits, func(s Stats) int64 { return int64(s.SharedHits) }},
	{obs.MSolveCacheDiskHits, func(s Stats) int64 { return int64(s.DiskHits) }},
	{obs.MSolveCacheDiskMisses, func(s Stats) int64 { return int64(s.DiskMisses) }},
	{obs.MSolveCacheDiskRetries, func(s Stats) int64 { return int64(s.DiskRetries) }},
	{obs.MSolveCacheDiskQuarantined, func(s Stats) int64 { return int64(s.DiskQuarantined) }},
	{obs.MSolverDegradedSolves, func(s Stats) int64 { return int64(s.DegradedSolves) }},
	{obs.MSolveSteps, func(s Stats) int64 { return s.StepsSolved }},
	{obs.MSolveStepsSaved, func(s Stats) int64 { return s.StepsSaved }},
}

// cacheMetrics is the cache's resolved registry handle set: counters[i]
// is RegistryCounters[i]'s handle. With no registry attached every handle
// is nil, and a nil handle is a no-op.
type cacheMetrics struct {
	counters           [len(RegistryCounters)]*obs.Counter
	waits              *obs.Counter
	latency, stepsHist *obs.Histogram
}

// add books a delta on the registry through RegistryCounters. It returns
// at once when no registry is attached.
func (m *cacheMetrics) add(d Stats) {
	if m.counters[0] == nil {
		return
	}
	for i, rc := range RegistryCounters {
		m.counters[i].Add(rc.Of(d))
	}
}

// SetRegistry attaches (or with nil detaches) an observability registry:
// every subsequent lookup books its events and single-flight waits there
// too, and fresh solves record latency and step histograms. The per-Lab
// registry wiring (congestlb.WithMetrics) calls this once at construction.
func (c *Cache) SetRegistry(r *obs.Registry) {
	m := &cacheMetrics{
		waits:     r.Counter(obs.MSolveCacheWaits),
		latency:   r.Histogram(obs.MSolveLatencyNS),
		stepsHist: r.Histogram(obs.MSolveStepsHist),
	}
	for i, rc := range RegistryCounters {
		m.counters[i] = r.Counter(rc.Name)
	}
	c.om.Store(m)
}

// New returns an empty cache bounded to the given number of completed
// solves (DefaultCapacity if capacity is not positive). Solves in flight,
// one per key being solved, sit outside the bound: a completing solve
// evicts the least recently used completed one, never a solve another
// caller is waiting for.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache{
		sols:     newLRU[mis.Solution](int64(capacity)),
		inflight: make(map[Key]*flight),
	}
	c.SetRegistry(nil)
	return c
}

// book counts one lookup event: d lands in the cache's counters, in the
// calling session's (nil: none) and on the registry. It is the only
// place a solve-cache event is counted, so the three views agree.
func (c *Cache) book(sess *Session, d Stats) {
	c.mu.Lock()
	c.stats.Add(d)
	c.mu.Unlock()
	sess.add(d)
	c.om.Load().add(d)
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
// event is booked in the cache's stats and, when sess is non-nil, in the
// session's — giving callers exact attribution of the traffic they
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
// joined flight died of its owner's cancellation and the (still-live)
// caller should attempt the lookup again. The order is: a completed
// solve, a solve in flight, the shared tier, then the miss — booked as
// soon as its flight is registered — followed by the disk tier, the
// solve and the store. Each outcome is booked with one book call.
func (c *Cache) exactAttempt(ctx context.Context, key Key, g *graphs.Graph, opts mis.Options, sess *Session) (_ mis.Solution, _ error, retry bool) {
	c.mu.Lock()
	disk, tier := c.disk, c.sharedTier
	// A completed solve is served even under a dead context: the result
	// is already in hand.
	if sol, ok := c.sols.get(key); ok {
		c.mu.Unlock()
		c.book(sess, Stats{Hits: 1, StepsSaved: sol.Steps})
		return clone(sol), nil, false
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		// Join the solve in flight, honouring the waiter's own deadline:
		// its context firing must not leave it blocked on a solve another
		// caller owns (which may be running under a context that never
		// cancels).
		c.om.Load().waits.Inc()
		select {
		case <-f.ready:
		case <-ctx.Done():
			// No result to hand over, so meet the incumbent contract the
			// direct solve path provides: the greedy seed — a valid
			// witness — alongside ctx.Err(). The abandoned lookup books no
			// counter events; the solve's owner keeps its own accounting.
			return mis.SeedIncumbent(g), ctx.Err(), false
		}
		// The owner's context dying is the owner's problem, not this
		// waiter's: its flight is already gone, so a waiter whose own
		// context is still alive retries fresh (becoming the new owner or
		// joining one) instead of reporting a cancellation that never
		// happened to it. The retry books its own lookup; this one books
		// nothing, keeping attribution at one event per call. Non-context
		// errors propagate as hits — they describe the solve, not the
		// caller — and save no steps.
		if f.err != nil && ctx.Err() == nil &&
			(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			return mis.Solution{}, nil, true
		}
		d := Stats{Hits: 1}
		if f.err == nil {
			d.StepsSaved = f.sol.Steps
		}
		c.book(sess, d)
		return clone(f.sol), f.err, false
	}
	// A cross-cache tier hit is consulted *before* booking a miss: a
	// solve another cache already paid for is a hit from this cache's
	// point of view (zero branch-and-bound steps ran anywhere on its
	// behalf), attributed separately as SharedHits. The result also fills
	// the private LRU, so the tenant's next lookup is an ordinary private
	// hit. Lock order is c.mu → tier.mu (the tier never calls back), so
	// holding c.mu here is safe.
	if tsol, ok := tier.get(key); ok {
		c.stats.Evictions += uint64(len(c.sols.put(key, tsol, 1)))
		c.mu.Unlock()
		c.book(sess, Stats{Hits: 1, SharedHits: 1, StepsSaved: tsol.Steps})
		return clone(tsol), nil, false
	}
	f := &flight{ready: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()
	c.book(sess, Stats{Misses: 1})

	// In-memory miss: try the persistent tier before paying for a solve.
	var sol mis.Solution
	var err error
	var d Stats // the disk, solve and store result of this miss
	fromDisk := false
	if disk != nil {
		sol, fromDisk, d = disk.load(key, g)
	}
	if !fromDisk {
		// This is the fresh-solve site: the only place branch-and-bound
		// actually runs, so it carries the solve span and the latency/step
		// histograms. With no registry, obs.Begin is one context lookup.
		m := c.om.Load()
		solveCtx, sp := obs.Begin(ctx, "solve")
		t0 := time.Now()
		sol, err = mis.ExactCtx(solveCtx, g, opts)
		sp.End()
		switch {
		case err == nil:
			m.latency.Observe(time.Since(t0).Nanoseconds())
			m.stepsHist.Observe(sol.Steps)
			d.StepsSolved = sol.Steps
			if disk != nil {
				d.Add(disk.store(key, sol))
			}
		case isPanicError(err):
			// Fault containment: a degraded solve (err is the structured
			// panic and the incumbent came back). Errors are never
			// cached, so it is retried by the next caller for the key.
			d.DegradedSolves = 1
		}
	}

	c.mu.Lock()
	delete(c.inflight, key)
	f.sol, f.err = sol, err
	if err == nil {
		// Failures are not cached: later callers retry (waiters already
		// holding f still observe the error once).
		c.stats.Evictions += uint64(len(c.sols.put(key, sol, 1)))
	}
	c.mu.Unlock()
	c.book(sess, d)
	if err == nil {
		// Publish the completed solution (fresh or disk-served) so every
		// other cache on the tier skips its own solve for this key.
		tier.put(key, sol)
	}
	close(f.ready)
	return clone(sol), err, false
}

// SetDir attaches (or, with an empty dir, detaches) the persistent on-disk
// tier. Entries a previous process left in dir become immediately
// servable, up to the tier's byte bound (64 MiB): the least recently
// modified beyond it are deleted. Attaching is not retroactive for
// in-flight solves.
func (c *Cache) SetDir(dir string) error {
	if dir == "" {
		c.mu.Lock()
		c.disk = nil
		c.mu.Unlock()
		return nil
	}
	d, err := newDiskTier(dir)
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

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.sols.len()
	return s
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
// ordered), the step budget and the solver generation. It depends only on
// the graph's final content — never on labels or on the order nodes and
// edges were inserted. ok is false when the cover is malformed (a node
// missing, repeated or out of range); such solves are uncacheable and fall
// through to mis.Exact, which reports the precise validation error.
func KeyOf(g *graphs.Graph, opts mis.Options) (Key, bool) {
	return keyOf(g, opts, solverGeneration)
}

// solverGeneration is the trailing byte of every key. Bump it with any
// change to mis.Exact that can alter a solve's Set, Weight or Steps: every
// key then changes, so entries an older solver wrote to a disk tier are
// never found again, and they age out through the tier's byte bound. It is
// 0, the byte earlier versions appended, so no existing key changed.
const solverGeneration byte = 0

// keyBufs recycles the buffers keyOf serialises a solve into, so a lookup
// allocates nothing to hash its graph. Buffers that grew past
// maxPooledKeyBuf are dropped, not pooled.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledKeyBuf = 1 << 20

// keyOf is KeyOf under an explicit solver generation.
func keyOf(g *graphs.Graph, opts mis.Options, gen byte) (Key, bool) {
	bp := keyBufs.Get().(*[]byte)
	buf, ok := appendKeyInput((*bp)[:0], g, opts, gen)
	var key Key
	if ok {
		key = sha256.Sum256(buf)
	}
	if cap(buf) <= maxPooledKeyBuf {
		*bp = buf
		keyBufs.Put(bp)
	}
	return key, ok
}

// appendKeyInput appends the bytes keyOf hashes to buf; ok is false when
// the cover is malformed.
func appendKeyInput(buf []byte, g *graphs.Graph, opts mis.Options, gen byte) (_ []byte, ok bool) {
	n := g.N()
	buf = slices.Grow(buf, 24+12*n+8*g.M())
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
					return buf, false
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
				return buf, false
			}
			if renum[id[v]] == -1 {
				renum[id[v]] = next
				next++
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(renum[id[v]]))
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.MaxSteps))
	return append(buf, gen), true
}
