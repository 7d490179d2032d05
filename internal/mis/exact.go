package mis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/obs"
)

// ErrBudgetExceeded is returned when branch-and-bound exhausts its step
// budget before proving optimality.
var ErrBudgetExceeded = errors.New("mis: search budget exceeded")

// Options configures the Exact solver. The zero value is valid: the
// per-node clique-partition bound runs alone, a default step budget applies
// and the worker count follows the package default.
type Options struct {
	// CliqueCover optionally supplies a partition of the nodes into
	// cliques. The lower-bound constructions know their natural cover
	// (the cliques A^i and C^i_h). A supplied cover yields a static bound
	// that is checked first at every search node as a cheap filter; only
	// when it fails to prune does the solver rebuild a greedy clique
	// partition of the current candidate set, and the smaller of the two
	// bounds is used. Without a cover no static cover is built. Each node
	// must appear in exactly one clique, and each part must be a clique in
	// the graph.
	CliqueCover [][]graphs.NodeID
	// MaxSteps bounds the number of branch-and-bound nodes explored;
	// 0 means the default (50 million). The parallel engine accounts steps
	// in batches, so it may overshoot the budget by at most
	// Workers × stepFlushBatch before stopping.
	MaxSteps int64
	// Workers is the number of branch-and-bound workers exploring the
	// search tree concurrently. 0 selects GOMAXPROCS, 1 forces the
	// sequential engine. Graphs below parallelMinNodes always solve
	// sequentially — at that size goroutine startup costs more than the
	// whole search. Optimal solutions are identical — weight and witness
	// set — at every worker count: parallel witnesses are canonicalised to
	// the sequential engine's. Only Solution.Steps (work performed, not
	// part of the result) varies between parallel runs.
	Workers int
	// WeightOnly declares that the caller consumes Solution.Weight alone.
	// The parallel engine then skips its canonicalisation pass — the
	// serial tail that replays the sequential DFS to stabilise the witness
	// (~10% of a solve) — and returns whichever optimal set the worker
	// race kept. Weight and Optimal are exactly as without the flag;
	// Solution.Set remains a valid maximum-weight independent set but is
	// schedule-dependent at Workers > 1. Gap checks and other
	// value-consumers set this; anything that compares or stores witness
	// sets must not. The flag participates in the solve-cache key
	// (internal/mis/cache), so weight-only solves can never serve a
	// caller that expects the canonical witness.
	WeightOnly bool
	// Progress, when non-nil, receives one event per incumbent
	// improvement: the initial greedy seed before the search starts,
	// then every strictly better independent set either engine installs.
	// Improvements are serialised (inline in the sequential engine,
	// under the incumbent mutex in the parallel one), so a single solve
	// delivers a strictly weight-increasing sequence. The field is
	// deliberately excluded from the solve-cache key (internal/mis/cache
	// KeyOf): observing a solve must not change what it computes — but
	// that also means a lookup served from cache, or collapsed onto
	// another caller's in-flight solve, fires no events.
	//
	// The per-node hot path is untouched: the only added branches sit on
	// the improvement sites, which fire at most once per distinct
	// incumbent weight — the same rarity class as the existing
	// stepFlushBatch bookkeeping.
	Progress obs.ProgressObserver
}

const defaultMaxSteps = 50_000_000

// parallelMinNodes gates the parallel engine: below this node count a
// solve is microseconds of work and spawning workers would dominate it.
const parallelMinNodes = 48

// resolveWorkers turns an Options.Workers request into the effective
// worker count for an n-node solve.
func resolveWorkers(requested, n int) int {
	if n < parallelMinNodes {
		return 1
	}
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Exact computes a maximum-weight independent set by branch-and-bound with
// a clique-partition upper bound: any independent set contains at most one
// node per clique, so for any partition of the candidate set P into
// cliques, Σ_cliques max_{v ∈ P ∩ C} w(v) bounds what remains of P. The
// partition is rebuilt greedily from P at every search node (see bound).
//
// With Workers > 1 (resolved per Options.Workers) the search tree is
// explored by a pool of workers over a shared frame deque: every worker
// prunes against the global incumbent, and the winning witness is
// canonicalised afterwards, so results are deterministic at any worker
// count.
//
// When the step budget runs out, Exact returns ErrBudgetExceeded together
// with the best incumbent found so far (Optimal false) — a valid, possibly
// sub-optimal witness budget-capped callers can still use.
func Exact(g *graphs.Graph, opts Options) (Solution, error) {
	return ExactCtx(context.Background(), g, opts)
}

// ExactCtx is Exact under a context: cancellation is observed on the same
// batched cadence as the step budget (every stepFlushBatch explored nodes
// per worker), and a cancelled solve returns the best incumbent found so
// far together with ctx.Err() — exactly the ErrBudgetExceeded contract, so
// cancellation is deterministic-safe: the witness is a valid independent
// set whatever instant the context fired. A nil ctx means Background.
func ExactCtx(ctx context.Context, g *graphs.Graph, opts Options) (Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.N()
	if n == 0 {
		return Solution{Optimal: true}, nil
	}
	// A context that is already dead never starts the search: the greedy
	// seed incumbent comes back immediately, well inside one batch cadence
	// — checked before any solver state is built, so the n per-node solves
	// of a cancelled CONGEST run don't each pay the bitset/cover setup.
	if err := ctx.Err(); err != nil {
		return SeedIncumbent(g), err
	}
	if err := validateCover(g, opts.CliqueCover); err != nil {
		return Solution{}, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	st := newExactState(g, opts.CliqueCover, maxSteps)
	st.weightOnly = opts.WeightOnly
	st.ctx = ctx
	st.ctxDone = ctx.Done()
	st.progress = opts.Progress
	if st.progress != nil {
		// The seed event: observers see the greedy starting weight before
		// any engine events, so even a search that never improves (or is
		// cancelled instantly) reports where it stood.
		st.progress.OnIncumbent(obs.ProgressEvent{Weight: st.seedWeight})
	}
	if workers := resolveWorkers(opts.Workers, n); workers > 1 {
		return exactParallel(st, workers)
	}
	return exactSequential(st)
}

// exactState is the read-mostly problem data plus the shared incumbent and
// budget accounting of one Exact call. The sequential engine touches it
// from a single goroutine; the parallel engine shares one instance between
// its workers, which prune against the atomic incumbent weight and settle
// improvements through the mutex.
//
// Everything indexed by node lives in rank space: rank 0 is the heaviest
// node, ties broken by lowest node ID. Scanning a candidate bitset from
// its first set bit therefore visits nodes in (weight desc, id asc) order,
// which makes the branching rule "first set bit" and lets the bound read
// each clique's maximum off its first member. solution() maps ranks back
// to node IDs.
type exactState struct {
	n, words int
	node     []graphs.NodeID // node[r] = the node ID of rank r
	weights  []int64         // weights[r] = w(node[r]), non-increasing in r
	closed   [][]uint64      // closed[r] = {r} ∪ N(r) as a rank bitset
	// cover holds the supplied clique cover (Options.CliqueCover) as one
	// rank bitset per part, or nil when none was supplied.
	cover [][]uint64

	maxSteps int64
	// weightOnly skips the parallel engine's canonicalisation pass: the
	// caller consumes the weight alone, so the schedule-dependent witness
	// the race kept is good enough (Options.WeightOnly).
	weightOnly bool
	// ctx/ctxDone carry the caller's cancellation signal; both engines poll
	// ctxDone on the stepFlushBatch cadence. ctxDone is nil for contexts
	// that can never cancel, which keeps the poll free on the common path.
	ctx     context.Context
	ctxDone <-chan struct{}
	// cancelled records that the stop below was triggered by the context
	// rather than the step budget, so the engines report ctx.Err() instead
	// of ErrBudgetExceeded.
	cancelled atomic.Bool
	steps     atomic.Int64 // explored nodes; workers flush in batches
	stop      atomic.Bool  // budget exhausted or cancelled: every worker unwinds
	// warmedUp gates donations: the first worker dives the root in
	// sequential order for one step batch before the tree is split, so the
	// incumbent is strong by the time top-level exclude branches start
	// running concurrently — without this the early breadth costs a
	// multiple of the sequential step count in lost pruning.
	warmedUp atomic.Bool

	// Panic containment (see docs/robustness.md): panics counts recovered
	// solver-worker panics, firstPanic keeps the first one's structured
	// error, and degraded marks a parallel solve that lost every worker
	// and fell back to the incumbent (the budget/ctx contract).
	panics     atomic.Int64
	firstPanic atomic.Pointer[fault.PanicError]
	degraded   atomic.Bool

	best    atomic.Int64 // incumbent weight, read lock-free for pruning
	mu      sync.Mutex   // guards bestSet and best-improvement ordering
	bestSet []uint64
	// progress, when set, is fired on every incumbent improvement —
	// inline in the sequential engine, under mu in the parallel one, so
	// events arrive strictly weight-increasing (Options.Progress).
	progress obs.ProgressObserver
	// seedWeight is the greedy incumbent the search started from. When the
	// search never improves on it, both engines return the seed set
	// itself, so the parallel engine must not canonicalise in that case
	// (the canonical DFS prefix is generally a different optimal set).
	seedWeight int64
}

// newExactState builds the shared solver state in rank space and seeds the
// incumbent with a greedy solution so pruning bites early. cover is the
// already validated Options.CliqueCover (nil for none).
func newExactState(g *graphs.Graph, cover [][]graphs.NodeID, maxSteps int64) *exactState {
	n := g.N()
	words := (n + 63) / 64
	st := &exactState{
		n:        n,
		words:    words,
		node:     make([]graphs.NodeID, n),
		weights:  make([]int64, n),
		closed:   make([][]uint64, n),
		maxSteps: maxSteps,
		bestSet:  make([]uint64, words),
	}
	for v := range st.node {
		st.node[v] = v
	}
	sort.SliceStable(st.node, func(a, b int) bool {
		return g.Weight(st.node[a]) > g.Weight(st.node[b])
	})
	rank := make([]int, n)
	for r, v := range st.node {
		rank[v] = r
	}
	for r, v := range st.node {
		st.weights[r] = g.Weight(v)
		row := make([]uint64, words)
		setBit(row, r)
		g.ForEachNeighbor(v, func(u graphs.NodeID) { setBit(row, rank[u]) })
		st.closed[r] = row
	}
	if cover != nil {
		st.cover = make([][]uint64, len(cover))
		for c, clique := range cover {
			st.cover[c] = make([]uint64, words)
			for _, v := range clique {
				setBit(st.cover[c], rank[v])
			}
		}
	}
	seed := SeedIncumbent(g)
	st.best.Store(seed.Weight)
	st.seedWeight = seed.Weight
	for _, v := range seed.Set {
		setBit(st.bestSet, rank[v])
	}
	return st
}

func setBit(set []uint64, i int) { set[i/64] |= 1 << (uint(i) % 64) }

// rootCandidates returns the full candidate bitset.
func (st *exactState) rootCandidates() []uint64 {
	root := make([]uint64, st.words)
	for r := 0; r < st.n; r++ {
		setBit(root, r)
	}
	return root
}

// offerIncumbent installs (cur, set) as the incumbent if it still beats the
// best known weight. The double check under the mutex serialises racing
// improvements; pruning reads st.best lock-free and may be momentarily
// stale, which only costs wasted work, never correctness.
func (st *exactState) offerIncumbent(cur int64, set []uint64) {
	st.mu.Lock()
	if cur > st.best.Load() {
		st.best.Store(cur)
		copy(st.bestSet, set)
		if st.progress != nil {
			// Fired while still holding mu: the lock is what guarantees
			// racing workers deliver a strictly weight-increasing sequence
			// (an improvement observed outside the lock could overtake a
			// larger one already installed).
			st.progress.OnIncumbent(obs.ProgressEvent{Weight: cur, Steps: st.steps.Load()})
		}
	}
	st.mu.Unlock()
}

// solution materialises the incumbent as a Solution.
func (st *exactState) solution(optimal bool, steps int64) Solution {
	set := make([]graphs.NodeID, 0)
	for r := 0; r < st.n; r++ {
		if st.bestSet[r/64]&(1<<(uint(r)%64)) != 0 {
			set = append(set, st.node[r])
		}
	}
	sort.Ints(set)
	return Solution{
		Set:          set,
		Weight:       st.best.Load(),
		Optimal:      optimal,
		Steps:        steps,
		WorkerPanics: int(st.panics.Load()),
	}
}

// searcher is the per-worker search machinery. Each worker owns its own
// searcher: its buffers are written at every search node and would race if
// they lived on the shared state.
type searcher struct {
	st   *exactState
	pool *workPool // nil for the sequential engine

	curSet []uint64   // chosen set on the current DFS path (rank bitset)
	bufP   [][]uint64 // per-depth candidate buffers, no per-call allocation

	// Clique-partition scratch for bound: rest is the part of P not yet
	// assigned to a clique, grow the candidates that can still extend the
	// clique being built. Rewritten on every bound call.
	rest, grow []uint64

	// faultKey names this worker at the fault layer ("w0", "w1", …): the
	// chaos harness targets individual workers by it, and recovered
	// panics carry it as the owning identity.
	faultKey string

	localSteps int64 // steps not yet flushed to st.steps
	canonSteps int64 // nodes visited by the canonicalisation pass
	// canonAborted marks a canonicalisation pass cut short by the context;
	// the replay unwinds without touching the incumbent set.
	canonAborted bool
}

func newSearcher(st *exactState, pool *workPool) *searcher {
	w := &searcher{
		st:     st,
		pool:   pool,
		curSet: make([]uint64, st.words),
		bufP:   make([][]uint64, st.n+1),
		rest:   make([]uint64, st.words),
		grow:   make([]uint64, st.words),
	}
	for d := range w.bufP {
		w.bufP[d] = make([]uint64, st.words)
	}
	return w
}

// noLimit asks bound for its exact value rather than a prune decision.
const noLimit = math.MaxInt64

// bound returns an upper bound on the weight obtainable from the candidate
// set P. Callers only compare it against limit, so it stops as soon as its
// running total exceeds limit and returns that partial total — already
// enough to know the subtree cannot be pruned. Pass noLimit for the full
// value (the donation ceiling).
//
// The bound is a greedy clique partition of P, rebuilt at every search
// node (partitionBound). A supplied cover (Options.CliqueCover) is checked
// first as a cheap static filter: when it already proves the prune the
// partition is never built, otherwise the smaller of the two bounds wins.
func (w *searcher) bound(p []uint64, limit int64) int64 {
	if w.st.cover != nil {
		static := w.coverBound(p)
		if static <= limit {
			return static
		}
		return min(static, w.partitionBound(p, limit))
	}
	return w.partitionBound(p, limit)
}

// coverBound is the supplied cover's bound: for every part, the weight of
// its first — in rank space, heaviest — node still in P.
func (w *searcher) coverBound(p []uint64) int64 {
	st := w.st
	var total int64
	for _, part := range st.cover {
		for i, word := range part {
			if x := word & p[i]; x != 0 {
				total += st.weights[i*64+bits.TrailingZeros64(x)]
				break
			}
		}
	}
	return total
}

// partitionBound partitions P into cliques greedily and sums each clique's
// maximum weight. It takes the first node u of the unassigned rest (the
// heaviest, so w(u) is the clique's maximum), grows a clique from u
// through rest ∩ N(u) by always taking the first remaining candidate, and
// removes that clique from rest — until rest is empty or the total
// exceeds limit.
func (w *searcher) partitionBound(p []uint64, limit int64) int64 {
	st := w.st
	rest, grow := w.rest, w.grow
	copy(rest, p)
	var total int64
	for lo := 0; lo < len(rest); {
		if rest[lo] == 0 {
			lo++
			continue
		}
		u := lo*64 + bits.TrailingZeros64(rest[lo])
		total += st.weights[u]
		if total > limit {
			return total
		}
		rest[lo] &= rest[lo] - 1
		nu := st.closed[u]
		for i := lo; i < len(rest); i++ {
			grow[i] = rest[i] & nu[i]
		}
		for gi := lo; gi < len(grow); {
			if grow[gi] == 0 {
				gi++
				continue
			}
			b := bits.TrailingZeros64(grow[gi])
			grow[gi] &= grow[gi] - 1
			rest[gi] &^= 1 << uint(b)
			nv := st.closed[gi*64+b]
			for i := gi; i < len(grow); i++ {
				grow[i] &= nv[i]
			}
		}
	}
	return total
}

// pickBranchNode returns the first node of P in rank order — the
// maximum-weight node, lowest ID among ties — or -1 if P is empty.
func pickBranchNode(p []uint64) int {
	for i, word := range p {
		if word != 0 {
			return i*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// exactSequential runs the single-goroutine engine: the exact code path
// (and step accounting) the solver always had. The search is wrapped in
// panic containment: the incumbent is only ever written as a complete
// valid independent set, so a panic anywhere in the recursion degrades
// the solve to the incumbent with a *fault.PanicError — the same shape a
// blown budget has. The single worker is named "w0" at the fault layer,
// matching the parallel engine's worker-0 key.
func exactSequential(st *exactState) (Solution, error) {
	w := newSearcher(st, nil)
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				st.panics.Add(1)
				err = fault.NewPanicError("solver worker w0", r)
			}
		}()
		fault.MaybePanic(fault.SolverPanic, "w0")
		return w.searchSeq(st.rootCandidates(), 0, 0)
	}()
	st.steps.Store(w.localSteps)
	if err != nil {
		// Budget exhausted: the incumbent (seeded with the greedy solution
		// and only ever improved) is still a valid independent set, so
		// return it with Optimal unset alongside the error. Budget-capped
		// callers get a usable lower-bound witness instead of nothing.
		return st.solution(false, w.localSteps), err
	}
	return st.solution(true, w.localSteps), nil
}

func (w *searcher) searchSeq(p []uint64, cur int64, depth int) error {
	st := w.st
	w.localSteps++
	// Cancellation polls on the budget-batch cadence, not per node — and
	// additionally whenever the budget is about to trip, so a solve that
	// is both cancelled and over budget reports the context, matching the
	// parallel engine's precedence (flushAndCheck) at every worker count.
	if st.ctxDone != nil && (w.localSteps%stepFlushBatch == 0 || w.localSteps > st.maxSteps) {
		select {
		case <-st.ctxDone:
			st.cancelled.Store(true)
			return st.ctx.Err()
		default:
		}
	}
	if w.localSteps > st.maxSteps {
		return fmt.Errorf("%w after %d steps", ErrBudgetExceeded, w.localSteps)
	}
	if cur > st.best.Load() {
		st.best.Store(cur)
		copy(st.bestSet, w.curSet)
		if st.progress != nil {
			st.progress.OnIncumbent(obs.ProgressEvent{Weight: cur, Steps: w.localSteps})
		}
	}
	v := pickBranchNode(p)
	if v == -1 {
		return nil
	}
	if limit := st.best.Load() - cur; w.bound(p, limit) <= limit {
		return nil
	}
	// Branch 1: include v.
	child := w.bufP[depth]
	for i := range child {
		child[i] = p[i] &^ st.closed[v][i]
	}
	w.curSet[v/64] |= 1 << (uint(v) % 64)
	if err := w.searchSeq(child, cur+st.weights[v], depth+1); err != nil {
		return err
	}
	w.curSet[v/64] &^= 1 << (uint(v) % 64)
	// Branch 2: exclude v. Mutating p in place is safe: the parent frame
	// never re-reads its candidate set after this call.
	p[v/64] &^= 1 << (uint(v) % 64)
	return w.searchSeq(p, cur, depth)
}

// validateCover checks that a supplied clique cover (nil means none)
// partitions the nodes of g into cliques.
func validateCover(g *graphs.Graph, cover [][]graphs.NodeID) error {
	if cover == nil {
		return nil
	}
	n := g.N()
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	for c, clique := range cover {
		if !g.IsClique(clique) {
			return fmt.Errorf("mis: cover part %d is not a clique", c)
		}
		for _, v := range clique {
			if v < 0 || v >= n {
				return fmt.Errorf("mis: cover node %d out of range", v)
			}
			if id[v] != -1 {
				return fmt.Errorf("mis: node %d appears in cover parts %d and %d", v, id[v], c)
			}
			id[v] = c
		}
	}
	for v, c := range id {
		if c == -1 {
			return fmt.Errorf("mis: node %d (%s) missing from cover", v, g.Label(v))
		}
	}
	return nil
}
