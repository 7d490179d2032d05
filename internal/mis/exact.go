package mis

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/obs"
)

// ErrBudgetExceeded is returned when branch-and-bound exhausts its step
// budget before proving optimality.
var ErrBudgetExceeded = errors.New("mis: search budget exceeded")

// Options configures the Exact solver. The zero value is valid: the
// per-node clique-partition bound runs alone and a default step budget
// applies.
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
	// 0 means the default (50 million). The bound is exact: a solve that
	// needs more stops at MaxSteps+1 with ErrBudgetExceeded.
	MaxSteps int64
	// Progress, when non-nil, receives one event per incumbent
	// improvement: the initial greedy seed before the search starts,
	// then every strictly better independent set the search installs.
	// Events fire inline from the search, so a single solve delivers a
	// strictly weight-increasing sequence. The field is deliberately
	// excluded from the solve-cache key (internal/mis/cache KeyOf):
	// observing a solve must not change what it computes — but that also
	// means a lookup served from cache, or collapsed onto another
	// caller's in-flight solve, fires no events.
	//
	// The per-node hot path is untouched: the only added branches sit on
	// the improvement sites, which fire at most once per distinct
	// incumbent weight.
	Progress obs.ProgressObserver
}

const defaultMaxSteps = 50_000_000

// stepFlushBatch is the cancellation cadence: the search polls its
// context once every stepFlushBatch explored nodes, so an unused poll
// costs one modulo per node rather than a channel operation.
const stepFlushBatch = 1024

// Exact computes a maximum-weight independent set by branch-and-bound with
// a clique-partition upper bound: any independent set contains at most one
// node per clique, so for any partition of the candidate set P into
// cliques, Σ_cliques max_{v ∈ P ∩ C} w(v) bounds what remains of P. The
// partition is rebuilt greedily from P at every search node (see bound).
//
// The search is a single depth-first walk in a fixed order, so the whole
// Solution — Set, Weight and Steps — is a function of the graph and the
// options alone.
//
// When the step budget runs out, Exact returns ErrBudgetExceeded together
// with the best incumbent found so far (Optimal false) — a valid, possibly
// sub-optimal witness budget-capped callers can still use.
func Exact(g *graphs.Graph, opts Options) (Solution, error) {
	return ExactCtx(context.Background(), g, opts)
}

// ExactCtx is Exact under a context: cancellation is polled every
// stepFlushBatch explored nodes (and whenever the budget is about to
// trip), and a cancelled solve returns the best incumbent found so far
// together with ctx.Err() — exactly the ErrBudgetExceeded contract, so the
// witness is a valid independent set whatever instant the context fired.
// A nil ctx means Background.
func ExactCtx(ctx context.Context, g *graphs.Graph, opts Options) (Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if g.N() == 0 {
		return Solution{Optimal: true}, nil
	}
	// A context that is already dead never starts the search: the greedy
	// seed incumbent comes back immediately — checked before any solver
	// state is built, so the n per-node solves of a cancelled CONGEST run
	// don't each pay the bitset/cover setup.
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
	st.ctx = ctx
	st.ctxDone = ctx.Done()
	st.progress = opts.Progress
	if st.progress != nil {
		// The seed event: observers see the greedy starting weight before
		// the search runs, so even a search that never improves (or is
		// cancelled instantly) reports where it stood.
		st.progress.OnIncumbent(obs.ProgressEvent{Weight: st.best})
	}
	return st.run()
}

// exactState is the problem data, the incumbent and the search scratch of
// one Exact call.
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
	steps    int64 // explored search nodes
	// ctx/ctxDone carry the caller's cancellation signal, polled on the
	// stepFlushBatch cadence. ctxDone is nil for contexts that can never
	// cancel, which keeps the poll free on the common path.
	ctx     context.Context
	ctxDone <-chan struct{}

	best    int64    // incumbent weight
	bestSet []uint64 // incumbent set (rank bitset)
	// progress, when set, is fired inline on every incumbent improvement
	// (Options.Progress).
	progress obs.ProgressObserver

	curSet []uint64   // chosen set on the current DFS path (rank bitset)
	bufP   [][]uint64 // per-depth candidate buffers, no per-call allocation
	// Clique-partition scratch for bound: rest is the part of P not yet
	// assigned to a clique, grow the candidates that can still extend the
	// clique being built. Rewritten on every bound call.
	rest, grow []uint64
}

// newExactState builds the solver state in rank space and seeds the
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
		curSet:   make([]uint64, words),
		bufP:     make([][]uint64, n+1),
		rest:     make([]uint64, words),
		grow:     make([]uint64, words),
	}
	for d := range st.bufP {
		st.bufP[d] = make([]uint64, words)
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
	st.best = seed.Weight
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

// solution materialises the incumbent as a Solution.
func (st *exactState) solution(optimal bool) Solution {
	set := make([]graphs.NodeID, 0)
	for r := 0; r < st.n; r++ {
		if st.bestSet[r/64]&(1<<(uint(r)%64)) != 0 {
			set = append(set, st.node[r])
		}
	}
	sort.Ints(set)
	return Solution{Set: set, Weight: st.best, Optimal: optimal, Steps: st.steps}
}

// bound returns an upper bound on the weight obtainable from the candidate
// set P. Callers only compare it against limit, so it stops as soon as its
// running total exceeds limit and returns that partial total — already
// enough to know the subtree cannot be pruned.
//
// The bound is a greedy clique partition of P, rebuilt at every search
// node (partitionBound). A supplied cover (Options.CliqueCover) is checked
// first as a cheap static filter: when it already proves the prune the
// partition is never built, otherwise the smaller of the two bounds wins.
func (st *exactState) bound(p []uint64, limit int64) int64 {
	if st.cover != nil {
		static := st.coverBound(p)
		if static <= limit {
			return static
		}
		return min(static, st.partitionBound(p, limit))
	}
	return st.partitionBound(p, limit)
}

// coverBound is the supplied cover's bound: for every part, the weight of
// its first — in rank space, heaviest — node still in P.
func (st *exactState) coverBound(p []uint64) int64 {
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
func (st *exactState) partitionBound(p []uint64, limit int64) int64 {
	rest, grow := st.rest, st.grow
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

// run searches from the root under panic containment: the incumbent is
// only ever written as a complete valid independent set, so a panic
// anywhere in the recursion degrades the solve to the incumbent with a
// *fault.PanicError — the same shape a blown budget has. The search is
// named "w0" at the fault layer, which the chaos plans target.
func (st *exactState) run() (Solution, error) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fault.NewPanicError("solver worker w0", r)
			}
		}()
		fault.MaybePanic(fault.SolverPanic, "w0")
		return st.search(st.rootCandidates(), 0, 0)
	}()
	if err != nil {
		// Budget exhausted, cancelled or panicked: the incumbent (seeded
		// with the greedy solution and only ever improved) is still a
		// valid independent set, so return it with Optimal unset alongside
		// the error. Callers get a usable lower-bound witness instead of
		// nothing.
		return st.solution(false), err
	}
	return st.solution(true), nil
}

func (st *exactState) search(p []uint64, cur int64, depth int) error {
	st.steps++
	// Cancellation polls on the stepFlushBatch cadence, not per node — and
	// additionally whenever the budget is about to trip, so a solve that
	// is both cancelled and over budget reports the context.
	if st.ctxDone != nil && (st.steps%stepFlushBatch == 0 || st.steps > st.maxSteps) {
		select {
		case <-st.ctxDone:
			return st.ctx.Err()
		default:
		}
	}
	if st.steps > st.maxSteps {
		return fmt.Errorf("%w after %d steps", ErrBudgetExceeded, st.steps)
	}
	if cur > st.best {
		st.best = cur
		copy(st.bestSet, st.curSet)
		if st.progress != nil {
			st.progress.OnIncumbent(obs.ProgressEvent{Weight: cur, Steps: st.steps})
		}
	}
	v := pickBranchNode(p)
	if v == -1 {
		return nil
	}
	if limit := st.best - cur; st.bound(p, limit) <= limit {
		return nil
	}
	// Branch 1: include v.
	child := st.bufP[depth]
	for i := range child {
		child[i] = p[i] &^ st.closed[v][i]
	}
	st.curSet[v/64] |= 1 << (uint(v) % 64)
	if err := st.search(child, cur+st.weights[v], depth+1); err != nil {
		return err
	}
	st.curSet[v/64] &^= 1 << (uint(v) % 64)
	// Branch 2: exclude v. Mutating p in place is safe: the parent frame
	// never re-reads its candidate set after this call.
	p[v/64] &^= 1 << (uint(v) % 64)
	return st.search(p, cur, depth)
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
			return fmt.Errorf("mis: node %d missing from cover", v)
		}
	}
	return nil
}
