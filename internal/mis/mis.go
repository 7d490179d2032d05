// Package mis computes maximum-weight independent sets. It is the
// verification engine for the lower-bound graph families of Efron,
// Grossman and Khoury (PODC 2020): Claims 1-7 of the paper assert exact
// bounds on the MaxIS weight of the constructed graphs, and this package
// checks them mechanically.
//
// Three solvers are provided with different trust/performance profiles:
//
//   - Exhaustive: subset dynamic programming, O(2^n); the reference oracle
//     for n ≤ ~24.
//   - Exact: branch-and-bound with a clique-partition upper bound, rebuilt
//     greedily from the candidate set at every search node; handles the
//     clique-dense lower-bound constructions into the hundreds of nodes.
//     The caller may supply the construction's natural clique cover, which
//     then serves as a cheap first filter before the partition is built.
//   - Greedy: the classical weight/(degree+1) heuristic; no optimality
//     guarantee, used as a lower-bound seed and an experiment baseline.
//
// All solvers return witness sets, never just values, so every result can
// be re-verified with Verify.
package mis

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"congestlb/internal/graphs"
)

// Solution is an independent set together with its total weight.
type Solution struct {
	// Set holds the chosen nodes in increasing ID order.
	Set []graphs.NodeID
	// Weight is the sum of node weights of Set.
	Weight int64
	// Optimal reports whether the producing solver guarantees optimality.
	Optimal bool
	// Steps counts the branch-and-bound nodes explored by Exact (0 for
	// the other solvers); it quantifies how much pruning the clique
	// bound bought. Like Set and Weight it is deterministic: the same
	// graph and options always take the same number of steps.
	Steps int64
}

// Verify checks that set is an independent set in g with no duplicates and
// returns its weight.
func Verify(g *graphs.Graph, set []graphs.NodeID) (int64, error) {
	seen := make(map[graphs.NodeID]bool, len(set))
	var weight int64
	for _, u := range set {
		if u < 0 || u >= g.N() {
			return 0, fmt.Errorf("mis: node %d out of range [0,%d)", u, g.N())
		}
		if seen[u] {
			return 0, fmt.Errorf("mis: duplicate node %d", u)
		}
		seen[u] = true
		weight += g.Weight(u)
	}
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return 0, fmt.Errorf("mis: nodes %d and %d are adjacent", set[i], set[j])
			}
		}
	}
	return weight, nil
}

// IsMaximal reports whether set is a maximal independent set: independent,
// and every node outside it has a neighbour inside it.
func IsMaximal(g *graphs.Graph, set []graphs.NodeID) (bool, error) {
	if _, err := Verify(g, set); err != nil {
		return false, err
	}
	in := make([]bool, g.N())
	for _, u := range set {
		in[u] = true
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		dominated := false
		g.ForEachNeighbor(v, func(u graphs.NodeID) {
			if in[u] {
				dominated = true
			}
		})
		if !dominated {
			return false, nil
		}
	}
	return true, nil
}

// ErrTooLarge is returned when a solver's safety limit would be exceeded.
var ErrTooLarge = errors.New("mis: instance exceeds solver limit")

// Exhaustive computes a maximum-weight independent set by subset dynamic
// programming over all 2^n node subsets. It refuses graphs with more than
// 24 nodes. Its independence from the branch-and-bound code path makes it
// the cross-check oracle in tests.
func Exhaustive(g *graphs.Graph) (Solution, error) {
	n := g.N()
	if n > 24 {
		return Solution{}, fmt.Errorf("%w: %d nodes (Exhaustive max 24)", ErrTooLarge, n)
	}
	if n == 0 {
		return Solution{Optimal: true}, nil
	}
	// closed[v] = bitmask of v and its neighbours.
	closed := make([]uint32, n)
	for v := 0; v < n; v++ {
		mask := uint32(1) << uint(v)
		g.ForEachNeighbor(v, func(u graphs.NodeID) {
			mask |= 1 << uint(u)
		})
		closed[v] = mask
	}
	// best[mask] = max IS weight within the node set `mask`.
	best := make([]int64, 1<<uint(n))
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		v := bits.TrailingZeros32(mask)
		without := best[mask&^(1<<uint(v))]
		with := g.Weight(v) + best[mask&^closed[v]]
		if with > without {
			best[mask] = with
		} else {
			best[mask] = without
		}
	}
	// Reconstruct a witness.
	var set []graphs.NodeID
	mask := uint32(1<<uint(n)) - 1
	for mask != 0 {
		v := bits.TrailingZeros32(mask)
		if best[mask] == best[mask&^(1<<uint(v))] {
			mask &^= 1 << uint(v)
			continue
		}
		set = append(set, v)
		mask &^= closed[v]
	}
	sort.Ints(set)
	return Solution{Set: set, Weight: best[len(best)-1], Optimal: true}, nil
}

// GreedyStrategy selects how Greedy ranks candidate nodes.
type GreedyStrategy int

const (
	// GreedyByRatio picks the node maximising weight/(degree+1), the
	// classical weighted-greedy rule.
	GreedyByRatio GreedyStrategy = iota + 1
	// GreedyByWeight picks the heaviest remaining node.
	GreedyByWeight
	// GreedyByDegree picks the minimum-degree remaining node (breaking
	// ties by weight), the classical unweighted rule.
	GreedyByDegree
)

// SeedIncumbent returns the greedy solution the Exact search seeds its
// incumbent with — the floor every cancelled or budget-capped solve is
// guaranteed to return at least. It exists as the single definition of
// that seed: the solver's state constructor, the dead-context fast path
// and the cache's abandoned-waiter fallback all call it, so a future
// change of seed strategy cannot silently diverge between them.
func SeedIncumbent(g *graphs.Graph) Solution { return Greedy(g, GreedyByRatio) }

// Greedy computes a maximal independent set with the given strategy. The
// result is maximal but generally not optimal.
func Greedy(g *graphs.Graph, strategy GreedyStrategy) Solution {
	n := g.N()
	alive := make([]bool, n)
	degree := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		degree[v] = g.Degree(v)
	}
	remaining := n
	var set []graphs.NodeID
	var weight int64
	for remaining > 0 {
		bestV := -1
		var bestKey float64
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			var key float64
			switch strategy {
			case GreedyByWeight:
				key = float64(g.Weight(v))
			case GreedyByDegree:
				key = -float64(degree[v]) + float64(g.Weight(v))*1e-9
			default: // GreedyByRatio
				key = float64(g.Weight(v)) / float64(degree[v]+1)
			}
			if bestV == -1 || key > bestKey {
				bestV, bestKey = v, key
			}
		}
		set = append(set, bestV)
		weight += g.Weight(bestV)
		// Remove closed neighbourhood of bestV.
		kill := []graphs.NodeID{bestV}
		g.ForEachNeighbor(bestV, func(u graphs.NodeID) {
			if alive[u] {
				kill = append(kill, u)
			}
		})
		for _, u := range kill {
			alive[u] = false
			remaining--
			g.ForEachNeighbor(u, func(x graphs.NodeID) {
				if alive[x] {
					degree[x]--
				}
			})
		}
	}
	sort.Ints(set)
	return Solution{Set: set, Weight: weight, Optimal: false}
}
