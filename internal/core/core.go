// Package core implements the multi-party reduction framework of Efron,
// Grossman and Khoury (PODC 2020): families of lower bound graphs
// (Definition 4), gap predicates for γ-approximate MaxIS families
// (Definitions 5-6), the simulation argument that turns a CONGEST algorithm
// into a shared-blackboard protocol (Theorem 5), and the round-lower-bound
// calculators that combine it with communication complexity (Corollary 1,
// Theorems 1-2).
//
// The package is the seam between the two models: internal/congest
// simulates the distributed side, internal/cc accounts the communication
// side, and Simulate runs them joined — every message crossing the player
// partition is charged, bit-exactly, to a blackboard, and the resulting
// transcript length is checked against the 2T·|cut|·B accounting bound
// (B bits per cut edge, per direction, per round) that the paper's lower
// bounds rest on.
package core

import (
	"errors"
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/graphs"
)

// Instance is a built lower-bound graph G_x̄ together with the player
// partition of Definition 4 and the construction's natural clique cover
// (used to make exact MaxIS solving tractable).
type Instance struct {
	Graph     *graphs.Graph
	Partition *graphs.Partition
	// CliqueCover partitions the nodes into cliques (the A^i and C^i_h of
	// the constructions). May be nil if a family has no natural cover.
	CliqueCover [][]graphs.NodeID
}

// Family is a family of lower bound graphs with respect to the promise
// pairwise disjointness function and a MaxIS gap predicate — the object
// Definition 4 quantifies over, specialised per Definition 6.
type Family interface {
	// Name identifies the family in reports.
	Name() string
	// Players returns t, the number of players/parts.
	Players() int
	// InputBits returns the per-player input length (k for the linear
	// family, k² for the quadratic one).
	InputBits() int
	// Build constructs G_x̄ from the input vector x̄.
	Build(in bitvec.Inputs) (Instance, error)
	// Gap returns the family's gap predicate thresholds.
	Gap() GapPredicate
	// WitnessLarge returns, for a uniquely-intersecting input, an
	// independent set of weight at least Gap().Beta — the constructive
	// half of the gap argument (Property 1 / Claims 1, 3, 6).
	WitnessLarge(in bitvec.Inputs, inst Instance) ([]graphs.NodeID, error)
}

// GapPredicate carries the thresholds of a γ-approximate MaxIS family
// (Definition 6): on uniquely-intersecting inputs the MaxIS weight is at
// least Beta; on pairwise-disjoint inputs it is at most SmallMax = γ·β.
type GapPredicate struct {
	Beta     int64
	SmallMax int64
}

// Ratio returns γ = SmallMax/Beta, the approximation factor separated by
// the predicate.
func (g GapPredicate) Ratio() float64 {
	if g.Beta == 0 {
		return 0
	}
	return float64(g.SmallMax) / float64(g.Beta)
}

// Valid reports whether the predicate actually separates (Beta > SmallMax).
// Small parameterisations of the constructions can be built and audited
// even when their gap is vacuous; only valid gaps yield lower bounds.
func (g GapPredicate) Valid() bool { return g.Beta > g.SmallMax }

// ErrGapViolated reports a MaxIS value falling strictly between the two
// thresholds, which the promise makes impossible for honest families.
var ErrGapViolated = errors.New("core: MaxIS weight inside the forbidden gap")

// Decide maps a MaxIS weight to the value of the promise pairwise
// disjointness function: TRUE (pairwise disjoint) for weight ≤ SmallMax,
// FALSE (uniquely intersecting) for weight ≥ Beta.
func (g GapPredicate) Decide(opt int64) (bool, error) {
	switch {
	case opt >= g.Beta:
		return false, nil
	case opt <= g.SmallMax:
		return true, nil
	default:
		return false, fmt.Errorf("%w: %d in (%d,%d)", ErrGapViolated, opt, g.SmallMax, g.Beta)
	}
}

// AuditLocality mechanically checks condition 1 of Definition 4 on a pair
// of input vectors differing only in player i's string: the two built
// graphs must agree on everything except node weights inside V^i and edges
// inside V^i × V^i. This is exactly what lets player i build its part
// without communication. Nodes are compared by ID: a family that moved a
// node from one player to another between the two builds fails the
// ownership check, and graphs carry no names to compare.
func AuditLocality(fam Family, a, b bitvec.Inputs, i int) error {
	if len(a) != len(b) {
		return fmt.Errorf("core: input tuples of different arity")
	}
	for j := range a {
		if j != i && !a[j].Equal(b[j]) {
			return fmt.Errorf("core: inputs differ at player %d, expected only %d", j, i)
		}
	}
	instA, err := fam.Build(a)
	if err != nil {
		return fmt.Errorf("core: build a: %w", err)
	}
	instB, err := fam.Build(b)
	if err != nil {
		return fmt.Errorf("core: build b: %w", err)
	}
	ga, gb := instA.Graph, instB.Graph
	if ga.N() != gb.N() {
		return fmt.Errorf("core: node counts differ: %d vs %d", ga.N(), gb.N())
	}
	pa := instA.Partition
	for u := 0; u < ga.N(); u++ {
		if pa.Of(u) != instB.Partition.Of(u) {
			return fmt.Errorf("core: node %d owned by %d vs %d", u, pa.Of(u), instB.Partition.Of(u))
		}
		if ga.Weight(u) != gb.Weight(u) && pa.Of(u) != i {
			return fmt.Errorf("core: weight of node %d (player %d) depends on player %d's input",
				u, pa.Of(u), i)
		}
	}
	// Edge differences must lie inside V^i × V^i.
	diff := func(x, y *graphs.Graph) error {
		for _, e := range x.Edges() {
			if !y.HasEdge(e.U, e.V) {
				if pa.Of(e.U) != i || pa.Of(e.V) != i {
					return fmt.Errorf("core: edge {%d,%d} across players %d,%d depends on player %d's input",
						e.U, e.V, pa.Of(e.U), pa.Of(e.V), i)
				}
			}
		}
		return nil
	}
	if err := diff(ga, gb); err != nil {
		return err
	}
	return diff(gb, ga)
}

// AuditGap builds the instance for an input tuple, computes the exact
// MaxIS weight, and checks the appropriate side of the gap predicate,
// returning the measured optimum. The solver uses the family's clique
// cover. Intended for small, exactly-solvable parameterisations.
func AuditGap(fam Family, in bitvec.Inputs, exact func(Instance) (int64, error)) (int64, error) {
	inst, err := fam.Build(in)
	if err != nil {
		return 0, err
	}
	return AuditGapBuilt(fam, in, inst, exact)
}

// AuditGapBuilt is AuditGap over a caller-built instance of fam for in,
// for callers that build the instance themselves (the experiments count
// their constructions).
func AuditGapBuilt(fam Family, in bitvec.Inputs, inst Instance, exact func(Instance) (int64, error)) (int64, error) {
	truth, err := in.PromisePairwiseDisjointness()
	if err != nil {
		return 0, err
	}
	opt, err := exact(inst)
	if err != nil {
		return 0, err
	}
	gap := fam.Gap()
	if truth { // pairwise disjoint → small side
		if opt > gap.SmallMax {
			return opt, fmt.Errorf("core: disjoint input has MaxIS %d > SmallMax %d", opt, gap.SmallMax)
		}
		return opt, nil
	}
	// uniquely intersecting → large side
	if opt < gap.Beta {
		return opt, fmt.Errorf("core: intersecting input has MaxIS %d < Beta %d", opt, gap.Beta)
	}
	return opt, nil
}
