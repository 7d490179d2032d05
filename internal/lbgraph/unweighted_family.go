package lbgraph

import (
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
)

// UnweightedLinear is the Remark 1 family: the linear construction pushed
// through the weighted→unweighted blow-up. Its instances are unweighted
// graphs (every node has weight 1) whose MaxIS values equal the weighted
// originals, so the gap thresholds are unchanged and any CONGEST algorithm
// for unweighted MaxIS decides the same promise function.
//
// Note one structural difference from the weighted family: the number of
// nodes depends on the inputs (a 1 bit turns one node into ℓ), so the
// node set itself varies with x̄. This is faithful to Remark 1 — each
// blown-up group lies entirely inside its owner's part V^i, which is all
// Definition 4's locality condition needs — but it means the strict
// fixed-node-set audit (core.AuditLocality) does not apply to this family.
type UnweightedLinear struct {
	inner *Linear
}

var _ core.Family = (*UnweightedLinear)(nil)

// NewUnweightedLinear constructs the family for the given parameters.
func NewUnweightedLinear(p Params) (*UnweightedLinear, error) {
	inner, err := NewLinear(p)
	if err != nil {
		return nil, err
	}
	return &UnweightedLinear{inner: inner}, nil
}

// Params returns the underlying parameters.
func (u *UnweightedLinear) Params() Params { return u.inner.Params() }

// Name implements core.Family.
func (u *UnweightedLinear) Name() string { return "unweighted-" + u.inner.Name() }

// Players implements core.Family.
func (u *UnweightedLinear) Players() int { return u.inner.Players() }

// InputBits implements core.Family.
func (u *UnweightedLinear) InputBits() int { return u.inner.InputBits() }

// Gap implements core.Family: the blow-up preserves MaxIS exactly, so the
// thresholds carry over unchanged.
func (u *UnweightedLinear) Gap() core.GapPredicate { return u.inner.Gap() }

// Build implements core.Family: the weighted instance followed by the
// Remark 1 blow-up, with the clique cover translated layer by layer. The
// blow-up is linear in the output size.
func (u *UnweightedLinear) Build(in bitvec.Inputs) (core.Instance, error) {
	weighted, err := u.inner.Build(in)
	if err != nil {
		return core.Instance{}, err
	}
	res, err := Blowup(weighted.Graph, weighted.Partition)
	if err != nil {
		return core.Instance{}, fmt.Errorf("lbgraph: remark 1 blow-up: %w", err)
	}
	return core.Instance{
		Graph:       res.Graph,
		Partition:   res.Partition,
		CliqueCover: BlowupCover(weighted.CliqueCover, res),
	}, nil
}

// WitnessLarge implements core.Family: the weighted witness mapped through
// the blow-up groups — every copy of every witness node. Group copies of a
// weighted node are mutually independent and inherit their original's
// non-adjacencies, so the image remains independent, with unweighted size
// equal to the weighted witness weight ≥ Beta.
func (u *UnweightedLinear) WitnessLarge(in bitvec.Inputs, inst core.Instance) ([]graphs.NodeID, error) {
	weighted, err := u.inner.Build(in)
	if err != nil {
		return nil, err
	}
	res, err := Blowup(weighted.Graph, weighted.Partition)
	if err != nil {
		return nil, err
	}
	innerWitness, err := u.inner.WitnessLarge(in, weighted)
	if err != nil {
		return nil, err
	}
	var out []graphs.NodeID
	for _, v := range innerWitness {
		out = append(out, res.Groups[v]...)
	}
	return out, nil
}
