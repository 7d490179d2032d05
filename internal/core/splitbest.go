package core

import (
	"fmt"

	"congestlb/internal/cc"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// SplitBestReport is the outcome of the Section 1 limitation protocol.
type SplitBestReport struct {
	// PlayerValues are the local optima w(OPT(G[V^i])).
	PlayerValues []int64
	// Best is the maximum of the local optima — the protocol's output.
	Best int64
	// Bits is the blackboard cost: one value announcement per player.
	Bits int64
	// Opt is the global optimum (computed for comparison, not part of
	// the protocol).
	Opt int64
}

// Ratio returns Best/Opt, the achieved approximation.
func (r SplitBestReport) Ratio() float64 {
	if r.Opt == 0 {
		return 1
	}
	return float64(r.Best) / float64(r.Opt)
}

// SplitBest runs the protocol behind the paper's limitation argument
// ("the two-party framework cannot show any lower bound against
// (1/2)-approximation"): each player solves MaxIS exactly on its own part
// G[V^i] with zero communication, writes the value on the blackboard
// (O(log n) bits), and everyone outputs the maximum.
//
// Since the V^i partition the nodes, some part carries at least a 1/t
// fraction of the global optimum's weight, so Best ≥ Opt/t — with only
// t·O(log n) bits of communication. For t = 2 this is the 1/2-approximation
// that caps the two-party framework; more players weaken the cap to 1/t,
// which is exactly why the multi-party framework can push below 1/2.
func SplitBest(inst Instance) (SplitBestReport, error) {
	return SplitBestWith(nil, inst)
}

// SplitBestWith is SplitBest with every exact solve routed through the
// given solve session (nil = direct solves), so callers get exact
// attribution of the protocol's solver work.
func SplitBestWith(sess *cache.Session, inst Instance) (SplitBestReport, error) {
	g, part := inst.Graph, inst.Partition
	if err := part.Validate(g); err != nil {
		return SplitBestReport{}, err
	}
	t := part.T()
	var board cc.Blackboard
	values := make([]int64, t)
	for i := 0; i < t; i++ {
		nodes := part.PlayerNodes(i)
		sub, _, err := g.InducedSubgraph(nodes)
		if err != nil {
			return SplitBestReport{}, fmt.Errorf("core: player %d subgraph: %w", i, err)
		}
		sol, err := sess.Exact(sub, mis.Options{CliqueCover: coverWithin(inst, nodes)})
		if err != nil {
			return SplitBestReport{}, fmt.Errorf("core: player %d local solve: %w", i, err)
		}
		values[i] = sol.Weight
		// Announce the value: 8 bytes, charged at 64 = O(log n) bits.
		payload := make([]byte, 8)
		for b := 0; b < 8; b++ {
			payload[b] = byte(sol.Weight >> (8 * b))
		}
		if err := board.Write(i, fmt.Sprintf("w(OPT(G[V^%d]))", i+1), payload, 64); err != nil {
			return SplitBestReport{}, err
		}
	}
	best := values[0]
	for _, v := range values[1:] {
		if v > best {
			best = v
		}
	}
	globalSol, err := sess.Exact(g, mis.Options{CliqueCover: inst.CliqueCover})
	if err != nil {
		return SplitBestReport{}, fmt.Errorf("core: global solve: %w", err)
	}
	return SplitBestReport{
		PlayerValues: values,
		Best:         best,
		Bits:         board.Bits(),
		Opt:          globalSol.Weight,
	}, nil
}

// coverWithin restricts an instance's clique cover to the given nodes,
// renumbered to the induced subgraph's IDs (which follow the order of
// `nodes`). Returns nil (solver falls back to greedy) when the instance
// has no cover.
func coverWithin(inst Instance, nodes []graphs.NodeID) [][]graphs.NodeID {
	if inst.CliqueCover == nil {
		return nil
	}
	newID := make(map[graphs.NodeID]graphs.NodeID, len(nodes))
	for i, u := range nodes {
		newID[u] = i
	}
	var out [][]graphs.NodeID
	for _, part := range inst.CliqueCover {
		var mapped []graphs.NodeID
		for _, u := range part {
			if id, in := newID[u]; in {
				mapped = append(mapped, id)
			}
		}
		if len(mapped) > 0 {
			out = append(out, mapped)
		}
	}
	return out
}
