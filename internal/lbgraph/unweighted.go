package lbgraph

import (
	"fmt"

	"congestlb/internal/graphs"
)

// BlowupResult is the unweighted graph produced by Remark 1's transform,
// with the bookkeeping needed to interpret it.
type BlowupResult struct {
	// Graph is the unweighted (all weights 1) blow-up.
	Graph *graphs.Graph
	// Partition assigns blown-up nodes to the owner of their original.
	Partition *graphs.Partition
	// Groups maps each original node to its copies: Groups[v] lists the
	// new node IDs of the independent set I(v) replacing v.
	Groups [][]graphs.NodeID
}

// Blowup applies the Remark 1 transform: every node v of weight w(v) is
// replaced by an independent set I(v) of w(v) unit-weight nodes, and every
// original edge {u, v} becomes the complete bipartite graph between I(u)
// and I(v). The maximum independent set weight is preserved exactly: any
// IS of the blow-up can be normalised to take all or none of each group,
// and groups behave like their original node.
func Blowup(g *graphs.Graph, part *graphs.Partition) (BlowupResult, error) {
	if part != nil {
		if err := part.Validate(g); err != nil {
			return BlowupResult{}, err
		}
	}
	total := g.TotalWeight()
	if total > 1<<22 {
		return BlowupResult{}, fmt.Errorf("lbgraph: blow-up would have %d nodes", total)
	}
	out := graphs.New(int(total))
	var newPart *graphs.Partition
	if part != nil {
		var err error
		if newPart, err = graphs.NewPartition(int(total), part.T()); err != nil {
			return BlowupResult{}, err
		}
	}
	groups := make([][]graphs.NodeID, g.N())
	for v := 0; v < g.N(); v++ {
		w := g.Weight(v)
		if w < 1 {
			return BlowupResult{}, fmt.Errorf("lbgraph: node %d has weight %d < 1", v, w)
		}
		group := make([]graphs.NodeID, w)
		for c := range group {
			group[c] = out.AddNodeID(1)
			if part != nil {
				newPart.MustAssign(group[c], part.Of(v))
			}
		}
		groups[v] = group
	}
	for _, e := range g.Edges() {
		if err := out.AddBiclique(groups[e.U], groups[e.V]); err != nil {
			return BlowupResult{}, err
		}
	}
	return BlowupResult{Graph: out, Partition: newPart, Groups: groups}, nil
}

// BlowupCover translates a clique cover of the original graph to the
// blow-up. A clique of originals does not stay a clique (each group is
// independent), so each original clique part becomes w_max parts: the
// c-th copy of every member with at least c copies forms a clique (all
// groups of a clique are pairwise fully connected).
func BlowupCover(cover [][]graphs.NodeID, res BlowupResult) [][]graphs.NodeID {
	var out [][]graphs.NodeID
	for _, part := range cover {
		maxLayer := 0
		for _, v := range part {
			if len(res.Groups[v]) > maxLayer {
				maxLayer = len(res.Groups[v])
			}
		}
		for layer := 0; layer < maxLayer; layer++ {
			var clique []graphs.NodeID
			for _, v := range part {
				if layer < len(res.Groups[v]) {
					clique = append(clique, res.Groups[v][layer])
				}
			}
			if len(clique) > 0 {
				out = append(out, clique)
			}
		}
	}
	return out
}
