package lbgraph_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/lbgraph"
)

// readPass reads g through every exported read method of graphs.Graph,
// DOT with the family's NodeName included, and returns what it read.
func readPass(g *graphs.Graph, l *lbgraph.Linear, part *graphs.Partition) string {
	var sb strings.Builder
	n := g.N()
	all := make([]graphs.NodeID, n)
	for u := range all {
		all[u] = u
	}
	fmt.Fprintln(&sb, n, g.M(), g.TotalWeight(), g.WeightOfSet(all), g.MaxDegree())
	for u := 0; u < n; u++ {
		var visited []graphs.NodeID
		g.ForEachNeighbor(u, func(v graphs.NodeID) { visited = append(visited, v) })
		fmt.Fprintln(&sb, u, g.Weight(u), g.Degree(u), g.Neighbors(u), visited, g.BFS(u))
		for v := 0; v < n; v++ {
			if g.HasEdge(u, v) {
				fmt.Fprint(&sb, v, " ")
			}
		}
		fmt.Fprintln(&sb)
	}
	a, sigma := []graphs.NodeID{l.ANode(0, 0), l.ANode(0, 1)}, []graphs.NodeID{l.SigmaNode(0, 0, 0), l.SigmaNode(1, 0, 0)}
	fmt.Fprintln(&sb, g.Edges(), g.IsClique(a), g.IsClique(sigma), g.IsIndependentSet(a), g.IsIndependentSet(sigma))
	fmt.Fprintln(&sb, g.IsConnected(), g.Diameter(), g.Validate())
	fmt.Fprint(&sb, g.Clone().DOT("clone", l.NodeName, part))
	sub, back, err := g.InducedSubgraph(part.PlayerNodes(1))
	fmt.Fprintln(&sb, back, err)
	fmt.Fprint(&sb, sub.DOT("V^2", func(u graphs.NodeID) string { return l.NodeName(back[u]) }, nil))
	fmt.Fprint(&sb, g.DOT("G", l.NodeName, part))
	return sb.String()
}

// TestConcurrentInstanceReaders: four goroutines read one built linear
// instance through every read method of its graph and each reads what one
// pass on the test goroutine read. No read writes the graph, so this
// holds under -race.
func TestConcurrentInstanceReaders(t *testing.T) {
	const readers = 4
	// t=3 gives 72 nodes, so every row spans two words.
	l, err := lbgraph.NewLinear(lbgraph.Params{T: 3, Alpha: 1, Ell: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := l.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	if !g.IsConnected() || g.Diameter() <= 0 || g.N() <= 64 {
		t.Fatalf("instance: n=%d, connected %v, diameter %d; want a connected graph past one word",
			g.N(), g.IsConnected(), g.Diameter())
	}
	want := readPass(g, l, inst.Partition)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := readPass(g, l, inst.Partition); got != want {
				t.Errorf("a concurrent pass read something else than the sequential one")
			}
		}()
	}
	wg.Wait()
}
