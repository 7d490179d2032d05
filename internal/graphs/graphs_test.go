package graphs

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildPath returns a path graph with n nodes of weight 1.
func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(1)
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

func TestAddNode(t *testing.T) {
	g := New(0)
	a, b := g.AddNodeID(5), g.AddNodeID(7)
	if a != 0 || b != 1 || g.N() != 2 {
		t.Fatalf("IDs %d, %d and N %d, want 0, 1 and 2", a, b, g.N())
	}
	if g.Weight(a) != 5 || g.Weight(b) != 7 {
		t.Fatalf("weights %d, %d, want 5, 7", g.Weight(a), g.Weight(b))
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := buildPath(t, 3)
	if err := g.AddEdge(0, 0); err == nil || err.Error() != "graphs: self-loop at node 0" {
		t.Fatalf("self-loop: err = %v", err)
	}
	if err := g.AddEdge(0, 7); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	before := g.M()
	if err := g.AddEdge(0, 1); err != nil { // duplicate
		t.Fatal(err)
	}
	if g.M() != before {
		t.Fatal("duplicate edge changed edge count")
	}
}

func TestEdgesAndDegrees(t *testing.T) {
	g := buildPath(t, 4)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	wantDeg := []int{1, 2, 2, 1}
	for u, want := range wantDeg {
		if got := g.Degree(u); got != want {
			t.Fatalf("Degree(%d)=%d want %d", u, got, want)
		}
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	edges := g.Edges()
	want := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("Edges = %v", edges)
	}
	if !reflect.DeepEqual(g.Neighbors(1), []NodeID{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", g.Neighbors(1))
	}
}

func TestRemoveEdge(t *testing.T) {
	g := buildPath(t, 3)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) returned false")
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present after removal")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d after removal", g.M())
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("removing missing edge returned true")
	}
	if g.RemoveEdge(0, 0) || g.RemoveEdge(-1, 2) {
		t.Fatal("degenerate removals returned true")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeGraphCrossesWordBoundaries(t *testing.T) {
	// 200 nodes spans multiple bitset words; exercise edges across them.
	g := New(200)
	for i := 0; i < 200; i++ {
		g.AddNodeID(1)
	}
	g.MustAddEdge(0, 199)
	g.MustAddEdge(63, 64)
	g.MustAddEdge(127, 128)
	if !g.HasEdge(199, 0) || !g.HasEdge(64, 63) || !g.HasEdge(128, 127) {
		t.Fatal("cross-word edges missing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalGrowthKeepsEdges(t *testing.T) {
	// Add edges, then more nodes, then verify old edges survive row growth.
	g := New(0)
	g.AddNodeID(1)
	g.AddNodeID(1)
	g.MustAddEdge(0, 1)
	for i := 0; i < 100; i++ {
		g.AddNodeID(1)
	}
	g.MustAddEdge(0, 101)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 101) {
		t.Fatal("edges lost after growth")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueAndBiclique(t *testing.T) {
	g := New(6)
	var left, right []NodeID
	for i := 0; i < 3; i++ {
		left = append(left, g.AddNodeID(1))
	}
	for i := 0; i < 3; i++ {
		right = append(right, g.AddNodeID(1))
	}
	if err := g.AddClique(left); err != nil {
		t.Fatal(err)
	}
	if !g.IsClique(left) {
		t.Fatal("AddClique result is not a clique")
	}
	if g.M() != 3 {
		t.Fatalf("clique edge count = %d", g.M())
	}
	if err := g.AddBiclique(left, right); err != nil {
		t.Fatal(err)
	}
	if g.M() != 3+9 {
		t.Fatalf("biclique edge count = %d", g.M())
	}
	if !g.IsIndependentSet(right) {
		t.Fatal("right side should be independent")
	}
	if g.IsIndependentSet([]NodeID{left[0], right[0]}) {
		t.Fatal("biclique pair reported independent")
	}
}

func TestWeights(t *testing.T) {
	g := New(3)
	a := g.AddNodeID(2)
	b := g.AddNodeID(3)
	c := g.AddNodeID(5)
	if g.TotalWeight() != 10 {
		t.Fatalf("TotalWeight = %d", g.TotalWeight())
	}
	if g.WeightOfSet([]NodeID{a, c}) != 7 {
		t.Fatalf("WeightOfSet = %d", g.WeightOfSet([]NodeID{a, c}))
	}
	g.SetWeight(b, 100)
	if g.Weight(b) != 100 {
		t.Fatalf("SetWeight not applied")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildPath(t, 5)
	sub, back, err := g.InducedSubgraph([]NodeID{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 1 {
		t.Fatalf("sub N=%d M=%d, want 3,1", sub.N(), sub.M())
	}
	if !reflect.DeepEqual(back, []NodeID{1, 2, 4}) {
		t.Fatalf("back mapping = %v", back)
	}
	if !sub.HasEdge(0, 1) {
		t.Fatal("edge {1,2} missing in subgraph")
	}
	if sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("phantom edges in subgraph")
	}
	if _, _, err := g.InducedSubgraph([]NodeID{1, 1}); err == nil {
		t.Fatal("duplicate nodes accepted")
	}
	if _, _, err := g.InducedSubgraph([]NodeID{99}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := buildPath(t, 5)
	dist := g.BFS(0)
	if !reflect.DeepEqual(dist, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("BFS = %v", dist)
	}
	if g.Diameter() != 4 {
		t.Fatalf("Diameter = %d", g.Diameter())
	}
	if !g.IsConnected() {
		t.Fatal("path not connected")
	}
	g.AddNodeID(1)
	if g.IsConnected() {
		t.Fatal("graph with island reported connected")
	}
	if g.Diameter() != -1 {
		t.Fatalf("disconnected Diameter = %d", g.Diameter())
	}
	empty := New(0)
	if empty.Diameter() != -1 {
		t.Fatal("empty graph diameter should be -1")
	}
	if !empty.IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
}

// queueBFS is the reference walk for BFS, IsConnected and Diameter: a
// FIFO queue over the neighbour lists nbrs (nbrs[u] = Neighbors(u)).
func queueBFS(nbrs [][]NodeID, src NodeID) []int {
	dist := make([]int, len(nbrs))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []NodeID{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range nbrs[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// queueWalks returns, from queue BFS runs over every source, the BFS
// distances of each source, whether node 0 reaches every node, and the
// diameter (-1 when empty or disconnected).
func queueWalks(g *Graph) (dists [][]int, connected bool, diameter int) {
	nbrs := make([][]NodeID, g.N())
	for u := range nbrs {
		nbrs[u] = g.Neighbors(u)
	}
	connected, diameter = true, -1
	everyPair := g.N() > 0
	for u := range nbrs {
		dist := queueBFS(nbrs, u)
		dists = append(dists, dist)
		for _, d := range dist {
			diameter = max(diameter, d)
			if d == -1 {
				everyPair = false
				connected = connected && u != 0
			}
		}
	}
	if !everyPair {
		diameter = -1
	}
	return dists, connected, diameter
}

// TestFrontierWalkMatchesQueueBFS: BFS from every source, IsConnected and
// Diameter equal a queue BFS over Neighbors on 300 random graphs — n from
// 0 to 150 on both sides of 64 and 128, densities from 0.01 to 0.5 (so
// disconnected graphs too), laid out by New(n), grown from New(0), or
// grown past New's capacity midway through their edges, which leaves a
// stride wider than the rows need.
func TestFrontierWalkMatchesQueueBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var connected, disconnected, wide, past64, past128 int
	for i := 0; i < 300; i++ {
		n := rng.Intn(151)
		p := 0.01 + 0.49*rng.Float64()
		var g *Graph
		switch i % 3 {
		case 0:
			g = New(n)
		case 1:
			g = New(0)
		case 2:
			g = New(n / 2)
		}
		addEdges := func(lo int) {
			for u := 0; u < g.N(); u++ {
				for v := max(u+1, lo); v < g.N(); v++ {
					if rng.Float64() < p {
						g.MustAddEdge(u, v)
					}
				}
			}
		}
		half := n / 2
		for u := 0; u < half; u++ {
			g.AddNodeID(1)
		}
		addEdges(0)
		for u := half; u < n; u++ {
			g.AddNodeID(1)
		}
		addEdges(half)

		dists, conn, diameter := queueWalks(g)
		for u := 0; u < n; u++ {
			if got := g.BFS(u); !slices.Equal(got, dists[u]) {
				t.Fatalf("graph %d (n=%d, p=%.2f): BFS(%d) = %v, queue BFS %v", i, n, p, u, got, dists[u])
			}
		}
		for _, src := range []NodeID{-1, n} {
			if got := g.BFS(src); len(got) != n || slices.ContainsFunc(got, func(d int) bool { return d != -1 }) {
				t.Fatalf("graph %d: BFS(%d) out of range = %v, want %d entries of -1", i, src, got, n)
			}
		}
		if got := g.IsConnected(); got != conn {
			t.Fatalf("graph %d (n=%d, p=%.2f): IsConnected = %v, queue BFS %v", i, n, p, got, conn)
		}
		if got := g.Diameter(); got != diameter {
			t.Fatalf("graph %d (n=%d, p=%.2f): Diameter = %d, queue BFS %d", i, n, p, got, diameter)
		}
		if conn && n > 1 {
			connected++
		} else if !conn {
			disconnected++
		}
		if g.stride > (n+wordBits-1)/wordBits {
			wide++
		}
		if n > 64 {
			past64++
		}
		if n > 128 {
			past128++
		}
	}
	t.Logf("%d connected, %d disconnected, %d with a wider stride, %d with n > 64, %d with n > 128",
		connected, disconnected, wide, past64, past128)
	for name, count := range map[string]int{"connected": connected, "disconnected": disconnected,
		"wider stride": wide, "n > 64": past64, "n > 128": past128} {
		if count == 0 {
			t.Fatalf("no %s graph drawn", name)
		}
	}
}

func TestClone(t *testing.T) {
	g := buildPath(t, 4)
	c := g.Clone()
	c.MustAddEdge(0, 3)
	c.SetWeight(0, 42)
	if g.HasEdge(0, 3) {
		t.Fatal("clone shares adjacency")
	}
	if g.Weight(0) == 42 {
		t.Fatal("clone shares weights")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The type doc promises a zero value ready to use.
func TestZeroValueGraph(t *testing.T) {
	var g Graph
	a, b := g.AddNodeID(1), g.AddNodeID(2)
	g.MustAddEdge(a, b)
	if a != 0 || b != 1 || !g.HasEdge(a, b) {
		t.Fatalf("IDs %d, %d, edge %v", a, b, g.HasEdge(a, b))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// New(n) lays the whole adjacency block out: adding its n nodes and
// edges among them allocates nothing more.
func TestAddNodeIDPresizedAllocationFree(t *testing.T) {
	const n, runs = 90, 10
	// AllocsPerRun calls the function once more to warm up.
	graphs := make([]*Graph, runs+1)
	for i := range graphs {
		graphs[i] = New(n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		g := graphs[next]
		next++
		for i := 0; i < n; i++ {
			g.AddNodeID(1)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v += 7 {
				g.MustAddEdge(u, v)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d AddNodeID calls and their edges on New(%d) allocated %.1f times, want 0", n, n, allocs)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := buildPath(t, 3)
	// Corrupt: break symmetry by hand.
	g.adj[0] &^= 1 << 1 // remove 1 from 0's row only
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric adjacency")
	}
}

func TestDOT(t *testing.T) {
	g := buildPath(t, 2)
	p := MustNewPartition(2, 2)
	p.MustAssign(1, 1)
	name := func(u NodeID) string { return fmt.Sprintf("p%d", u) }
	dot := g.DOT("test", name, p)
	for _, want := range []string{"graph \"test\"", `n1 [label="p1 (w=1)"`, "n0 -- n1", "fillcolor"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	plain := g.DOT("plain", name, nil)
	if strings.Contains(plain, "fillcolor") {
		t.Fatal("DOT without partition should not colour")
	}
}

func TestPartitionBasics(t *testing.T) {
	p, err := NewPartition(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.T() != 3 || p.N() != 5 {
		t.Fatalf("T=%d N=%d", p.T(), p.N())
	}
	p.MustAssign(0, 0)
	p.MustAssign(1, 1)
	p.MustAssign(2, 1)
	p.MustAssign(3, 2)
	p.MustAssign(4, 2)
	if !reflect.DeepEqual(p.PlayerNodes(1), []NodeID{1, 2}) {
		t.Fatalf("PlayerNodes(1) = %v", p.PlayerNodes(1))
	}
	if !reflect.DeepEqual(p.Sizes(), []int{1, 2, 2}) {
		t.Fatalf("Sizes = %v", p.Sizes())
	}
	if err := p.Assign(9, 0); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := p.Assign(0, 5); err == nil {
		t.Fatal("out-of-range player accepted")
	}
	if _, err := NewPartition(5, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := NewPartition(-1, 2); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestPartitionCut(t *testing.T) {
	// Path 0-1-2-3 with owners 0,0,1,1: only edge {1,2} crosses.
	g := buildPath(t, 4)
	p := MustNewPartition(4, 2)
	p.MustAssign(2, 1)
	p.MustAssign(3, 1)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	cut := p.CutEdges(g)
	if len(cut) != 1 || cut[0] != (Edge{U: 1, V: 2}) {
		t.Fatalf("CutEdges = %v", cut)
	}
	if p.CutSize(g) != 1 {
		t.Fatalf("CutSize = %d", p.CutSize(g))
	}
	bad := MustNewPartition(3, 2)
	if err := bad.Validate(g); err == nil {
		t.Fatal("size-mismatched partition validated")
	}
}

func TestPartitionClone(t *testing.T) {
	p := MustNewPartition(3, 2)
	c := p.Clone()
	c.MustAssign(0, 1)
	if p.Of(0) != 0 {
		t.Fatal("partition clone shares storage")
	}
}

func TestRandomGraphInvariantsQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(9)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(80)
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNodeID(int64(r.Intn(10)))
		}
		target := r.Intn(n * 2)
		for e := 0; e < target; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				g.MustAddEdge(u, v)
			}
		}
		if err := g.Validate(); err != nil {
			return false
		}
		// Handshake lemma.
		degSum := 0
		for u := 0; u < n; u++ {
			degSum += g.Degree(u)
		}
		if degSum != 2*g.M() {
			return false
		}
		// Edges() agrees with HasEdge.
		for _, e := range g.Edges() {
			if !g.HasEdge(e.U, e.V) || !g.HasEdge(e.V, e.U) {
				return false
			}
		}
		return len(g.Edges()) == g.M()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddEdgeDense(b *testing.B) {
	const n = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := New(n)
		for j := 0; j < n; j++ {
			g.AddNodeID(1)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v += 7 {
				g.MustAddEdge(u, v)
			}
		}
	}
}

// TestHasEdgeMatchesRowsThroughGrowth runs one random sequence of
// AddNode, AddNodeID, AddEdge and RemoveEdge from each starting layout:
// the zero value, New(0), New(h) with h below the final node count, and
// New(n). All but the last lay their block out again as they grow. After
// every node added, each read method must agree with a map of the edges;
// at the end an edge added to a Clone must leave the original unchanged.
func TestHasEdgeMatchesRowsThroughGrowth(t *testing.T) {
	const n = 150
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"zero-value", &Graph{}},
		{"new-0", New(0)},
		{"outgrown", New(40)},
		{"presized", New(n)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			g, edges := tc.g, map[Edge]bool{}
			for g.N() < n {
				if rng.Intn(2) == 0 {
					g.AddNodeID(int64(rng.Intn(9)))
				} else {
					g.AddNodeID(int64(rng.Intn(9)))
				}
				for k := rng.Intn(8); k > 0; k-- {
					u, v := rng.Intn(g.N()), rng.Intn(g.N())
					if u == v {
						continue
					}
					e := edgeOf(u, v)
					if rng.Intn(4) == 0 {
						if got := g.RemoveEdge(u, v); got != edges[e] {
							t.Fatalf("n=%d: RemoveEdge(%d, %d) = %v", g.N(), u, v, got)
						}
						delete(edges, e)
					} else {
						g.MustAddEdge(u, v)
						edges[e] = true
					}
				}
				checkEdges(t, g, edges)
			}
			c, e := g.Clone(), Edge{U: 0, V: 1}
			for edges[e] {
				e.V++
			}
			c.MustAddEdge(e.U, e.V)
			checkEdges(t, g, edges)
			edges[e] = true
			checkEdges(t, c, edges)
		})
	}
}

// edgeOf is the map key of the undirected edge {u, v}.
func edgeOf(u, v NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// checkEdges checks HasEdge (out-of-range pairs included), Degree,
// Neighbors, the order ForEachNeighbor visits, Edges, M and Validate
// against the edge set edges.
func checkEdges(t *testing.T, g *Graph, edges map[Edge]bool) {
	t.Helper()
	for u := -1; u <= g.N(); u++ {
		for v := -1; v <= g.N(); v++ {
			if got := g.HasEdge(u, v); got != edges[edgeOf(u, v)] {
				t.Fatalf("n=%d: HasEdge(%d, %d) = %v", g.N(), u, v, got)
			}
		}
	}
	var all []Edge
	for u := 0; u < g.N(); u++ {
		var want, visited []NodeID
		for v := 0; v < g.N(); v++ {
			if edges[edgeOf(u, v)] {
				want = append(want, v)
				if u < v {
					all = append(all, Edge{U: u, V: v})
				}
			}
		}
		g.ForEachNeighbor(u, func(v NodeID) { visited = append(visited, v) })
		if d := g.Degree(u); d != len(want) {
			t.Fatalf("n=%d: Degree(%d) = %d, want %d", g.N(), u, d, len(want))
		}
		if got := g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("n=%d: Neighbors(%d) = %v, want %v", g.N(), u, got, want)
		}
		if !slices.Equal(visited, want) {
			t.Fatalf("n=%d: ForEachNeighbor(%d) visited %v, want %v", g.N(), u, visited, want)
		}
	}
	if got := g.Edges(); !slices.Equal(got, all) {
		t.Fatalf("n=%d: Edges = %v, want %v", g.N(), got, all)
	}
	if g.M() != len(all) {
		t.Fatalf("n=%d: M = %d, want %d", g.N(), g.M(), len(all))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("n=%d: %v", g.N(), err)
	}
}

// TestConcurrentReaders: every read goes through row, a view into the
// block, so goroutines may share a graph without locking; run under
// -race. The graph is connected (a spanning path under random chords), so
// Diameter and IsConnected walk from every node instead of stopping at
// the first one that misses a node.
func TestConcurrentReaders(t *testing.T) {
	const n, readers = 150, 4
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(1)
	}
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(u, u+1)
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 3*n; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.MustAddEdge(u, v)
		}
	}
	want := g.Edges()
	dists, connected, diameter := queueWalks(g)
	if !connected || diameter <= 0 {
		t.Fatalf("reference walk: connected %v, diameter %d; want a connected graph", connected, diameter)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.Diameter(); got != diameter {
				t.Errorf("Diameter = %d, want %d", got, diameter)
			}
			if got := g.IsConnected(); got != connected {
				t.Errorf("IsConnected = %v, want %v", got, connected)
			}
			for u := 0; u < n; u++ {
				if got := g.BFS(u); !slices.Equal(got, dists[u]) {
					t.Errorf("BFS(%d) = %v, want %v", u, got, dists[u])
					return
				}
				d := 0
				for _, w := range g.row(u) {
					d += bits.OnesCount64(w)
				}
				visited := 0
				g.ForEachNeighbor(u, func(v NodeID) {
					if g.HasEdge(v, u) {
						visited++
					}
				})
				if d != g.Degree(u) || d != len(g.Neighbors(u)) || d != visited {
					t.Errorf("node %d: row has %d bits, Degree %d, Neighbors %d, ForEachNeighbor %d",
						u, d, g.Degree(u), len(g.Neighbors(u)), visited)
					return
				}
			}
			if got := g.Edges(); !slices.Equal(got, want) {
				t.Errorf("Edges = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}
