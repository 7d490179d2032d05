package congestalg

import (
	"math/rand"
	"testing"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

func collectWeight(t *testing.T, g *graphs.Graph, cfg congest.Config) (int64, congest.Stats) {
	t.Helper()
	result := runPrograms(t, g, NewCollectSolvePrograms(g.N()), cfg)
	set := MembershipSet(result)
	for _, out := range result.Outputs {
		if err, isErr := out.(error); isErr {
			t.Fatal(err)
		}
	}
	weight, err := mis.Verify(g, set)
	if err != nil {
		t.Fatal(err)
	}
	return weight, result.Stats
}

func TestCollectSolveFindsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(16)
		g := randomGraph(n, 0.3, 6, rng)
		got, _ := collectWeight(t, g, congest.Config{BandwidthBits: 96})
		want, err := mis.Exhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.Weight {
			t.Fatalf("trial %d (n=%d): collect weight %d, optimum %d", trial, n, got, want.Weight)
		}
	}
}

func TestCollectSolveSingleAndIsolatedNodes(t *testing.T) {
	g := graphs.New(3)
	for i := 0; i < 3; i++ {
		g.AddNodeID(int64(i + 1))
	}
	got, _ := collectWeight(t, g, congest.Config{BandwidthBits: 96})
	if got != 6 {
		t.Fatalf("isolated nodes weight %d, want 6", got)
	}
}

// TestCollectSolveTwoTriangles exercises a disconnected graph: two
// triangles with no edges between them. Per-component roots must produce
// the union optimum.
func TestCollectSolveTwoTriangles(t *testing.T) {
	g := graphs.New(6)
	for i := 0; i < 6; i++ {
		g.AddNodeID(int64(1 + i%3))
	}
	if err := g.AddClique([]graphs.NodeID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddClique([]graphs.NodeID{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	got, _ := collectWeight(t, g, congest.Config{BandwidthBits: 96})
	// Each triangle contributes its heaviest node (weight 3).
	if got != 6 {
		t.Fatalf("two triangles weight %d, want 6", got)
	}
}

func TestCollectSolveCheaperThanGossip(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	g := randomGraph(18, 0.3, 4, rng)

	_, collectStats := collectWeight(t, g, congest.Config{BandwidthBits: 96})

	gossipResult := runPrograms(t, g, NewGossipExactPrograms(18), congest.Config{BandwidthBits: 96})
	gossipSet, err := ExactSetFromOutputs(gossipResult)
	if err != nil {
		t.Fatal(err)
	}
	gossipWeight, err := mis.Verify(g, gossipSet)
	if err != nil {
		t.Fatal(err)
	}
	collectW, _ := collectWeight(t, g, congest.Config{BandwidthBits: 96})
	if collectW != gossipWeight {
		t.Fatalf("collect %d vs gossip %d", collectW, gossipWeight)
	}
	// The tree-based algorithm must move far fewer bits than flooding.
	if collectStats.TotalBits >= gossipResult.Stats.TotalBits {
		t.Fatalf("collect used %d bits, gossip %d — tree should be cheaper",
			collectStats.TotalBits, gossipResult.Stats.TotalBits)
	}
}

func TestCollectSolveOnPathGraph(t *testing.T) {
	// A path stresses deep trees: the convergecast pipeline runs the full
	// depth.
	const n = 24
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(int64(1 + i%4))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	got, _ := collectWeight(t, g, congest.Config{BandwidthBits: 96})
	want, err := mis.Exhaustive(g)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Weight {
		t.Fatalf("path: collect %d, optimum %d", got, want.Weight)
	}
}
