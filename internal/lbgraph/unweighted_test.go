package lbgraph

import (
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

func TestBlowupSmallKnownGraph(t *testing.T) {
	// Edge {a(w=3), b(w=2)} plus isolated c(w=1): blow-up has 6 nodes and
	// a 3×2 biclique. MaxIS weight 3+1=4 in both.
	g := graphs.New(3)
	a := g.AddNodeID(3)
	b := g.AddNodeID(2)
	g.AddNodeID(1)
	g.MustAddEdge(a, b)

	res, err := Blowup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.N() != 6 {
		t.Fatalf("N = %d, want 6", res.Graph.N())
	}
	if res.Graph.M() != 6 {
		t.Fatalf("M = %d, want 6 (3×2 biclique)", res.Graph.M())
	}
	if len(res.Groups[a]) != 3 || len(res.Groups[b]) != 2 {
		t.Fatalf("groups sized %d,%d", len(res.Groups[a]), len(res.Groups[b]))
	}
	if !res.Graph.IsIndependentSet(res.Groups[a]) {
		t.Fatal("group I(a) is not independent")
	}
	orig, err := mis.Exhaustive(g)
	if err != nil {
		t.Fatal(err)
	}
	blown, err := mis.Exhaustive(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Weight != blown.Weight {
		t.Fatalf("MaxIS changed: weighted %d vs unweighted %d", orig.Weight, blown.Weight)
	}
}

func TestBlowupPreservesOptimumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		g := graphs.New(n)
		for i := 0; i < n; i++ {
			g.AddNodeID(1 + rng.Int63n(3))
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.MustAddEdge(u, v)
				}
			}
		}
		res, err := Blowup(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatal(err)
		}
		orig, err := mis.Exhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		blown, err := mis.Exact(res.Graph, mis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if orig.Weight != blown.Weight {
			t.Fatalf("trial %d: weighted OPT %d vs blow-up OPT %d", trial, orig.Weight, blown.Weight)
		}
	}
}

func TestBlowupPartitionFollowsOwners(t *testing.T) {
	g := graphs.New(2)
	a := g.AddNodeID(2)
	b := g.AddNodeID(3)
	g.MustAddEdge(a, b)
	part := graphs.MustNewPartition(2, 2)
	part.MustAssign(b, 1)

	res, err := Blowup(g, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Groups[a] {
		if res.Partition.Of(u) != 0 {
			t.Fatal("copy of a owned by wrong player")
		}
	}
	for _, u := range res.Groups[b] {
		if res.Partition.Of(u) != 1 {
			t.Fatal("copy of b owned by wrong player")
		}
	}
}

func TestBlowupRejectsNonPositiveWeights(t *testing.T) {
	g := graphs.New(1)
	g.AddNodeID(0)
	if _, err := Blowup(g, nil); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestBlowupRejectsHuge(t *testing.T) {
	g := graphs.New(1)
	g.AddNodeID(1 << 23)
	if _, err := Blowup(g, nil); err == nil {
		t.Fatal("oversized blow-up accepted")
	}
}

func TestBlowupCoverIsValidCover(t *testing.T) {
	// Blow up a weighted triangle and check the translated cover solves
	// exactly.
	g := graphs.New(3)
	for i := 0; i < 3; i++ {
		g.AddNodeID(int64(i + 1))
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	cover := [][]graphs.NodeID{{0, 1, 2}}

	res, err := Blowup(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	blownCover := BlowupCover(cover, res)
	sol, err := mis.Exact(res.Graph, mis.Options{CliqueCover: blownCover})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 3 {
		t.Fatalf("blow-up triangle OPT = %d, want 3", sol.Weight)
	}
}

func TestRemark1OnLinearFamily(t *testing.T) {
	// The full Remark 1 pipeline: build G_x̄, blow it up, and check the
	// unweighted MaxIS equals the weighted one in both promise cases.
	p := FigureParams(2)
	l := mustLinear(t, p)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4; trial++ {
		in, _, err := bitvec.RandomPromiseInstance(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := l.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Blowup(inst.Graph, inst.Partition)
		if err != nil {
			t.Fatal(err)
		}
		weighted, err := mis.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
		if err != nil {
			t.Fatal(err)
		}
		unweighted, err := mis.Exact(res.Graph, mis.Options{CliqueCover: BlowupCover(inst.CliqueCover, res)})
		if err != nil {
			t.Fatal(err)
		}
		if weighted.Weight != unweighted.Weight {
			t.Fatalf("trial %d: weighted %d vs unweighted %d", trial, weighted.Weight, unweighted.Weight)
		}
		// Node count grows to Θ(k·ℓ) as Remark 1 states.
		if res.Graph.N() <= inst.Graph.N() && inst.Graph.TotalWeight() > int64(inst.Graph.N()) {
			t.Fatal("blow-up did not grow despite weights > 1")
		}
	}
}
