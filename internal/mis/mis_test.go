package mis

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"congestlb/internal/graphs"
)

// randomGraph builds a random weighted graph with n nodes and edge
// probability prob, weights in [1, maxW].
func randomGraph(n int, prob float64, maxW int64, rng *rand.Rand) *graphs.Graph {
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), 1+rng.Int63n(maxW))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < prob {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func TestVerify(t *testing.T) {
	g := graphs.New(3)
	a := g.MustAddNode("a", 2)
	b := g.MustAddNode("b", 3)
	c := g.MustAddNode("c", 4)
	g.MustAddEdge(a, b)

	w, err := Verify(g, []graphs.NodeID{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if w != 6 {
		t.Fatalf("weight = %d, want 6", w)
	}
	if _, err := Verify(g, []graphs.NodeID{a, b}); err == nil {
		t.Fatal("adjacent pair accepted")
	}
	if _, err := Verify(g, []graphs.NodeID{a, a}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := Verify(g, []graphs.NodeID{99}); err == nil {
		t.Fatal("out-of-range accepted")
	}
	if w, err := Verify(g, nil); err != nil || w != 0 {
		t.Fatalf("empty set: w=%d err=%v", w, err)
	}
}

func TestIsMaximal(t *testing.T) {
	// Path a-b-c: {b} is maximal, {a} is not (c is undominated), {a,c} is
	// maximal and maximum.
	g := graphs.New(3)
	a := g.MustAddNode("a", 1)
	b := g.MustAddNode("b", 1)
	c := g.MustAddNode("c", 1)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)

	tests := []struct {
		name string
		set  []graphs.NodeID
		want bool
	}{
		{name: "center", set: []graphs.NodeID{b}, want: true},
		{name: "one end", set: []graphs.NodeID{a}, want: false},
		{name: "both ends", set: []graphs.NodeID{a, c}, want: true},
		{name: "empty", set: nil, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := IsMaximal(g, tt.set)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("IsMaximal = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := IsMaximal(g, []graphs.NodeID{a, b}); err == nil {
		t.Fatal("dependent set accepted")
	}
}

func TestExhaustiveEmptyGraph(t *testing.T) {
	sol, err := Exhaustive(graphs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 0 || len(sol.Set) != 0 {
		t.Fatalf("empty graph solution %+v", sol)
	}
}

func TestExhaustiveTriangle(t *testing.T) {
	g := graphs.New(3)
	a := g.MustAddNode("a", 1)
	b := g.MustAddNode("b", 5)
	c := g.MustAddNode("c", 3)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(a, c)
	sol, err := Exhaustive(g)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 5 || !reflect.DeepEqual(sol.Set, []graphs.NodeID{b}) {
		t.Fatalf("triangle solution %+v", sol)
	}
}

func TestExhaustiveC5(t *testing.T) {
	// 5-cycle with unit weights: MaxIS = 2.
	g := graphs.New(5)
	for i := 0; i < 5; i++ {
		g.MustAddNode(fmt.Sprintf("c%d", i), 1)
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, (i+1)%5)
	}
	sol, err := Exhaustive(g)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 2 {
		t.Fatalf("C5 MaxIS weight = %d, want 2", sol.Weight)
	}
	if _, err := Verify(g, sol.Set); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveRefusesLarge(t *testing.T) {
	g := randomGraph(25, 0.2, 3, rand.New(rand.NewSource(1)))
	if _, err := Exhaustive(g); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error = %v, want ErrTooLarge", err)
	}
}

func TestExactMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(16)
		prob := rng.Float64()
		g := randomGraph(n, prob, 8, rng)
		want, err := Exhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Weight != want.Weight {
			t.Fatalf("trial %d (n=%d p=%.2f): Exact=%d Exhaustive=%d",
				trial, n, prob, got.Weight, want.Weight)
		}
		if w, err := Verify(g, got.Set); err != nil || w != got.Weight {
			t.Fatalf("trial %d: witness invalid: w=%d err=%v", trial, w, err)
		}
		if !got.Optimal {
			t.Fatal("Exact solution not flagged optimal")
		}
	}
}

func TestExactWithProvidedCover(t *testing.T) {
	// Two disjoint triangles joined by one edge; natural cover = the two
	// triangles.
	g := graphs.New(6)
	for i := 0; i < 6; i++ {
		g.MustAddNode(fmt.Sprintf("n%d", i), int64(i+1))
	}
	tri1 := []graphs.NodeID{0, 1, 2}
	tri2 := []graphs.NodeID{3, 4, 5}
	if err := g.AddClique(tri1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddClique(tri2); err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(2, 3)

	sol, err := Exact(g, Options{CliqueCover: [][]graphs.NodeID{tri1, tri2}})
	if err != nil {
		t.Fatal(err)
	}
	// Best: node 2 (w=3) from tri1 and node 5 (w=6) from tri2 → 9.
	if sol.Weight != 9 {
		t.Fatalf("weight = %d, want 9", sol.Weight)
	}
}

func TestExactCoverValidation(t *testing.T) {
	g := graphs.New(3)
	a := g.MustAddNode("a", 1)
	b := g.MustAddNode("b", 1)
	c := g.MustAddNode("c", 1)
	g.MustAddEdge(a, b)

	tests := []struct {
		name  string
		cover [][]graphs.NodeID
	}{
		{name: "not a clique", cover: [][]graphs.NodeID{{a, c}, {b}}},
		{name: "missing node", cover: [][]graphs.NodeID{{a, b}}},
		{name: "duplicate node", cover: [][]graphs.NodeID{{a, b}, {a}, {c}}},
		{name: "out of range", cover: [][]graphs.NodeID{{a, b}, {c}, {9}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Exact(g, Options{CliqueCover: tt.cover}); err == nil {
				t.Fatal("invalid cover accepted")
			}
		})
	}
}

func TestExactBudget(t *testing.T) {
	g := randomGraph(40, 0.1, 5, rand.New(rand.NewSource(5)))
	if _, err := Exact(g, Options{MaxSteps: 3}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", err)
	}
}

func TestExactBudgetReturnsIncumbent(t *testing.T) {
	g := randomGraph(40, 0.1, 5, rand.New(rand.NewSource(5)))
	sol, err := Exact(g, Options{MaxSteps: 3})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("error = %v, want ErrBudgetExceeded", err)
	}
	if sol.Optimal {
		t.Fatal("budget-capped solution claims optimality")
	}
	if len(sol.Set) == 0 {
		t.Fatal("budget-capped solution lost the incumbent set")
	}
	weight, err := Verify(g, sol.Set)
	if err != nil {
		t.Fatalf("incumbent is not independent: %v", err)
	}
	if weight != sol.Weight {
		t.Fatalf("incumbent weight %d, reported %d", weight, sol.Weight)
	}
	// The incumbent is seeded with the greedy solution, so it is at least
	// as good as greedy even when the budget dies immediately.
	if greedy := Greedy(g, GreedyByRatio); sol.Weight < greedy.Weight {
		t.Fatalf("incumbent weight %d below greedy seed %d", sol.Weight, greedy.Weight)
	}
}

func TestExactEmptyAndSingleton(t *testing.T) {
	sol, err := Exact(graphs.New(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 0 {
		t.Fatalf("empty weight = %d", sol.Weight)
	}
	g := graphs.New(1)
	g.MustAddNode("solo", 7)
	sol, err = Exact(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Weight != 7 || len(sol.Set) != 1 {
		t.Fatalf("singleton solution %+v", sol)
	}
}

func TestGreedyStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	strategies := []GreedyStrategy{GreedyByRatio, GreedyByWeight, GreedyByDegree}
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(2+rng.Intn(40), 0.3, 6, rng)
		for _, st := range strategies {
			sol := Greedy(g, st)
			if _, err := Verify(g, sol.Set); err != nil {
				t.Fatalf("strategy %d produced invalid set: %v", st, err)
			}
			maximal, err := IsMaximal(g, sol.Set)
			if err != nil {
				t.Fatal(err)
			}
			if !maximal {
				t.Fatalf("strategy %d produced non-maximal set", st)
			}
			if sol.Optimal {
				t.Fatal("greedy flagged optimal")
			}
		}
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(1+rng.Intn(15), 0.4, 9, rng)
		exact, err := Exhaustive(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []GreedyStrategy{GreedyByRatio, GreedyByWeight, GreedyByDegree} {
			if got := Greedy(g, st); got.Weight > exact.Weight {
				t.Fatalf("greedy %d weight %d beats optimum %d", st, got.Weight, exact.Weight)
			}
		}
	}
}

func TestExactQuickAgainstExhaustive(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(21)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(1+r.Intn(14), r.Float64(), 5, r)
		want, err := Exhaustive(g)
		if err != nil {
			return false
		}
		got, err := Exact(g, Options{})
		if err != nil {
			return false
		}
		return got.Weight == want.Weight
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestWeightOnlyMatchesCanonicalWeight: every solve returns the canonical
// witness; there is no weight-only mode whose set may differ. On random
// graphs with n in [48, 64), a content-identical copy built with its
// edges inserted in reverse order solves to the identical Solution — Set,
// Weight and Steps — so a cached answer is the answer for every copy.
func TestWeightOnlyMatchesCanonicalWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 6; trial++ {
		n := 48 + rng.Intn(16)
		g := randomGraph(n, 0.2+0.4*rng.Float64(), 9, rng)
		rebuilt := graphs.NewWithN(n)
		for v := 0; v < n; v++ {
			rebuilt.AddNodeID(g.Weight(v))
		}
		edges := g.Edges()
		for i := len(edges) - 1; i >= 0; i-- {
			rebuilt.MustAddEdge(edges[i].V, edges[i].U)
		}
		want, err := Exact(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(rebuilt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): rebuilt copy solved to %v (w=%d, %d steps), original %v (w=%d, %d steps)",
				trial, n, got.Set, got.Weight, got.Steps, want.Set, want.Weight, want.Steps)
		}
	}
}

func BenchmarkExactRandom60(b *testing.B) {
	g := randomGraph(60, 0.3, 8, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyRandom500(b *testing.B) {
	g := randomGraph(500, 0.1, 8, rand.New(rand.NewSource(4)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g, GreedyByRatio)
	}
}
