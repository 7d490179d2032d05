package lbgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/code"
	"congestlb/internal/core"
	"congestlb/internal/mis"
)

// mustLinear builds the family or fails the test.
func mustLinear(t *testing.T, p Params) *Linear {
	t.Helper()
	l, err := NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// exactOpt solves an instance exactly using its natural clique cover.
func exactOpt(t *testing.T, inst core.Instance) int64 {
	t.Helper()
	sol, err := mis.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Weight
}

func TestBuildBaseMatchesFigure1(t *testing.T) {
	// Figure 1: ℓ=2, α=1, k=3. A = {v1,v2,v3}; three cliques C1,C2,C3 of
	// three nodes each. C(1) = "2,3,1", so v1 is adjacent to all code
	// nodes except σ(1,2), σ(2,3), σ(3,1).
	base, err := BuildBase(FigureParams(2))
	if err != nil {
		t.Fatal(err)
	}
	if base.N() != 12 {
		t.Fatalf("N = %d, want 12", base.N())
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	// H is copy 0 of the family's layout: look its nodes up by the
	// paper's names.
	l := mustLinear(t, FigureParams(2))
	byName := make(map[string]int, base.N())
	for u := 0; u < base.N(); u++ {
		byName[l.NodeName(u)] = u
	}
	v1, ok := byName["v[i=1,m=1]"]
	if !ok {
		t.Fatal("v1 missing")
	}
	nonNeighbors := []string{"sigma[i=1,h=1,r=2]", "sigma[i=1,h=2,r=3]", "sigma[i=1,h=3,r=1]"}
	nonSet := map[string]bool{}
	for _, lbl := range nonNeighbors {
		nonSet[lbl] = true
		u, ok := byName[lbl]
		if !ok {
			t.Fatalf("%s missing", lbl)
		}
		if base.HasEdge(v1, u) {
			t.Fatalf("v1 adjacent to %s, must not be (Code_1)", lbl)
		}
	}
	// v1 adjacent to the other six code nodes and the two other A nodes.
	for h := 1; h <= 3; h++ {
		for r := 1; r <= 3; r++ {
			lbl := fmt.Sprintf("sigma[i=1,h=%d,r=%d]", h, r)
			if nonSet[lbl] {
				continue
			}
			u, ok := byName[lbl]
			if !ok {
				t.Fatalf("%s missing", lbl)
			}
			if !base.HasEdge(v1, u) {
				t.Fatalf("v1 not adjacent to %s", lbl)
			}
		}
	}
	if base.Degree(v1) != 2+6 {
		t.Fatalf("deg(v1) = %d, want 8", base.Degree(v1))
	}
	// Edge count: E(A)=3, three C cliques 3·3=9, and each v_m is adjacent
	// to 6 code nodes → 18. Total 30.
	if base.M() != 30 {
		t.Fatalf("edges = %d, want 30", base.M())
	}
}

func TestBuildFixedStructure(t *testing.T) {
	p := FigureParams(3)
	l := mustLinear(t, p)
	inst, err := l.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	g, part := inst.Graph, inst.Partition
	if g.N() != p.LinearN() {
		t.Fatalf("N = %d, want %d", g.N(), p.LinearN())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i, size := range part.Sizes() {
		if size != p.NodesPerCopy() {
			t.Fatalf("player %d owns %d nodes, want %d", i, size, p.NodesPerCopy())
		}
	}
	// Cut: for each pair i<j and each h, q(q-1) edges.
	wantCut := (p.T * (p.T - 1) / 2) * p.M() * p.Q() * (p.Q() - 1)
	if got := part.CutSize(g); got != wantCut {
		t.Fatalf("cut = %d, want %d", got, wantCut)
	}
	// No edges between A^i and anything outside copy i.
	for i := 0; i < p.T; i++ {
		for m := 0; m < p.K(); m++ {
			v := l.ANode(i, m)
			g.ForEachNeighbor(v, func(u int) {
				if part.Of(u) != i {
					t.Fatalf("A-node %s adjacent to other player's node %s", l.NodeName(v), l.NodeName(u))
				}
			})
		}
	}
	// Clique cover parts are cliques covering everything.
	if len(inst.CliqueCover) != p.T*(1+p.M()) {
		t.Fatalf("cover has %d parts, want %d", len(inst.CliqueCover), p.T*(1+p.M()))
	}
	covered := 0
	for _, part := range inst.CliqueCover {
		if !g.IsClique(part) {
			t.Fatal("cover part is not a clique")
		}
		covered += len(part)
	}
	if covered != g.N() {
		t.Fatalf("cover covers %d of %d nodes", covered, g.N())
	}
}

func TestInterCopyWiringMatchesFigure2(t *testing.T) {
	// Figure 2: σ^i_(h,r) is connected to all of C^j_h except σ^j_(h,r).
	p := FigureParams(2)
	l := mustLinear(t, p)
	inst, err := l.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	g := inst.Graph
	for h := 0; h < p.M(); h++ {
		for r := 0; r < p.Q(); r++ {
			for s := 0; s < p.Q(); s++ {
				has := g.HasEdge(l.SigmaNode(0, h, r), l.SigmaNode(1, h, s))
				if (r == s) == has {
					t.Fatalf("wiring wrong at h=%d r=%d s=%d: edge=%v", h, r, s, has)
				}
			}
		}
	}
	// Different positions h ≠ h' are never wired across copies.
	if g.HasEdge(l.SigmaNode(0, 0, 0), l.SigmaNode(1, 1, 0)) {
		t.Fatal("cross-position inter-copy edge exists")
	}
}

func TestProperty1(t *testing.T) {
	// Property 1: (∪_i Code^i_m) ∪ {v^i_m} is an independent set, for
	// every m — in the fixed graph, hence in every G_x̄.
	for _, p := range []Params{FigureParams(2), FigureParams(4), {T: 3, Alpha: 2, Ell: 2}} {
		l := mustLinear(t, p)
		inst, err := l.BuildFixed()
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < p.K(); m++ {
			var set []int
			for i := 0; i < p.T; i++ {
				set = append(set, l.ANode(i, m))
				set = append(set, l.CodeNodes(i, m)...)
			}
			if !inst.Graph.IsIndependentSet(set) {
				t.Fatalf("%v: Property 1 fails at m=%d", p, m)
			}
		}
	}
}

func TestProperty2(t *testing.T) {
	// Property 2: for i≠j and m1≠m2, the bipartite graph between
	// Code^i_m1 and Code^j_m2 contains a matching of size ≥ ℓ. The
	// matching is explicit: every position h where the codewords differ
	// contributes the edge (σ^i_(h,w1_h), σ^j_(h,w2_h)).
	p := Params{T: 2, Alpha: 2, Ell: 2} // M=4, q=5, k=16
	l := mustLinear(t, p)
	inst, err := l.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	for m1 := 0; m1 < p.K(); m1++ {
		for m2 := 0; m2 < p.K(); m2++ {
			if m1 == m2 {
				continue
			}
			w1, w2 := l.Codeword(m1), l.Codeword(m2)
			if d := code.Distance(w1, w2); d < p.Ell {
				t.Fatalf("codewords %d,%d at distance %d < ℓ=%d", m1, m2, d, p.Ell)
			}
			matching := 0
			for h := 0; h < p.M(); h++ {
				if w1[h] != w2[h] {
					u := l.SigmaNode(0, h, w1[h]-1)
					v := l.SigmaNode(1, h, w2[h]-1)
					if !inst.Graph.HasEdge(u, v) {
						t.Fatalf("matching edge missing at h=%d for (%d,%d)", h, m1, m2)
					}
					matching++
				}
			}
			if matching < p.Ell {
				t.Fatalf("matching size %d < ℓ=%d", matching, p.Ell)
			}
		}
	}
}

func TestProperty3ViaExactSolver(t *testing.T) {
	// Property 3: any independent set contains, for i≠j and m1≠m2, at
	// most α positions h with both σ^i_(h,w1_h) and σ^j_(h,w2_h) inside.
	// Check it on exact optima of random weighted instances.
	p := Params{T: 2, Alpha: 1, Ell: 3}
	l := mustLinear(t, p)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		in, _, err := bitvec.RandomPromiseInstance(p.K(), p.T, bitvec.GenOptions{Density: 0.5}, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := l.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := mis.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
		if err != nil {
			t.Fatal(err)
		}
		inSet := make(map[int]bool, len(sol.Set))
		for _, u := range sol.Set {
			inSet[u] = true
		}
		for m1 := 0; m1 < p.K(); m1++ {
			for m2 := 0; m2 < p.K(); m2++ {
				if m1 == m2 {
					continue
				}
				w1, w2 := l.Codeword(m1), l.Codeword(m2)
				both := 0
				for h := 0; h < p.M(); h++ {
					if inSet[l.SigmaNode(0, h, w1[h]-1)] && inSet[l.SigmaNode(1, h, w2[h]-1)] {
						both++
					}
				}
				if both > p.Alpha {
					t.Fatalf("Property 3 violated: %d shared positions > α=%d", both, p.Alpha)
				}
			}
		}
	}
}

func TestBuildAppliesWeights(t *testing.T) {
	p := FigureParams(2)
	l := mustLinear(t, p)
	in := bitvec.Inputs{
		bitvec.MustFromBits([]int{1, 0, 1}),
		bitvec.MustFromBits([]int{0, 0, 1}),
	}
	inst, err := l.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	wantW := func(i, m int) int64 {
		if in[i].Get(m) {
			return int64(p.Ell)
		}
		return 1
	}
	for i := 0; i < p.T; i++ {
		for m := 0; m < p.K(); m++ {
			if got := inst.Graph.Weight(l.ANode(i, m)); got != wantW(i, m) {
				t.Fatalf("w(v^%d_%d) = %d, want %d", i, m, got, wantW(i, m))
			}
		}
	}
	// Code nodes stay weight 1.
	if inst.Graph.Weight(l.SigmaNode(0, 0, 0)) != 1 {
		t.Fatal("code node weight changed")
	}
}

func TestBuildInputValidation(t *testing.T) {
	l := mustLinear(t, FigureParams(2))
	if _, err := l.Build(bitvec.Inputs{bitvec.New(3)}); err == nil {
		t.Fatal("wrong player count accepted")
	}
	if _, err := l.Build(bitvec.Inputs{bitvec.New(4), bitvec.New(4)}); err == nil {
		t.Fatal("wrong string length accepted")
	}
	if _, err := l.Build(nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func TestWitnessLargeWeightEqualsBeta(t *testing.T) {
	for _, p := range []Params{FigureParams(2), {T: 3, Alpha: 1, Ell: 4}, {T: 4, Alpha: 1, Ell: 5}} {
		l := mustLinear(t, p)
		rng := rand.New(rand.NewSource(9))
		in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := l.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		witness, err := l.WitnessLarge(in, inst)
		if err != nil {
			t.Fatal(err)
		}
		weight, err := mis.Verify(inst.Graph, witness)
		if err != nil {
			t.Fatalf("%v: witness not independent: %v", p, err)
		}
		if weight < p.LinearBeta() {
			t.Fatalf("%v: witness weight %d < Beta %d", p, weight, p.LinearBeta())
		}
	}
}

func TestWitnessLargeRejectsDisjoint(t *testing.T) {
	p := FigureParams(2)
	l := mustLinear(t, p)
	in := bitvec.Inputs{
		bitvec.MustFromBits([]int{1, 0, 0}),
		bitvec.MustFromBits([]int{0, 1, 0}),
	}
	inst, err := l.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.WitnessLarge(in, inst); err == nil {
		t.Fatal("witness produced for disjoint input")
	}
}

func TestClaim1And2TwoPlayers(t *testing.T) {
	// Lemma 1's exact case analysis at t=2: intersecting instances have
	// MaxIS ≥ 4ℓ+2α; pairwise disjoint ones have MaxIS ≤ 3ℓ+2α+1.
	p := Params{T: 2, Alpha: 1, Ell: 3} // M=4, q=5, k=4, n=48
	l := mustLinear(t, p)
	rng := rand.New(rand.NewSource(11))
	ell, alpha := int64(p.Ell), int64(p.Alpha)
	for trial := 0; trial < 8; trial++ {
		inter, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		instI, err := l.Build(inter)
		if err != nil {
			t.Fatal(err)
		}
		if opt := exactOpt(t, instI); opt < 4*ell+2*alpha {
			t.Fatalf("trial %d: intersecting OPT %d < 4ℓ+2α = %d", trial, opt, 4*ell+2*alpha)
		}

		dis, err := bitvec.RandomPairwiseDisjoint(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, rng)
		if err != nil {
			t.Fatal(err)
		}
		instD, err := l.Build(dis)
		if err != nil {
			t.Fatal(err)
		}
		if opt := exactOpt(t, instD); opt > 3*ell+2*alpha+1 {
			t.Fatalf("trial %d: disjoint OPT %d > 3ℓ+2α+1 = %d", trial, opt, 3*ell+2*alpha+1)
		}
	}
}

func TestClaims3And5MultiParty(t *testing.T) {
	// Lemma 2's case analysis for t>2 via AuditGap: intersecting → OPT ≥
	// t(2ℓ+α); disjoint → OPT ≤ (t+1)ℓ+αt².
	p := SmallestValidLinear(3, 1) // t=3, ℓ=4: M=5, q=5, k=5, n=90
	if !p.LinearGapValid() {
		t.Fatal("chosen params should have a valid gap")
	}
	l := mustLinear(t, p)
	rng := rand.New(rand.NewSource(13))
	solver := func(inst core.Instance) (int64, error) {
		sol, err := mis.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
		if err != nil {
			return 0, err
		}
		return sol.Weight, nil
	}
	for trial := 0; trial < 5; trial++ {
		in, _, err := bitvec.RandomPromiseInstance(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.AuditGap(l, in, solver); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestLocalityOfConstruction(t *testing.T) {
	// Definition 4 condition 1, checked mechanically: changing player i's
	// string may only change weights in V^i (the linear family adds no
	// input edges at all).
	p := FigureParams(3)
	l := mustLinear(t, p)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < p.T; i++ {
		a := make(bitvec.Inputs, p.T)
		b := make(bitvec.Inputs, p.T)
		for j := range a {
			v := bitvec.New(p.K())
			for m := 0; m < p.K(); m++ {
				if rng.Intn(2) == 1 {
					v.Set(m)
				}
			}
			a[j] = v
			b[j] = v.Clone()
		}
		b[i] = bitvec.New(p.K()) // zero out player i's string
		if err := core.AuditLocality(l, a, b, i); err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
}

func BenchmarkBuildLinearT4(b *testing.B) {
	p := Params{T: 4, Alpha: 1, Ell: 5}
	l, err := NewLinear(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Build(in); err != nil {
			b.Fatal(err)
		}
	}
}
