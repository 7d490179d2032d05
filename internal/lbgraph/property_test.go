package lbgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"congestlb/internal/bitvec"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// Property-based tests over random small parameterisations: structural
// invariants that must hold for every member of the family.

// randomSmallParams draws parameters with buildable sizes.
func randomSmallParams(r *rand.Rand) Params {
	return Params{
		T:     2 + r.Intn(3),
		Alpha: 1 + r.Intn(2),
		Ell:   1 + r.Intn(4),
	}
}

func quickCfg(seed int64, count int) *quick.Config {
	return &quick.Config{
		MaxCount: count,
		Rand:     rand.New(rand.NewSource(seed)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
}

func TestQuickLinearStructuralInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSmallParams(r)
		if p.K() > 64 { // keep instances tiny
			return true
		}
		l, err := NewLinear(p)
		if err != nil {
			return false
		}
		inst, err := l.BuildFixed()
		if err != nil {
			return false
		}
		g, part := inst.Graph, inst.Partition
		if g.N() != p.LinearN() {
			return false
		}
		if err := g.Validate(); err != nil {
			return false
		}
		// Cut formula.
		wantCut := (p.T * (p.T - 1) / 2) * p.M() * p.Q() * (p.Q() - 1)
		if part.CutSize(g) != wantCut {
			return false
		}
		// Every A-node: degree = (k-1) + M·(q-1) (clique + non-codeword
		// code nodes).
		wantDeg := p.K() - 1 + p.M()*(p.Q()-1)
		for i := 0; i < p.T; i++ {
			for m := 0; m < p.K(); m++ {
				if g.Degree(l.ANode(i, m)) != wantDeg {
					return false
				}
			}
		}
		// Property 1 witness independent for a random m.
		m := r.Intn(p.K())
		var set []int
		for i := 0; i < p.T; i++ {
			set = append(set, l.ANode(i, m))
			set = append(set, l.CodeNodes(i, m)...)
		}
		return g.IsIndependentSet(set)
	}
	if err := quick.Check(prop, quickCfg(101, 25)); err != nil {
		t.Error(err)
	}
}

func TestQuickWitnessAlwaysMeetsBeta(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSmallParams(r)
		if p.K() > 64 {
			return true
		}
		l, err := NewLinear(p)
		if err != nil {
			return false
		}
		in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: r.Float64() / 2}, r)
		if err != nil {
			return false
		}
		inst, err := l.Build(in)
		if err != nil {
			return false
		}
		witness, err := l.WitnessLarge(in, inst)
		if err != nil {
			return false
		}
		weight, err := mis.Verify(inst.Graph, witness)
		if err != nil {
			return false
		}
		return weight >= p.LinearBeta()
	}
	if err := quick.Check(prop, quickCfg(103, 20)); err != nil {
		t.Error(err)
	}
}

func TestQuickQuadraticCutIsTwiceLinear(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSmallParams(r)
		if p.K() > 16 {
			return true
		}
		l, err := NewLinear(p)
		if err != nil {
			return false
		}
		q, err := NewQuadratic(p)
		if err != nil {
			return false
		}
		li, err := l.BuildFixed()
		if err != nil {
			return false
		}
		qi, err := q.BuildFixed()
		if err != nil {
			return false
		}
		return qi.Partition.CutSize(qi.Graph) == 2*li.Partition.CutSize(li.Graph)
	}
	if err := quick.Check(prop, quickCfg(107, 12)); err != nil {
		t.Error(err)
	}
}

// TestQuickLabelsAreUniqueAndResolvable: each family's NodeName is
// injective over its graph's nodes and names the node that ANode and
// SigmaNode place there.
func TestQuickLabelsAreUniqueAndResolvable(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomSmallParams(r)
		if p.K() > 32 {
			return true
		}
		l, err := NewLinear(p)
		if err != nil {
			return false
		}
		f, err := NewQuadratic(p)
		if err != nil {
			return false
		}
		want := map[string]int{}  // linear name -> node
		wantQ := map[string]int{} // quadratic name -> node
		for i := 0; i < p.T; i++ {
			for m := 0; m < p.K(); m++ {
				want[fmt.Sprintf("v[i=%d,m=%d]", i+1, m+1)] = l.ANode(i, m)
				for b := 0; b < 2; b++ {
					wantQ[fmt.Sprintf("v[i=%d,b=%d,m=%d]", i+1, b+1, m+1)] = f.ANode(i, b, m)
				}
			}
			for h := 0; h < p.M(); h++ {
				for r := 0; r < p.Q(); r++ {
					want[fmt.Sprintf("sigma[i=%d,h=%d,r=%d]", i+1, h+1, r+1)] = l.SigmaNode(i, h, r)
					for b := 0; b < 2; b++ {
						wantQ[fmt.Sprintf("sigma[i=%d,b=%d,h=%d,r=%d]", i+1, b+1, h+1, r+1)] = f.SigmaNode(i, b, h, r)
					}
				}
			}
		}
		return namesInvert(l.NodeName, p.LinearN(), want) && namesInvert(f.NodeName, p.QuadraticN(), wantQ)
	}
	if err := quick.Check(prop, quickCfg(109, 15)); err != nil {
		t.Error(err)
	}
}

// namesInvert reports whether name maps [0, n) one to one onto want's
// keys, each node to the name want gives it.
func namesInvert(name func(int) string, n int, want map[string]int) bool {
	if len(want) != n {
		return false
	}
	for u := 0; u < n; u++ {
		if id, ok := want[name(u)]; !ok || id != u {
			return false
		}
	}
	return true
}

func TestQuickGapThresholdsConsistent(t *testing.T) {
	// Beta and SmallMax formulas must satisfy their defining identities
	// for arbitrary parameters.
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(113)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(2 + r.Intn(30))  // t
			vals[1] = reflect.ValueOf(1 + r.Intn(10))  // alpha
			vals[2] = reflect.ValueOf(1 + r.Intn(200)) // ell
		},
	}
	prop := func(t, alpha, ell int) bool {
		p := Params{T: t, Alpha: alpha, Ell: ell}
		beta := p.LinearBeta()
		small := p.LinearSmallMax()
		if beta != int64(t)*(2*int64(ell)+int64(alpha)) {
			return false
		}
		if small != int64(t+1)*int64(ell)+int64(alpha)*int64(t)*int64(t) {
			return false
		}
		// Validity iff ℓ > αt, as derived in DESIGN.md.
		return p.LinearGapValid() == (ell > alpha*t)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBlowupWeightConservation(t *testing.T) {
	// Blow-up node count always equals the original total weight, and
	// edge count equals Σ_{(u,v)∈E} w(u)·w(v).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		g := buildRandomWeighted(n, r)
		res, err := Blowup(g, nil)
		if err != nil {
			return false
		}
		if int64(res.Graph.N()) != g.TotalWeight() {
			return false
		}
		var wantEdges int64
		for _, e := range g.Edges() {
			wantEdges += g.Weight(e.U) * g.Weight(e.V)
		}
		return int64(res.Graph.M()) == wantEdges
	}
	if err := quick.Check(prop, quickCfg(127, 40)); err != nil {
		t.Error(err)
	}
}

func buildRandomWeighted(n int, r *rand.Rand) *graphs.Graph {
	g := graphs.New(n)
	for i := 0; i < n; i++ {
		g.AddNodeID(1 + r.Int63n(4))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < 0.4 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}
