package lbgraph

import (
	"fmt"
	"strings"
	"testing"

	"congestlb/internal/code"
)

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Params
		ok   bool
	}{
		{name: "figure preset", p: FigureParams(2), ok: true},
		{name: "three players", p: Params{T: 3, Alpha: 1, Ell: 4}, ok: true},
		{name: "alpha two", p: Params{T: 2, Alpha: 2, Ell: 2}, ok: true},
		{name: "one player", p: Params{T: 1, Alpha: 1, Ell: 2}, ok: false},
		{name: "zero alpha", p: Params{T: 2, Alpha: 0, Ell: 2}, ok: false},
		{name: "zero ell", p: Params{T: 2, Alpha: 1, Ell: 0}, ok: false},
		{name: "k overflow", p: Params{T: 2, Alpha: 9, Ell: 120}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", tt.p, err, tt.ok)
			}
		})
	}
}

func TestParamsDerived(t *testing.T) {
	tests := []struct {
		name          string
		p             Params
		m, q, k, copy int
	}{
		{name: "figure", p: FigureParams(2), m: 3, q: 3, k: 3, copy: 12},
		{name: "t3 ell4", p: Params{T: 3, Alpha: 1, Ell: 4}, m: 5, q: 5, k: 5, copy: 30},
		{name: "alpha2", p: Params{T: 2, Alpha: 2, Ell: 2}, m: 4, q: 5, k: 16, copy: 36},
		{name: "nonprime M", p: Params{T: 2, Alpha: 1, Ell: 5}, m: 6, q: 7, k: 6, copy: 48},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.M(); got != tt.m {
				t.Errorf("M = %d, want %d", got, tt.m)
			}
			if got := tt.p.Q(); got != tt.q {
				t.Errorf("Q = %d, want %d", got, tt.q)
			}
			if got := tt.p.K(); got != tt.k {
				t.Errorf("K = %d, want %d", got, tt.k)
			}
			if got := tt.p.NodesPerCopy(); got != tt.copy {
				t.Errorf("NodesPerCopy = %d, want %d", got, tt.copy)
			}
			if got := tt.p.LinearN(); got != tt.p.T*tt.copy {
				t.Errorf("LinearN = %d", got)
			}
			if got := tt.p.QuadraticN(); got != 2*tt.p.T*tt.copy {
				t.Errorf("QuadraticN = %d", got)
			}
		})
	}
}

func TestThresholdFormulas(t *testing.T) {
	p := Params{T: 3, Alpha: 1, Ell: 4}
	if got := p.LinearBeta(); got != 3*(2*4+1) {
		t.Errorf("LinearBeta = %d", got)
	}
	if got := p.LinearSmallMax(); got != 4*4+1*9 {
		t.Errorf("LinearSmallMax = %d", got)
	}
	if got := p.QuadraticBeta(); got != 3*(4*4+2) {
		t.Errorf("QuadraticBeta = %d", got)
	}
	if got := p.QuadraticSmallMax(); got != 3*4*4+3*27 {
		t.Errorf("QuadraticSmallMax = %d", got)
	}
}

func TestLinearGapValidBoundary(t *testing.T) {
	// The linear gap separates iff ℓ > αt.
	for _, tc := range []struct {
		alpha, tp int
	}{{1, 2}, {1, 3}, {2, 3}, {1, 5}} {
		atEdge := Params{T: tc.tp, Alpha: tc.alpha, Ell: tc.alpha * tc.tp}
		if atEdge.LinearGapValid() {
			t.Errorf("%v: ℓ=αt should NOT separate", atEdge)
		}
		above := SmallestValidLinear(tc.tp, tc.alpha)
		if !above.LinearGapValid() {
			t.Errorf("%v: ℓ=αt+1 should separate", above)
		}
	}
}

func TestFigureParamsMatchPaper(t *testing.T) {
	p := FigureParams(3)
	if p.Ell != 2 || p.Alpha != 1 || p.K() != 3 || p.Q() != 3 {
		t.Fatalf("figure params wrong: %v", p)
	}
	if p.LinearGapValid() {
		t.Fatal("figure params are illustrative; their gap should be vacuous for t=3")
	}
}

func TestParamsForK(t *testing.T) {
	for _, target := range []int{8, 64, 256, 1024, 4096} {
		p, err := ParamsForK(target, 3)
		if err != nil {
			t.Fatalf("ParamsForK(%d): %v", target, err)
		}
		k := p.K()
		// Must land within a factor 4 of the target (integer rounding).
		if k < target/4 || k > target*4 {
			t.Errorf("ParamsForK(%d) realised k=%d (params %v)", target, k, p)
		}
	}
	if _, err := ParamsForK(1, 2); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestParamsString(t *testing.T) {
	s := Params{T: 2, Alpha: 1, Ell: 2}.String()
	for _, want := range []string{"t=2", "k=3", "q=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

// TestFamilyLayoutMatchesParams pins the node layout the families fix at
// construction to the Params formulas, for M prime (q = M) and not
// (q > M): copy c starts at c·|V_H|, v_m at offset m, σ_(h,r) at offset
// k + h·q + r, and Code_m is σ_(h, C(m)_h − 1) for each position h. The
// linear family's copy i is c = i; the quadratic family's copy (i, b) is
// c = 2i + b.
func TestFamilyLayoutMatchesParams(t *testing.T) {
	for _, m := range []int{3, 4, 6, 8, 9, 10} {
		for _, alpha := range []int{1, 2} {
			p := Params{T: 3, Alpha: alpha, Ell: m - alpha}
			t.Run(fmt.Sprintf("M=%d,alpha=%d", m, alpha), func(t *testing.T) {
				k, q, per := p.K(), p.Q(), p.NodesPerCopy()
				lin, err := NewLinear(p)
				if err != nil {
					t.Fatal(err)
				}
				quad, err := NewQuadratic(p)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := code.NewReedSolomon(p.Alpha, m, uint64(q), k)
				if err != nil {
					t.Fatal(err)
				}
				// checkCopy compares one copy's nodes, as the family
				// numbers them, with the formulas at offset off.
				checkCopy := func(name string, off int, aNode func(mm int) int,
					sigmaNode func(h, r int) int, codeNodes func(mm int) []int) {
					t.Helper()
					for mm := 0; mm < k; mm++ {
						if got := aNode(mm); got != off+mm {
							t.Fatalf("%s: v_%d = %d, want %d", name, mm, got, off+mm)
						}
						word, err := rs.Encode(mm)
						if err != nil {
							t.Fatal(err)
						}
						nodes := codeNodes(mm)
						if len(nodes) != m {
							t.Fatalf("%s: Code_%d has %d nodes, want M=%d", name, mm, len(nodes), m)
						}
						for h, sym := range word {
							if want := off + k + h*q + sym - 1; nodes[h] != want {
								t.Fatalf("%s: Code_%d[%d] = %d, want %d", name, mm, h, nodes[h], want)
							}
						}
					}
					for h := 0; h < m; h++ {
						for r := 0; r < q; r++ {
							if got, want := sigmaNode(h, r), off+k+h*q+r; got != want {
								t.Fatalf("%s: sigma_(%d,%d) = %d, want %d", name, h, r, got, want)
							}
						}
					}
				}
				for i := 0; i < p.T; i++ {
					checkCopy(fmt.Sprintf("linear copy %d", i), i*per,
						func(mm int) int { return lin.ANode(i, mm) },
						func(h, r int) int { return lin.SigmaNode(i, h, r) },
						func(mm int) []int { return lin.CodeNodes(i, mm) })
					for b := 0; b < 2; b++ {
						checkCopy(fmt.Sprintf("quadratic copy (%d,%d)", i, b), (2*i+b)*per,
							func(mm int) int { return quad.ANode(i, b, mm) },
							func(h, r int) int { return quad.SigmaNode(i, b, h, r) },
							func(mm int) []int { return quad.CodeNodes(i, b, mm) })
					}
				}
				linInst, err := lin.BuildFixed()
				if err != nil {
					t.Fatal(err)
				}
				if got := linInst.Graph.N(); got != p.LinearN() {
					t.Fatalf("linear N = %d, want LinearN = %d", got, p.LinearN())
				}
				quadInst, err := quad.BuildFixed()
				if err != nil {
					t.Fatal(err)
				}
				if got := quadInst.Graph.N(); got != p.QuadraticN() {
					t.Fatalf("quadratic N = %d, want QuadraticN = %d", got, p.QuadraticN())
				}
			})
		}
	}
}
