package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis"
)

// testParams is a small linear parameterisation with a genuinely valid gap
// (t=2, ℓ=3 > αt=2): n=48, k=4.
var testParams = lbgraph.Params{T: 2, Alpha: 1, Ell: 3}

func mustLinear(t *testing.T) *lbgraph.Linear {
	t.Helper()
	l, err := lbgraph.NewLinear(testParams)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// simulate builds fam's instance for in and runs core.Simulate on it.
func simulate(t *testing.T, fam core.Family, in bitvec.Inputs, factory core.ProgramFactory, extract core.OptExtractor, cfg congest.Config) (core.SimulationReport, error) {
	t.Helper()
	inst, err := fam.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	return core.Simulate(context.Background(), fam, in, inst, factory, extract, cfg)
}

func TestGapPredicate(t *testing.T) {
	gap := core.GapPredicate{Beta: 14, SmallMax: 13}
	if !gap.Valid() {
		t.Fatal("14 > 13 should be valid")
	}
	if gap.Ratio() != 13.0/14.0 {
		t.Fatalf("Ratio = %f", gap.Ratio())
	}
	if v, err := gap.Decide(20); err != nil || v {
		t.Fatalf("Decide(20) = %v,%v, want FALSE (intersecting)", v, err)
	}
	if v, err := gap.Decide(5); err != nil || !v {
		t.Fatalf("Decide(5) = %v,%v, want TRUE (disjoint)", v, err)
	}
	vacuous := core.GapPredicate{Beta: 10, SmallMax: 10}
	if vacuous.Valid() {
		t.Fatal("Beta == SmallMax should be invalid")
	}
	interior := core.GapPredicate{Beta: 20, SmallMax: 10}
	if _, err := interior.Decide(15); !errors.Is(err, core.ErrGapViolated) {
		t.Fatalf("interior Decide error = %v", err)
	}
	if (core.GapPredicate{}).Ratio() != 0 {
		t.Fatal("zero Beta ratio should be 0")
	}
}

// exactSolver returns the standard exact-MaxIS callback for AuditGap.
func exactSolver(inst core.Instance) (int64, error) {
	sol, err := mis.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
	if err != nil {
		return 0, err
	}
	return sol.Weight, nil
}

func TestAuditGapBothCases(t *testing.T) {
	l := mustLinear(t)
	rng := rand.New(rand.NewSource(3))
	k := testParams.K()

	inter, _, err := bitvec.RandomUniquelyIntersecting(k, testParams.T, bitvec.GenOptions{Density: 0.4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.AuditGap(l, inter, exactSolver)
	if err != nil {
		t.Fatal(err)
	}
	if opt < l.Gap().Beta {
		t.Fatalf("intersecting OPT %d below Beta %d", opt, l.Gap().Beta)
	}

	dis, err := bitvec.RandomPairwiseDisjoint(k, testParams.T, bitvec.GenOptions{Density: 0.4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, err = core.AuditGap(l, dis, exactSolver)
	if err != nil {
		t.Fatal(err)
	}
	if opt > l.Gap().SmallMax {
		t.Fatalf("disjoint OPT %d above SmallMax %d", opt, l.Gap().SmallMax)
	}
}

func TestAuditGapRejectsBrokenSolver(t *testing.T) {
	l := mustLinear(t)
	rng := rand.New(rand.NewSource(5))
	inter, _, err := bitvec.RandomUniquelyIntersecting(testParams.K(), testParams.T, bitvec.GenOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// A solver reporting an implausibly small optimum must be caught.
	broken := func(core.Instance) (int64, error) { return 1, nil }
	if _, err := core.AuditGap(l, inter, broken); err == nil {
		t.Fatal("broken solver passed the gap audit")
	}
}

func TestSimulateTheorem5EndToEnd(t *testing.T) {
	l := mustLinear(t)
	rng := rand.New(rand.NewSource(7))
	k := testParams.K()

	cases := []struct {
		name  string
		build func() (bitvec.Inputs, error)
		truth bool
	}{
		{
			name: "uniquely intersecting",
			build: func() (bitvec.Inputs, error) {
				in, _, err := bitvec.RandomUniquelyIntersecting(k, testParams.T, bitvec.GenOptions{Density: 0.3}, rng)
				return in, err
			},
			truth: false,
		},
		{
			name: "pairwise disjoint",
			build: func() (bitvec.Inputs, error) {
				return bitvec.RandomPairwiseDisjoint(k, testParams.T, bitvec.GenOptions{Density: 0.3}, rng)
			},
			truth: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			report, err := simulate(t, l, in, core.GossipPrograms, core.GossipOpt, congest.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if report.Truth != tc.truth {
				t.Fatalf("truth = %v, want %v", report.Truth, tc.truth)
			}
			if !report.Correct() {
				t.Fatalf("protocol decided %v, truth %v (opt=%d)", report.Decision, report.Truth, report.Opt)
			}
			if !report.AccountingHolds() {
				t.Fatalf("Theorem 5 accounting violated: %d bits > %d",
					report.BlackboardBits, report.AccountingBound)
			}
			if report.BlackboardBits == 0 {
				t.Fatal("no cut traffic recorded; the reduction saw no communication")
			}
			if report.BlackboardBits >= report.CongestTotalBits {
				t.Fatal("cut traffic should be a strict subset of all traffic")
			}
			if report.CutSize == 0 || report.Rounds == 0 {
				t.Fatalf("degenerate report: %+v", report)
			}
		})
	}
}

// TestSessionlessSimulateSharesNoState pins that no state crosses
// session-less runs: two consecutive core.Simulate calls with the
// session-less gossip factory on the same instance return identical
// reports, because each run builds from scratch and solves on a cache of
// its own.
func TestSessionlessSimulateSharesNoState(t *testing.T) {
	p := lbgraph.FigureParams(2)
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	var reports [2]core.SimulationReport
	for i := range reports {
		reports[i], err = simulate(t, l, in, core.GossipPrograms, core.GossipOpt, congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if reports[0] != reports[1] {
		t.Fatalf("second session-less run differs from the first:\n%+v\n%+v", reports[0], reports[1])
	}
	if reports[0].N != p.LinearN() || !reports[0].Correct() {
		t.Fatalf("unexpected report: %+v", reports[0])
	}
}

func TestSimulateRejectsPromiseViolation(t *testing.T) {
	l := mustLinear(t)
	k := testParams.K()
	// x1 and x2 intersect at 0 but also have private structure violating
	// nothing... make a genuine violation: x1∩x2 ≠ ∅ but no common index
	// across all players is impossible at t=2 — any pairwise hit is a
	// common index. Violate differently: three players needed; here use
	// mismatched lengths instead.
	inst, err := l.BuildFixed()
	if err != nil {
		t.Fatal(err)
	}
	bad := bitvec.Inputs{bitvec.New(k), bitvec.New(k + 1)}
	if _, err := core.Simulate(context.Background(), l, bad, inst, core.GossipPrograms, core.GossipOpt, congest.Config{}); err == nil {
		t.Fatal("mismatched inputs accepted")
	}
}

func TestRoundLowerBound(t *testing.T) {
	// Corollary 1 arithmetic: k=1000, t=2, cut=10, n=1024 →
	// (1000/2)/(10·10) = 5.
	if got := core.RoundLowerBound(1000, 2, 10, 1024); math.Abs(got-5) > 1e-9 {
		t.Fatalf("RoundLowerBound = %f, want 5", got)
	}
	if core.RoundLowerBound(1000, 2, 0, 1024) != 0 {
		t.Fatal("zero cut should yield 0")
	}
	if core.RoundLowerBound(1000, 2, 10, 1) != 0 {
		t.Fatal("degenerate n should yield 0")
	}
}

func TestTheoremBoundsShape(t *testing.T) {
	// Theorem 1: Ω(n/log³n) grows near-linearly; at n=2^20 a doubling
	// multiplies the bound by 2·(20/21)³ ≈ 1.73. Theorem 2 grows
	// near-quadratically: 4·(20/21)³ ≈ 3.46.
	n := 1 << 20
	t1a, t1b := core.Theorem1Bound(float64(n)), core.Theorem1Bound(float64(2*n))
	if ratio := t1b / t1a; ratio < 1.6 || ratio > 2.0 {
		t.Fatalf("Theorem1 doubling ratio %f outside (1.6,2.0)", ratio)
	}
	t2a, t2b := core.Theorem2Bound(float64(n)), core.Theorem2Bound(float64(2*n))
	if ratio := t2b / t2a; ratio < 3.2 || ratio > 4.0 {
		t.Fatalf("Theorem2 doubling ratio %f outside (3.2,4.0)", ratio)
	}
	// The improvement over Bachrach et al.: log³ vs log⁶ — three log
	// factors at the same approximation regime.
	if core.Theorem1Bound(1<<20) <= core.PriorLinearBound(1<<20) {
		t.Fatal("Theorem 1 should dominate the prior linear bound")
	}
	if core.Theorem2Bound(1<<20) <= core.PriorQuadraticBound(1<<20) {
		t.Fatal("Theorem 2 should dominate the prior quadratic bound")
	}
	if core.Theorem1Bound(1) != 0 || core.Theorem2Bound(0) != 0 {
		t.Fatal("degenerate n should yield 0")
	}
}

func TestPlayersForEpsilon(t *testing.T) {
	tests := []struct {
		eps       float64
		quadratic bool
		want      int
	}{
		{eps: 0.25, quadratic: false, want: 8}, // 2/ε
		{eps: 0.5, quadratic: false, want: 4},
		{eps: 1.0 / 3, quadratic: false, want: 6},
		{eps: 0.25, quadratic: true, want: 2},  // 3/(4ε)−1 = 2
		{eps: 0.05, quadratic: true, want: 14}, // 15−1
		{eps: 0, quadratic: false, want: 0},
	}
	for _, tt := range tests {
		if got := core.PlayersForEpsilon(tt.eps, tt.quadratic); got != tt.want {
			t.Errorf("PlayersForEpsilon(%f,%v) = %d, want %d", tt.eps, tt.quadratic, got, tt.want)
		}
	}
}

func TestTwoPartyApproximationFloor(t *testing.T) {
	if core.TwoPartyApproximationFloor(2) != 0.5 {
		t.Fatal("2-party floor should be 1/2")
	}
	if core.TwoPartyApproximationFloor(4) != 0.25 {
		t.Fatal("4-party floor should be 1/4")
	}
	if core.TwoPartyApproximationFloor(0) != 0 {
		t.Fatal("degenerate t")
	}
}
