package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/congestalg"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
	"congestlb/internal/lbgraph"
)

// Failure-injection tests: the reduction must reject unsound runs rather
// than report them.

func TestSimulateRejectsOverBudgetAlgorithm(t *testing.T) {
	// A bandwidth too small for the gossip records must surface as
	// ErrBandwidthExceeded through the whole stack.
	l := mustLinear(t)
	rng := rand.New(rand.NewSource(1))
	in, _, err := bitvec.RandomUniquelyIntersecting(testParams.K(), testParams.T, bitvec.GenOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulate(t, l, in, core.GossipPrograms, core.GossipOpt,
		congest.Config{BandwidthBits: 8})
	if !errors.Is(err, congest.ErrBandwidthExceeded) {
		t.Fatalf("error = %v, want ErrBandwidthExceeded", err)
	}
}

// TestSimulateRejectsLyingExtractor feeds Simulate an extractor that
// reports a value inside the forbidden gap; the gap predicate must reject
// it. A wide-gap parameterisation (testParams' interval is empty) makes
// the interior non-empty.
func TestSimulateRejectsLyingExtractor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	wide := lbgraph.Params{T: 2, Alpha: 1, Ell: 10}
	lw, err := lbgraph.NewLinear(wide)
	if err != nil {
		t.Fatal(err)
	}
	inWide, _, err := bitvec.RandomUniquelyIntersecting(wide.K(), wide.T, bitvec.GenOptions{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	interior := lw.Gap().SmallMax + 1
	if interior >= lw.Gap().Beta {
		t.Fatalf("test setup: gap not wide enough (%d..%d)", lw.Gap().SmallMax, lw.Gap().Beta)
	}
	liar := func(congest.Result, core.Instance) (int64, error) { return interior, nil }
	// The algorithm's behaviour is irrelevant here — run silent programs
	// so the test stays fast.
	silentFactory := func(inst core.Instance) []congest.NodeProgram {
		programs := make([]congest.NodeProgram, inst.Graph.N())
		for i := range programs {
			programs[i] = &silentProgram{}
		}
		return programs
	}
	_, err = simulate(t, lw, inWide, silentFactory, liar, congest.Config{})
	if !errors.Is(err, core.ErrGapViolated) {
		t.Fatalf("error = %v, want ErrGapViolated", err)
	}
}

// silentProgram terminates immediately without sending anything.
type silentProgram struct{ done bool }

func (s *silentProgram) Init(congest.NodeInfo) {}
func (s *silentProgram) Round(int, []congest.Message) []congest.Message {
	s.done = true
	return nil
}
func (s *silentProgram) Done() bool  { return s.done }
func (s *silentProgram) Output() any { return nil }

func TestGossipOptRejectsDependentSet(t *testing.T) {
	// WitnessOpt/GossipOpt re-verify independence; feed them a result
	// claiming an adjacent pair.
	g := graphs.New(2)
	a := g.AddNodeID(1)
	b := g.AddNodeID(1)
	g.MustAddEdge(a, b)
	part := graphs.MustNewPartition(2, 2)
	inst := core.Instance{Graph: g, Partition: part}

	bad := congest.Result{Outputs: []any{
		[]graphs.NodeID{a, b},
		[]graphs.NodeID{a, b},
	}}
	if _, err := core.GossipOpt(bad, inst); err == nil {
		t.Fatal("dependent set accepted by GossipOpt")
	}

	badBool := congest.Result{Outputs: []any{true, true}}
	if _, err := core.WitnessOpt(badBool, inst); err == nil {
		t.Fatal("dependent membership accepted by WitnessOpt")
	}
}

// TestWeightOverWireFieldIsNamed: node records carry the weight in 32
// bits. On an 8-node path whose node 0 weighs 2^32 the true optimum is
// {0,2,4,6}, but a truncated record makes it look like weight 0, so both
// exact programs used to report a wrong answer (CollectSolve {1,3,5,7},
// GossipExact a disagreement between nodes). Now node 0 keeps taking part,
// the run terminates, and the extractors fail with node 0's error naming
// the field and the value.
func TestWeightOverWireFieldIsNamed(t *testing.T) {
	const n = 8
	g := graphs.New(n)
	g.AddNodeID(1 << 32)
	for u := 1; u < n; u++ {
		g.AddNodeID(1)
		g.MustAddEdge(u-1, u)
	}
	inst := core.Instance{Graph: g, Partition: graphs.MustNewPartition(n, 1)}
	for _, tc := range []struct {
		name     string
		programs []congest.NodeProgram
		extract  core.OptExtractor
		text     string
	}{
		{"GossipExact", congestalg.NewGossipExactPrograms(n), core.GossipOpt,
			"congestalg: node 0 failed: gossip at node 0: congestalg: weight 4294967296 of node 0 does not fit the 32-bit wire field"},
		{"CollectSolve", congestalg.NewCollectSolvePrograms(n), core.WitnessOpt,
			"congestalg: node 0 failed: congestalg: weight 4294967296 of node 0 does not fit the 32-bit wire field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := congest.NewNetwork(g, tc.programs, congest.Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := net.Run()
			if err != nil {
				t.Fatalf("run did not terminate cleanly: %v", err)
			}
			if _, err := tc.extract(res, inst); err == nil || err.Error() != tc.text {
				t.Fatalf("extractor error = %v, want %q", err, tc.text)
			}
		})
	}
}

func TestAuditLocalityCatchesCheatingFamily(t *testing.T) {
	// A family whose cut depends on the inputs violates Definition 4;
	// AuditLocality must catch it.
	cheat := &cheatingFamily{}
	a := bitvec.Inputs{bitvec.MustFromBits([]int{1}), bitvec.MustFromBits([]int{0})}
	b := bitvec.Inputs{bitvec.MustFromBits([]int{0}), bitvec.MustFromBits([]int{0})}
	if err := core.AuditLocality(cheat, a, b, 0); err == nil {
		t.Fatal("cheating family passed the locality audit")
	}
}

// cheatingFamily puts an input-dependent edge ACROSS the partition.
type cheatingFamily struct{}

func (f *cheatingFamily) Name() string   { return "cheater" }
func (f *cheatingFamily) Players() int   { return 2 }
func (f *cheatingFamily) InputBits() int { return 1 }
func (f *cheatingFamily) Gap() core.GapPredicate {
	return core.GapPredicate{Beta: 2, SmallMax: 1}
}

func (f *cheatingFamily) Build(in bitvec.Inputs) (core.Instance, error) {
	g := graphs.New(2)
	a := g.AddNodeID(1)
	b := g.AddNodeID(1)
	part := graphs.MustNewPartition(2, 2)
	part.MustAssign(b, 1)
	if in[0].Get(0) { // cross-player edge depending on player 0's input
		g.MustAddEdge(a, b)
	}
	return core.Instance{Graph: g, Partition: part}, nil
}

func (f *cheatingFamily) WitnessLarge(bitvec.Inputs, core.Instance) ([]graphs.NodeID, error) {
	return nil, nil
}
