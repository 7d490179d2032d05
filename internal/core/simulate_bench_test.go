package core_test

import (
	"context"
	"math/rand"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis/cache"
)

// reduceInstance is one of the two instances POST /v1/reduce serves, on
// its uniquely intersecting inputs (density 0.3, seed 43).
type reduceInstance struct {
	name string
	fam  core.Family
	in   bitvec.Inputs
	inst core.Instance
}

// reduceInstances builds GossipExact's two /v1/reduce instances: linear
// t=3, α=1, ℓ=4 (n=90) and quadratic t=2, α=1, ℓ=3 (n=96).
func reduceInstances(tb testing.TB) []reduceInstance {
	tb.Helper()
	lin, err := lbgraph.NewLinear(lbgraph.Params{T: 3, Alpha: 1, Ell: 4})
	if err != nil {
		tb.Fatal(err)
	}
	quad, err := lbgraph.NewQuadratic(lbgraph.Params{T: 2, Alpha: 1, Ell: 3})
	if err != nil {
		tb.Fatal(err)
	}
	var out []reduceInstance
	for _, tc := range []struct {
		name string
		fam  core.Family
	}{
		{"linear-t3", lin},
		{"quadratic-t2", quad},
	} {
		in, _, err := bitvec.RandomUniquelyIntersecting(tc.fam.InputBits(), tc.fam.Players(), bitvec.GenOptions{Density: 0.3}, rand.New(rand.NewSource(43)))
		if err != nil {
			tb.Fatal(err)
		}
		inst, err := tc.fam.Build(in)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, reduceInstance{tc.name, tc.fam, in, inst})
	}
	return out
}

// TestReduceTranscriptPinned pins GossipExact's transcript on the two
// /v1/reduce instances: its round count, the Theorem 5 blackboard's bits
// and writes, the total CONGEST volume and the extracted optimum. A
// change to what any node sends, or when, moves at least one of them.
func TestReduceTranscriptPinned(t *testing.T) {
	want := map[string]core.SimulationReport{
		"linear-t3":    {Rounds: 865, BlackboardBits: 21_125_216, BlackboardWrites: 487_344, CongestTotalBits: 55_427_280, Opt: 27},
		"quadratic-t2": {Rounds: 721, BlackboardBits: 9_141_064, BlackboardWrites: 206_013, CongestTotalBits: 37_078_728, Opt: 28},
	}
	for _, ri := range reduceInstances(t) {
		rep, err := core.Simulate(context.Background(), ri.fam, ri.in, ri.inst, core.GossipPrograms, core.GossipOpt, congest.Config{})
		if err != nil {
			t.Fatalf("%s: %v", ri.name, err)
		}
		w := want[ri.name]
		if rep.Rounds != w.Rounds || rep.BlackboardBits != w.BlackboardBits || rep.BlackboardWrites != w.BlackboardWrites ||
			rep.CongestTotalBits != w.CongestTotalBits || rep.Opt != w.Opt {
			t.Errorf("%s: rounds %d, blackboard %d bits in %d writes, %d bits in total, opt %d; want %d, %d bits in %d writes, %d bits, opt %d",
				ri.name, rep.Rounds, rep.BlackboardBits, rep.BlackboardWrites, rep.CongestTotalBits, rep.Opt,
				w.Rounds, w.BlackboardBits, w.BlackboardWrites, w.CongestTotalBits, w.Opt)
		}
		if !rep.AccountingHolds() || !rep.Correct() {
			t.Errorf("%s: accounting holds %v, correct %v", ri.name, rep.AccountingHolds(), rep.Correct())
		}
	}
}

// BenchmarkSimulateReduce times the Theorem 5 simulation on the two
// instances POST /v1/reduce serves (reduceInstances), with Parallel set
// as the service's clients send it. Every local solve hits a warm solve
// session, so the figure is the round loop and the cut tally. Run it with
// -benchmem.
func BenchmarkSimulateReduce(b *testing.B) {
	for _, ri := range reduceInstances(b) {
		b.Run(ri.name, func(b *testing.B) {
			factory := core.GossipProgramsWith(cache.NewSession(cache.New(16)))
			cfg := congest.Config{Parallel: true}
			run := func() {
				if _, err := core.Simulate(context.Background(), ri.fam, ri.in, ri.inst, factory, core.GossipOpt, cfg); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the solve session
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
