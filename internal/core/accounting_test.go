package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/cc"
	"congestlb/internal/congest"
	"congestlb/internal/congestalg"
	"congestlb/internal/core"
	"congestlb/internal/graphs"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis/cache"
)

// Tests of the Theorem 5 cut accounting: the simulation counts the bits
// and writes crossing the player cut without keeping a transcript.

// emptyProgram sends an empty payload to every neighbour in round 1.
type emptyProgram struct {
	info congest.NodeInfo
	done bool
}

func (p *emptyProgram) Init(info congest.NodeInfo) { p.info = info }
func (p *emptyProgram) Round(int, []congest.Message) []congest.Message {
	if p.done {
		return nil
	}
	p.done = true
	out := make([]congest.Message, 0, len(p.info.Neighbors))
	for _, v := range p.info.Neighbors {
		out = append(out, congest.Message{From: p.info.ID, To: v})
	}
	return out
}
func (p *emptyProgram) Done() bool  { return p.done }
func (p *emptyProgram) Output() any { return nil }

func emptyPrograms(inst core.Instance) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, inst.Graph.N())
	for i := range programs {
		programs[i] = &emptyProgram{}
	}
	return programs
}

// TestSimulateRejectsZeroBitCutMessage: a message of 0 bits cannot be a
// blackboard write, so one crossing the cut fails the run — alone and
// with the deprecated Parallel and Workers set — with the blackboard's
// error text.
func TestSimulateRejectsZeroBitCutMessage(t *testing.T) {
	const want = "core: run: congest: hook: cc: write of 0 bits"
	l := mustLinear(t)
	in, _, err := bitvec.RandomUniquelyIntersecting(testParams.K(), testParams.T, bitvec.GenOptions{Density: 0.3}, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := l.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  congest.Config
	}{
		{"sequential", congest.Config{}},
		{"parallel-w4", congest.Config{Parallel: true, Workers: 4}},
	} {
		_, err := core.SimulateBuilt(l, in, inst, emptyPrograms, core.GossipOpt, tc.cfg)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: error = %v, want %q", tc.name, err, want)
		}
	}
}

// referenceBoard returns a hook writing every cut-crossing message of inst
// onto bb, the transcript the simulation's counters must agree with.
func referenceBoard(inst core.Instance, bb *cc.Blackboard) congest.MessageHook {
	part := inst.Partition
	return func(_ int, msg congest.Message) error {
		if part.Of(msg.From) == part.Of(msg.To) {
			return nil
		}
		return bb.Write(part.Of(msg.From), "", msg.Data, msg.Bits())
	}
}

// TestCutCountsMatchBlackboardTranscript pins the count-only accounting to
// a real transcript: on every family, alone and with the deprecated
// Parallel and Workers set, BlackboardBits and BlackboardWrites equal the
// Bits and Len of a blackboard that a chained user hook fills with every
// cut-crossing message.
func TestCutCountsMatchBlackboardTranscript(t *testing.T) {
	p := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	lin, err := lbgraph.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := lbgraph.NewQuadratic(lbgraph.FigureParams(2))
	if err != nil {
		t.Fatal(err)
	}
	unw, err := lbgraph.NewUnweightedLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, fam := range []core.Family{lin, quad, unw} {
		in, _, err := bitvec.RandomUniquelyIntersecting(fam.InputBits(), fam.Players(), bitvec.GenOptions{Density: 0.3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := fam.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		check := func(engine string, rep core.SimulationReport, bb *cc.Blackboard) {
			t.Helper()
			if bb.Len() == 0 {
				t.Fatalf("%s/%s: no cut traffic", fam.Name(), engine)
			}
			if rep.BlackboardBits != bb.Bits() || rep.BlackboardWrites != int64(bb.Len()) {
				t.Fatalf("%s/%s: counted %d bits in %d writes, transcript has %d bits in %d writes",
					fam.Name(), engine, rep.BlackboardBits, rep.BlackboardWrites, bb.Bits(), bb.Len())
			}
		}
		for _, tc := range []struct {
			name string
			cfg  congest.Config
		}{
			{"sequential", congest.Config{}},
			{"parallel-w4", congest.Config{Parallel: true, Workers: 4}},
		} {
			var bb cc.Blackboard
			cfg := tc.cfg
			cfg.Hook = referenceBoard(inst, &bb)
			rep, err := core.SimulateBuilt(fam, in, inst, core.GossipPrograms, core.GossipOpt, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam.Name(), tc.name, err)
			}
			check(tc.name, rep, &bb)
		}
	}
}

// directedCutLoad returns a hook failing the run when one directed cut
// edge carries more than bw bits in one round. Hooks run in round order,
// so the per-edge tally restarts whenever the round changes.
func directedCutLoad(part *graphs.Partition, bw int64) congest.MessageHook {
	round := -1
	var load map[[2]graphs.NodeID]int64
	return func(r int, msg congest.Message) error {
		if part.Of(msg.From) == part.Of(msg.To) {
			return nil
		}
		if r != round {
			round, load = r, make(map[[2]graphs.NodeID]int64)
		}
		e := [2]graphs.NodeID{msg.From, msg.To}
		load[e] += msg.Bits()
		if load[e] > bw {
			return fmt.Errorf("round %d: cut edge %d→%d carried %d bits, B = %d", r, msg.From, msg.To, load[e], bw)
		}
		return nil
	}
}

// TestAccountingBoundLiveRuns runs every shipped program on a linear and a
// quadratic instance, with the cut set, at B down to GossipExact's largest
// record (72 bits) and at the default B. No directed cut edge may carry
// more than B bits in a round, and the transcript must fit in
// 2·T·|cut|·B: in one round a cut edge carries B bits each way. At B = 72
// and 80 the linear gossip run writes more than T·|cut|·B bits, so the
// factor 2 is needed.
func TestAccountingBoundLiveRuns(t *testing.T) {
	lin, err := lbgraph.NewLinear(lbgraph.Params{T: 2, Alpha: 1, Ell: 3})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := lbgraph.NewQuadratic(lbgraph.FigureParams(2))
	if err != nil {
		t.Fatal(err)
	}
	sess := cache.NewSession(cache.New(0))
	byN := func(f func(n int) []congest.NodeProgram) core.ProgramFactory {
		return func(inst core.Instance) []congest.NodeProgram { return f(inst.Graph.N()) }
	}
	programs := []struct {
		name    string
		factory core.ProgramFactory
		extract core.OptExtractor // nil: no extractor, run the network directly
	}{
		{"GossipExact", core.GossipProgramsWith(sess), core.GossipOpt},
		{"CollectSolve", core.CollectProgramsWith(sess), core.WitnessOpt},
		{"Luby", byN(congestalg.NewLubyPrograms), core.WitnessOpt},
		{"RankGreedy", byN(congestalg.NewRankGreedyPrograms), core.WitnessOpt},
		{"LeaderBFS", byN(congestalg.NewLeaderBFSPrograms), nil},
	}
	rng := rand.New(rand.NewSource(37))
	for _, fam := range []core.Family{lin, quad} {
		// Disjoint inputs: every independent set then weighs at most
		// SmallMax, so the heuristics' weights decide the gap too.
		in, err := bitvec.RandomPairwiseDisjoint(fam.InputBits(), fam.Players(), bitvec.GenOptions{Density: 0.3}, rng)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := fam.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(inst.Partition.CutSize(inst.Graph))
		for _, bw := range []int64{72, 80, 96, 0} {
			limit := bw
			if bw == 0 {
				limit = congest.DefaultBandwidth(inst.Graph.N())
			}
			for _, p := range programs {
				name := fmt.Sprintf("%s/%s/B=%d", fam.Name(), p.name, limit)
				cfg := congest.Config{BandwidthBits: bw, Seed: 5, Hook: directedCutLoad(inst.Partition, limit)}
				var bits, bound int64
				if p.extract != nil {
					rep, err := core.SimulateBuiltCtx(context.Background(), fam, in, inst, p.factory, p.extract, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !rep.Correct() || !rep.AccountingHolds() {
						t.Fatalf("%s: correct %v, %d bits against bound %d", name, rep.Correct(), rep.BlackboardBits, rep.AccountingBound)
					}
					if want := 2 * int64(rep.Rounds) * cut * limit; rep.AccountingBound != want {
						t.Fatalf("%s: AccountingBound %d, want 2·T·|cut|·B = %d", name, rep.AccountingBound, want)
					}
					bits, bound = rep.BlackboardBits, rep.AccountingBound
				} else {
					cfg.Cut = inst.Partition
					net, err := congest.NewNetwork(inst.Graph, p.factory(inst), cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					res, err := net.Run()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					bits, bound = res.Stats.CutBits, 2*int64(res.Stats.Rounds)*cut*limit
				}
				if bits == 0 || bits > bound {
					t.Fatalf("%s: %d cut bits against 2·T·|cut|·B = %d", name, bits, bound)
				}
			}
		}
	}
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// linearGossip returns a Theorem 5 simulation of GossipExact on linear
// t=3, α=1, ℓ=4 (n=90, m=780) and a hook-free run of the same programs.
// Both share one solve session, warmed here, so every local solve is a
// cache hit.
func linearGossip(t *testing.T) (simulate, run func()) {
	t.Helper()
	p := lbgraph.Params{T: 3, Alpha: 1, Ell: 4}
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := l.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	factory := core.GossipProgramsWith(cache.NewSession(cache.New(16)))
	simulate = func() {
		if _, err := core.SimulateBuilt(l, in, inst, factory, core.GossipOpt, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run = func() {
		net, err := congest.NewNetwork(inst.Graph, factory(inst), congest.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	simulate() // warm the solve session and the engine's buffers
	run()
	return simulate, run
}

// TestSimulateAllocatesNoTranscript bounds what the Theorem 5 accounting
// allocates: with every local solve a cache hit, a GossipExact simulation
// costs under 1 MiB more than a hook-free run of the same programs, where
// a transcript copy of the cut traffic would take over 10 MiB.
func TestSimulateAllocatesNoTranscript(t *testing.T) {
	simulate, run := linearGossip(t)
	base, sim := allocated(run), allocated(simulate)
	if sim > base+1<<20 {
		t.Fatalf("SimulateBuilt allocated %d B, hook-free run %d B: accounting costs %d B, want < 1 MiB",
			sim, base, sim-base)
	}
}

// TestGossipRunAllocationBound bounds the round loop and the programs
// themselves: a warm, hook-free GossipExact run on linear t=3, α=1, ℓ=4
// allocates under 12 MiB. One forwarding log per node keeps it near
// 5.8 MiB; one forwarding queue per neighbour took 31 MiB.
func TestGossipRunAllocationBound(t *testing.T) {
	_, run := linearGossip(t)
	got := allocated(run)
	if got >= 12<<20 {
		t.Fatalf("warm hook-free GossipExact run allocated %d B, want < 12 MiB", got)
	}
	t.Logf("warm hook-free GossipExact run allocated %.2f MiB", float64(got)/(1<<20))
}
