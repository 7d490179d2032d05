package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"congestlb/internal/bitvec"
	"congestlb/internal/cc"
	"congestlb/internal/congest"
	"congestlb/internal/core"
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
// blackboard write, so one crossing the cut fails the run on every engine
// with the blackboard's error text.
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
		{"pipelined", congest.Config{Parallel: true, Workers: 2}},
	} {
		_, err := core.SimulateBuilt(l, in, inst, emptyPrograms, core.GossipOpt, tc.cfg)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: error = %v, want %q", tc.name, err, want)
		}
	}
	_, errs, _ := core.SimulateBatch(context.Background(), []core.BatchSim{
		{Fam: l, In: in, Inst: inst, Factory: emptyPrograms, Extract: core.GossipOpt},
	})
	if errs[0] == nil || errs[0].Error() != want {
		t.Fatalf("batch: error = %v, want %q", errs[0], want)
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
// a real transcript: on every family and engine, BlackboardBits and
// BlackboardWrites equal the Bits and Len of a blackboard that a chained
// user hook fills with every cut-crossing message.
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
			{"pipelined-w2", congest.Config{Parallel: true, Workers: 2}},
			{"pipelined-w4", congest.Config{Parallel: true, Workers: 4}},
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
		var bb cc.Blackboard
		reports, errs, _ := core.SimulateBatch(context.Background(), []core.BatchSim{{
			Fam: fam, In: in, Inst: inst, Factory: core.GossipPrograms, Extract: core.GossipOpt,
			Cfg: congest.Config{Hook: referenceBoard(inst, &bb)},
		}})
		if errs[0] != nil {
			t.Fatalf("%s/batch: %v", fam.Name(), errs[0])
		}
		check("batch", reports[0], &bb)
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

// TestSimulateAllocatesNoTranscript bounds what the Theorem 5 accounting
// allocates: with every local solve a cache hit, a GossipExact simulation
// costs under 1 MiB more than a hook-free run of the same programs, where
// a transcript copy of the cut traffic would take over 10 MiB.
func TestSimulateAllocatesNoTranscript(t *testing.T) {
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
	factory := core.GossipProgramsWith(cache.NewSession(cache.New(16), 1))
	simulate := func() {
		if _, err := core.SimulateBuilt(l, in, inst, factory, core.GossipOpt, congest.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
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
	base, sim := allocated(run), allocated(simulate)
	if sim > base+1<<20 {
		t.Fatalf("SimulateBuilt allocated %d B, hook-free run %d B: accounting costs %d B, want < 1 MiB",
			sim, base, sim-base)
	}
}
