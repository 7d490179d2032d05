package congestlb_test

// One benchmark per experiment in DESIGN.md's index: each bench regenerates
// the corresponding paper figure/table end to end (construction, exact
// solving, simulation, verification), so `go test -bench=.` re-derives the
// whole evaluation and times it.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"congestlb"
	"congestlb/internal/core"
	"congestlb/internal/experiments"
	"congestlb/internal/fault"
	"congestlb/internal/mis/cache"
)

// BenchmarkFaultOverhead prices the disabled fault layer: every injection
// point the hot paths now carry (the disk tier's error/corrupt/stall
// sites, the worker pools' panic sites) collapses to one atomic load and
// a nil check when no plan is armed. This bench pins that cost so a
// future "just check a map" regression shows up in the baseline archive.
func BenchmarkFaultOverhead(b *testing.B) {
	prev := fault.Set(nil)
	b.Cleanup(func() { fault.Set(prev) })
	data := []byte(`{"schema":"congestlb/solve-cache/v1","weight":42}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fault.Should(fault.DiskRead, "bench") {
			b.Fatal("disabled injector fired")
		}
		if err := fault.Err(fault.DiskWrite, "bench", 0); err != nil {
			b.Fatal(err)
		}
		if out := fault.Corrupt("bench", data); len(out) != len(data) {
			b.Fatal("disabled Corrupt rewrote data")
		}
		fault.MaybePanic(fault.SolverPanic, "bench")
		fault.Stall(fault.DiskSlow, "bench")
	}
}

// benchSolve is the one solve session every experiment benchmark runs on:
// a benchmark meets the cache its own earlier iterations and the earlier
// benchmarks warmed, as an experiment of a suite run meets its run's
// cache.
var benchSolve = cache.NewSession(cache.New(0))

// benchCtx is an experiment context over the benchmarks' shared session.
func benchCtx() *experiments.Ctx {
	return experiments.NewCtx(io.Discard, benchSolve)
}

// benchExperiment runs one registered experiment per iteration, failing the
// bench if its internal assertions fail.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(benchCtx()); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkExpFigure1(b *testing.B)     { benchExperiment(b, "figure1") }
func BenchmarkExpFigure2(b *testing.B)     { benchExperiment(b, "figure2") }
func BenchmarkExpFigure3(b *testing.B)     { benchExperiment(b, "figure3") }
func BenchmarkExpFigure4(b *testing.B)     { benchExperiment(b, "figure4") }
func BenchmarkExpFigure5(b *testing.B)     { benchExperiment(b, "figure5") }
func BenchmarkExpFigure6(b *testing.B)     { benchExperiment(b, "figure6") }
func BenchmarkExpCodes(b *testing.B)       { benchExperiment(b, "codes") }
func BenchmarkExpProperties(b *testing.B)  { benchExperiment(b, "properties") }
func BenchmarkExpLemma1(b *testing.B)      { benchExperiment(b, "lemma1") }
func BenchmarkExpLemma2(b *testing.B)      { benchExperiment(b, "lemma2") }
func BenchmarkExpLemma3(b *testing.B)      { benchExperiment(b, "lemma3") }
func BenchmarkExpTheorem1(b *testing.B)    { benchExperiment(b, "theorem1") }
func BenchmarkExpTheorem2(b *testing.B)    { benchExperiment(b, "theorem2") }
func BenchmarkExpTheorem3(b *testing.B)    { benchExperiment(b, "theorem3") }
func BenchmarkExpTheorem5(b *testing.B)    { benchExperiment(b, "theorem5") }
func BenchmarkExpCutSize(b *testing.B)     { benchExperiment(b, "cutsize") }
func BenchmarkExpTwoParty(b *testing.B)    { benchExperiment(b, "twoparty") }
func BenchmarkExpRemark1(b *testing.B)     { benchExperiment(b, "remark1") }
func BenchmarkExpUpperBounds(b *testing.B) { benchExperiment(b, "upperbounds") }
func BenchmarkExpAblations(b *testing.B)   { benchExperiment(b, "ablations") }
func BenchmarkExpDiameter(b *testing.B)    { benchExperiment(b, "diameter") }
func BenchmarkExpSolver(b *testing.B)      { benchExperiment(b, "solver") }

// BenchmarkExpScaling times the scaling sweep whole (suite — the
// successor of the old flat BenchmarkExpScaling measurement; benchjson
// -compare maps the old name onto it) and each sweep point alone, so a
// perf change at one instance size is visible as that point's delta
// instead of vanishing into the sweep total.
func BenchmarkExpScaling(b *testing.B) {
	b.Run("suite", func(b *testing.B) { benchExperiment(b, "scaling") })
	for i, p := range experiments.ScalingPoints() {
		b.Run(fmt.Sprintf("n=%d", p.LinearN()), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				if _, err := experiments.RunScalingPoint(benchCtx(), i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLabOverhead measures what the Lab handle adds to a full
// RunReduction on the figure instance, against the same reduction run
// straight through the core machinery on a solve session of its own (both
// warm their solve caches after the first iteration, so the steady state
// isolates the handle's session/context plumbing). The two numbers
// must stay within noise of each other — the Lab is indirection, not
// work.
func BenchmarkLabOverhead(b *testing.B) {
	p := congestlb.FigureParams(2)
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := congestlb.CongestConfig{Seed: 7}

	b.Run("direct", func(b *testing.B) {
		programs := core.GossipProgramsWith(cache.NewSession(cache.New(0)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst, err := fam.Build(in)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.SimulateBuilt(fam, in, inst, programs, core.GossipOpt, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lab", func(b *testing.B) {
		lab, err := congestlb.New()
		if err != nil {
			b.Fatal(err)
		}
		defer lab.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lab.RunReduction(ctx, fam, in, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkObsOverhead prices the observability layer on the same full
// RunReduction as BenchmarkLabOverhead: a plain Lab (the nil-registry
// fast path the gate holds to BenchmarkLabOverhead/lab's trajectory), a
// WithMetrics Lab (every counter/gauge/histogram live), and a metrics Lab
// with a progress observer attached. The off path must price at nothing —
// the handles are nil and every record site is a single pointer test —
// while the on paths bound what a dashboard costs.
func BenchmarkObsOverhead(b *testing.B) {
	p := congestlb.FigureParams(2)
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := congestlb.CongestConfig{Seed: 7}

	run := func(b *testing.B, opts ...congestlb.Option) {
		b.Helper()
		lab, err := congestlb.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer lab.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := lab.RunReduction(ctx, fam, in, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("metrics", func(b *testing.B) { run(b, congestlb.WithMetrics(true)) })
	b.Run("observed", func(b *testing.B) {
		run(b, congestlb.WithMetrics(true),
			congestlb.WithObserver(congestlb.ObserverFunc(func(congestlb.ProgressEvent) {})))
	})
}
