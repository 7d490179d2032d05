package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"congestlb"
	"congestlb/internal/congest"
	"congestlb/internal/congestalg"
	"congestlb/internal/core"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// probe runs the per-layer probes of a traced run. Each probe calls one
// layer's exported entry points on seeded inputs, under a root span
// named probe.<layer>, and checks what comes back. The probes are the
// same whichever workload the run traced, so per-layer figures compare
// across workloads and commits.
func probe(r *run, tr *tracer) error {
	for _, p := range []struct {
		name string
		fn   func(*run, *active) error
	}{
		{"probe.lab", probeLab},
		{"probe.lbgraph", probeBuilds},
		{"probe.engine", probeEngines},
		{"probe.batch", probeBatch},
		{"probe.mis", probeSolver},
		{"probe.cache", probeCache},
		{"probe.suite", probeSuite},
	} {
		root := tr.root(p.name)
		err := p.fn(r, root)
		root.end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return probeServe(r, tr)
}

// probeLab times opening and closing an empty Lab.
func probeLab(r *run, root *active) error {
	for i := 0; i < r.sizes.labOpens; i++ {
		s := root.child("lab.open_close")
		lab, err := congestlb.New(congestlb.WithJobs(r.nproc))
		if err != nil {
			return err
		}
		err = lab.Close()
		s.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeBuilds times Lab.BuildInstance on fresh inputs of both reduce
// families, each on a fresh Lab: a whole construction, as the suite pays
// for it on every run (a long-lived Lab caches the input-free part).
func probeBuilds(r *run, root *active) error {
	fams, err := reduceFamilies()
	if err != nil {
		return err
	}
	for _, f := range fams {
		for j := 0; j < r.sizes.builds; j++ {
			in, err := reduceInputs(f, opSeed(r.seed, "probe.lbgraph."+f.name, j), j%2 == 1)
			if err != nil {
				return err
			}
			lab, err := congestlb.New()
			if err != nil {
				return err
			}
			s := root.child("lbgraph.BuildInstance." + f.name)
			_, err = lab.BuildInstance(f.fam, in)
			s.end()
			lab.Close()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeEngines runs the reduce instances three ways: the sequential and
// the pipelined CONGEST engines with GossipExact over a warm solve
// session and no hook, and Lab.Simulate — the same programs and config
// plus the Theorem 5 hook. The difference is the hook's cost.
func probeEngines(r *run, root *active) error {
	fams, err := reduceFamilies()
	if err != nil {
		return err
	}
	lab, err := congestlb.New()
	if err != nil {
		return err
	}
	defer lab.Close()
	ctx := context.Background()
	sess := lab.NewSolveSession().WithContext(ctx)
	for j := 0; j < r.sizes.instances; j++ {
		f := fams[j%2]
		disjoint := (j/2)%2 == 1
		seed := opSeed(r.seed, "probe.engine", j)
		in, err := reduceInputs(f, seed, disjoint)
		if err != nil {
			return err
		}
		inst, err := lab.BuildInstance(f.fam, in)
		if err != nil {
			return err
		}
		engine := func(parallel bool) (congest.Result, error) {
			programs := congestalg.NewGossipExactProgramsWith(sess, inst.Graph.N())
			net, err := congest.NewNetwork(inst.Graph, programs, congest.Config{Seed: seed, Parallel: parallel})
			if err != nil {
				return congest.Result{}, err
			}
			return net.RunCtx(ctx)
		}
		cfg := congestlb.CongestConfig{Seed: seed, Parallel: true}
		// Warm the session: every later run's local solves are hits.
		if _, err := engine(true); err != nil {
			return err
		}
		for rep := 0; rep < r.sizes.engineReps; rep++ {
			s := root.child("congest.RunCtx.seq")
			seq, err := engine(false)
			if rep == 0 {
				s.set("rounds", float64(seq.Stats.Rounds))
				s.set("messages", float64(seq.Stats.Messages))
			}
			s.end()
			if err != nil {
				return err
			}
			s = root.child("congest.RunCtx.pipelined")
			pipe, err := engine(true)
			s.end()
			if err != nil {
				return err
			}
			s = root.child("core.Simulate")
			report, err := lab.Simulate(ctx, f.fam, in, core.GossipProgramsWith(sess), core.GossipOpt, cfg)
			if rep == 0 {
				s.set("blackboard_bits", float64(report.BlackboardBits))
				s.set("blackboard_writes", float64(report.BlackboardWrites))
			}
			s.end()
			if err != nil {
				return err
			}
			if !report.Correct() || !report.AccountingHolds() || report.Truth != disjoint {
				return fmt.Errorf("instance %d (%s): correct=%v accounting_holds=%v truth=%v",
					j, f.name, report.Correct(), report.AccountingHolds(), report.Truth)
			}
			if seq.Stats != pipe.Stats || seq.Stats.Rounds != report.Rounds {
				return fmt.Errorf("instance %d (%s): engines disagree: seq %+v, pipelined %+v, simulate %d rounds",
					j, f.name, seq.Stats, pipe.Stats, report.Rounds)
			}
		}
	}
	return nil
}

// batchItems is the paper's figure instance run 8 times with RankGreedy
// under seeds 0..7 — the sweep shape the lockstep batch engine targets.
const batchItems = 8

// probeBatch times congest.RunBatch against 8 solo runs of the same items.
func probeBatch(r *run, root *active) error {
	p := congestlb.FigureParams(2)
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		return err
	}
	in, _, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rand.New(rand.NewSource(opSeed(r.seed, "probe.batch", 0))))
	if err != nil {
		return err
	}
	lab, err := congestlb.New()
	if err != nil {
		return err
	}
	defer lab.Close()
	inst, err := lab.BuildInstance(fam, in)
	if err != nil {
		return err
	}
	g, n := inst.Graph, inst.Graph.N()
	ctx := context.Background()
	for rep := 0; rep < r.sizes.batchReps; rep++ {
		items := make([]congest.BatchItem, batchItems)
		for j := range items {
			items[j] = congest.BatchItem{Graph: g, Programs: congestalg.NewRankGreedyPrograms(n), Config: congest.Config{Seed: int64(j)}}
		}
		s := root.child("congest.RunBatch")
		batch, errs, _ := congest.RunBatch(ctx, items)
		s.end()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		s = root.child("congest.loop8")
		for j := 0; j < batchItems; j++ {
			c := s.child("congest.RunCtx.loop")
			net, err := congest.NewNetwork(g, congestalg.NewRankGreedyPrograms(n), congest.Config{Seed: int64(j)})
			if err != nil {
				return err
			}
			solo, err := net.RunCtx(ctx)
			c.end()
			if err != nil {
				return err
			}
			if solo.Stats != batch[j].Stats {
				return fmt.Errorf("batch item %d: %+v, solo run %+v", j, batch[j].Stats, solo.Stats)
			}
		}
		s.end()
	}
	return nil
}

// probeSolver replays the first solve-hard graphs of the run's seed on
// fresh Labs at 1 and at nproc branch-and-bound workers.
func probeSolver(r *run, root *active) error {
	var cases []graphCase
	for i := 0; i < r.sizes.misGraphs; i++ {
		gc, err := hardGraph(r.seed, i)
		if err != nil {
			return err
		}
		cases = append(cases, gc)
	}
	weights := make([]int64, len(cases))
	solveAll := func(name string, workers int) error {
		lab, err := congestlb.New(congestlb.WithSolverWorkers(workers))
		if err != nil {
			return err
		}
		defer lab.Close()
		for i, gc := range cases {
			s := root.child("mis.ExactMaxISGraph." + name)
			sol, err := lab.ExactMaxISGraph(context.Background(), gc.graph)
			s.set("steps", float64(sol.Steps))
			s.set("workers", float64(workers))
			s.end()
			if err != nil {
				return err
			}
			if err := checkOptimalSet(gc.graph, sol.Optimal, sol.Set, sol.Weight); err != nil {
				return fmt.Errorf("graph %d at %d workers: %w", i, workers, err)
			}
			if weights[i] == 0 {
				weights[i] = sol.Weight
			} else if weights[i] != sol.Weight {
				return fmt.Errorf("graph %d: %d workers found %d, 1 worker %d", i, workers, sol.Weight, weights[i])
			}
		}
		return nil
	}
	if err := solveAll("w1", 1); err != nil {
		return err
	}
	return solveAll("wN", r.nproc)
}

// probeCache times cache.KeyOf over the solve-mix universe, then replays
// its first graphs through SolveSession.Exact on two Labs sharing one
// tier: a fresh solve on the first, a private hit on the first, and a
// shared-tier hit on the second.
func probeCache(r *run, root *active) error {
	universe, err := mixUniverse(r.seed, r.sizes.mixUniverse)
	if err != nil {
		return err
	}
	for _, gc := range universe {
		s := root.child("cache.KeyOf")
		_, ok := cache.KeyOf(gc.graph, mis.Options{})
		s.end()
		if !ok {
			return fmt.Errorf("KeyOf refused a generated graph")
		}
	}
	tier := congestlb.NewSharedSolveTier(0)
	ctx := context.Background()
	var sessions [2]*congestlb.SolveSession
	for k := range sessions {
		lab, err := congestlb.New(congestlb.WithSharedSolveTier(tier))
		if err != nil {
			return err
		}
		defer lab.Close()
		sessions[k] = lab.NewSolveSession().WithContext(ctx)
	}
	n := r.sizes.cacheGraphs
	if n > len(universe) {
		n = len(universe)
	}
	weights := make([]int64, n)
	for _, pass := range []struct {
		name string
		sess *congestlb.SolveSession
		want func(before, after congestlb.SolveCacheStats) bool
	}{
		{"cache.Exact.fresh", sessions[0], func(b, a congestlb.SolveCacheStats) bool { return a.Misses == b.Misses+1 }},
		{"cache.Exact.private", sessions[0], func(b, a congestlb.SolveCacheStats) bool {
			return a.Hits == b.Hits+1 && a.SharedHits == b.SharedHits
		}},
		{"cache.Exact.shared", sessions[1], func(b, a congestlb.SolveCacheStats) bool { return a.SharedHits == b.SharedHits+1 }},
	} {
		for i := 0; i < n; i++ {
			g := universe[i].graph
			before := pass.sess.Stats()
			s := root.child(pass.name)
			sol, err := pass.sess.Exact(g, congestlb.SolverOptions{})
			s.end()
			if err != nil {
				return err
			}
			if after := pass.sess.Stats(); !pass.want(before, after) {
				return fmt.Errorf("%s graph %d: cache stats went from %+v to %+v", pass.name, i, before, after)
			}
			if err := checkOptimalSet(g, sol.Optimal, sol.Set, sol.Weight); err != nil {
				return fmt.Errorf("%s graph %d: %w", pass.name, i, err)
			}
			if weights[i] == 0 {
				weights[i] = sol.Weight
			} else if weights[i] != sol.Weight {
				return fmt.Errorf("%s graph %d: weight %d, fresh solve %d", pass.name, i, sol.Weight, weights[i])
			}
		}
	}
	return nil
}

// probeSuite runs the whole suite on fresh Labs for the runner, suite
// cache and lbgraph figures of the envelope.
func probeSuite(r *run, root *active) error {
	b := &suiteBench{r: r}
	for i := 0; i < r.sizes.suiteRuns; i++ {
		call, check, err := b.op(i)
		if err != nil {
			return err
		}
		s := root.child("suite.op")
		err = call(s)
		s.end()
		if err != nil {
			return err
		}
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

// probeServe sets up solve-mix traffic in full — universe, two tenants,
// warm-up — and traces a fixed number of its requests: one trace per
// request, rooted at probe.serve.
func probeServe(r *run, tr *tracer) error {
	b, err := openMix(r)
	if err != nil {
		return err
	}
	clients := min(2, r.nproc)
	warm := drive(b, clients, 0, r.sizes.mixWarmup, time.Time{}, nil, "", false)
	res := drive(b, clients, r.sizes.mixWarmup, r.sizes.serveOps, time.Time{}, tr, "probe.serve", true)
	cerr := b.close()
	if n := warm.failed + res.failed; n > 0 {
		return fmt.Errorf("probe.serve: %d failed requests: %v", n, errors.Join(append(warm.errs, res.errs...)...))
	}
	return cerr
}
