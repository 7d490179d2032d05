package experiments

import (
	"fmt"
	"math/rand"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/congestalg"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis"
	"congestlb/internal/obs"
)

// Limitation-side experiments: the Section 1 limitation argument, the
// Remark 1 unweighted transform, and the upper-bound side — what real
// CONGEST algorithms achieve on the hard instances.

func init() {
	register(Experiment{
		ID:       "twoparty",
		Title:    "The limitation: t players get a 1/t-approximation with t·O(log n) bits",
		PaperRef: "Section 1, 'Limitations of the two-party framework'",
		Run:      runTwoParty,
	})
	register(Experiment{
		ID:       "remark1",
		Title:    "Unweighted instances via blow-up: gap preserved, n grows by Θ(log k)",
		PaperRef: "Remark 1",
		Run:      runRemark1,
	})
	register(Experiment{
		ID:       "upperbounds",
		Title:    "CONGEST algorithms on the hard instances: rounds vs quality",
		PaperRef: "Section 1 upper-bound context ([5,18] and the O(n²) universal algorithm)",
		Run:      runUpperBounds,
	})
}

func runTwoParty(w *Ctx) error {
	var c check
	tab := newTable("t", "n", "protocol bits", "best local / global OPT", "floor 1/t")
	rng := rand.New(rand.NewSource(31))
	params := []lbgraph.Params{
		{T: 2, Alpha: 1, Ell: 3},
		{T: 3, Alpha: 1, Ell: 4},
		lbgraph.FigureParams(4),
	}
	// One job per player count: inputs are drawn sequentially, the build
	// and the t+1 exact solves of the protocol run on the pool.
	type splitResult struct {
		report core.SplitBestReport
		n      int
	}
	results := make([]splitResult, len(params))
	for i, p := range params {
		l, err := lbgraph.NewLinear(p)
		if err != nil {
			return err
		}
		in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, rng)
		if err != nil {
			return err
		}
		w.Go(func() error {
			inst, err := w.Build(l, in)
			if err != nil {
				return err
			}
			report, err := core.SplitBestWith(w.Solve, inst)
			if err != nil {
				return err
			}
			results[i] = splitResult{report: report, n: inst.Graph.N()}
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	for i, p := range params {
		report := results[i].report
		floor := 1 / float64(p.T)
		c.assert(report.Ratio() >= floor, "t=%d: ratio %f below 1/t", p.T, report.Ratio())
		c.assert(report.Bits == int64(p.T)*64, "t=%d: cost %d bits", p.T, report.Bits)
		tab.add(p.T, results[i].n, report.Bits,
			fmt.Sprintf("%d/%d = %.3f", report.Best, report.Opt, report.Ratio()), floor)
	}
	tab.write(w)
	fmt.Fprintf(w, "Each player solves its own part locally and announces one value: a 1/t-approximation "+
		"for O(t·log n) bits. At t=2 this is the 1/2 barrier that blocks two-party reductions below "+
		"(1/2)-approximation; using t players relaxes the barrier to 1/t, which is why the multi-party "+
		"framework can reach (1/2+ε) and beyond.\n")
	return c.err()
}

func runRemark1(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(2)
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(37))
	tab := newTable("case", "weighted n", "unweighted n′", "weighted OPT", "unweighted OPT", "equal")
	cases := []struct {
		name      string
		intersect bool
	}{
		{name: "uniquely intersecting", intersect: true},
		{name: "pairwise disjoint", intersect: false},
	}
	type blowupResult struct {
		weightedN, unweightedN     int
		weightedOpt, unweightedOpt int64
	}
	results := make([]blowupResult, len(cases))
	for ci, tc := range cases {
		var in bitvec.Inputs
		if tc.intersect {
			in, _, err = bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, rng)
		} else {
			in, err = bitvec.RandomPairwiseDisjoint(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, rng)
		}
		if err != nil {
			return err
		}
		w.Go(func() error {
			inst, err := w.Build(l, in)
			if err != nil {
				return err
			}
			res, err := lbgraph.Blowup(inst.Graph, inst.Partition)
			if err != nil {
				return err
			}
			weighted, err := w.Solve.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
			if err != nil {
				return err
			}
			unweighted, err := w.Solve.Exact(res.Graph, mis.Options{CliqueCover: lbgraph.BlowupCover(inst.CliqueCover, res)})
			if err != nil {
				return err
			}
			results[ci] = blowupResult{
				weightedN:     inst.Graph.N(),
				unweightedN:   res.Graph.N(),
				weightedOpt:   weighted.Weight,
				unweightedOpt: unweighted.Weight,
			}
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	for ci, tc := range cases {
		r := results[ci]
		equal := r.weightedOpt == r.unweightedOpt
		c.assert(equal, "%s: OPT changed %d → %d", tc.name, r.weightedOpt, r.unweightedOpt)
		tab.add(tc.name, r.weightedN, r.unweightedN, r.weightedOpt, r.unweightedOpt, equal)
	}
	tab.write(w)
	fmt.Fprintf(w, "Replacing each weight-ℓ node by an ℓ-node independent set (bicliques for edges) preserves "+
		"the optimum exactly. The node count grows from Θ(k) to Θ(k·ℓ) = Θ(k log k), costing the lower bound "+
		"one log factor, exactly as Remark 1 states.\n\n")

	// End-to-end: the unweighted family runs through the full Theorem 5
	// reduction — a CONGEST algorithm on the blown-up instance decides the
	// same promise function within the same accounting bound.
	up := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	ufam, err := lbgraph.NewUnweightedLinear(up)
	if err != nil {
		return err
	}
	uin, _, err := bitvec.RandomUniquelyIntersecting(up.K(), up.T, bitvec.GenOptions{Density: 0.3}, rng)
	if err != nil {
		return err
	}
	var report core.SimulationReport
	w.Go(func() error {
		uinst, err := w.Build(ufam, uin)
		if err != nil {
			return err
		}
		report, err = core.Simulate(w.Context(), ufam, uin, uinst, core.CollectProgramsWith(w.Solve), core.WitnessOpt, congest.Config{Seed: 13})
		return err
	})
	if err := w.Gather(); err != nil {
		return err
	}
	c.assert(report.AccountingHolds(), "unweighted simulation: accounting violated")
	c.assert(report.Correct(), "unweighted simulation: wrong decision")
	fmt.Fprintf(w, "Live reduction on the unweighted family (%s): n=%d, T=%d rounds, blackboard %d ≤ "+
		"2T·|cut|·B = %d bits, decision correct: %v.\n",
		report.Family, report.N, report.Rounds, report.BlackboardBits,
		report.AccountingBound, report.Correct())
	return c.err()
}

func runUpperBounds(w *Ctx) error {
	var c check
	p := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(41))
	in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.4}, rng)
	if err != nil {
		return err
	}

	type algo struct {
		name     string
		programs func(n int) []congest.NodeProgram
		exact    bool
		setsOut  bool // outputs are []NodeID rather than membership bools
	}
	algos := []algo{
		{name: "Luby MIS (randomised, maximal)", programs: congestalg.NewLubyPrograms},
		{name: "RankGreedy (deterministic, weight-greedy)", programs: congestalg.NewRankGreedyPrograms},
		{name: "GossipExact (flooding, exact)", programs: func(n int) []congest.NodeProgram {
			return congestalg.NewGossipExactProgramsWith(w.Solve, n)
		}, exact: true, setsOut: true},
		{name: "CollectSolve (BFS-tree convergecast, exact)", programs: func(n int) []congest.NodeProgram {
			return congestalg.NewCollectSolveProgramsWith(w.Solve, n)
		}, exact: true},
	}

	// One job for the reference optimum, one that runs the four
	// algorithms on one built graph.
	var opt int64
	w.Go(func() error {
		inst, err := w.Build(l, in)
		if err != nil {
			return err
		}
		optSol, err := w.Solve.Exact(inst.Graph, mis.Options{CliqueCover: inst.CliqueCover})
		if err != nil {
			return err
		}
		opt = optSol.Weight
		return nil
	})
	type algoResult struct {
		rounds    int
		totalBits int64
		achieved  int64
	}
	results := make([]algoResult, len(algos))
	w.Go(func() error {
		inst, err := w.Build(l, in)
		if err != nil {
			return err
		}
		// Stamped as core.Simulate stamps it, so an observed run's
		// engine_runs counts these four runs too.
		ctx := w.Context()
		metrics := congest.NewEngineMetrics(obs.FromContext(ctx))
		for ai, a := range algos {
			net, err := congest.NewNetwork(inst.Graph, a.programs(inst.Graph.N()), congest.Config{Seed: 3, Metrics: metrics})
			if err != nil {
				return err
			}
			result, err := net.RunCtx(ctx)
			if err != nil {
				return err
			}
			var set []int
			if a.setsOut {
				set, err = congestalg.ExactSetFromOutputs(result)
				if err != nil {
					return err
				}
			} else {
				if err := congestalg.OutputError(result); err != nil {
					return err
				}
				set = congestalg.MembershipSet(result)
			}
			achieved, err := mis.Verify(inst.Graph, set)
			if err != nil {
				return err
			}
			results[ai] = algoResult{rounds: result.Stats.Rounds, totalBits: result.Stats.TotalBits, achieved: achieved}
		}
		return nil
	})
	if err := w.Gather(); err != nil {
		return err
	}

	tab := newTable("algorithm", "rounds", "total bits", "achieved weight", "quality vs OPT", "exact?")
	for ai, a := range algos {
		r := results[ai]
		if a.exact {
			c.assert(r.achieved == opt, "%s achieved %d, optimum %d", a.name, r.achieved, opt)
		} else {
			c.assert(r.achieved <= opt, "heuristic beat the optimum?")
		}
		tab.add(a.name, r.rounds, r.totalBits, r.achieved,
			fmt.Sprintf("%.3f", float64(r.achieved)/float64(opt)), a.exact)
	}
	tab.write(w)
	fmt.Fprintf(w, "The fast algorithms terminate in few rounds but only guarantee Δ-flavoured quality; "+
		"exactness needs the heavyweight universal algorithm — the regime the paper's lower bounds target: "+
		"any algorithm beating (1/2+ε) must pay nearly linear rounds, and (3/4+ε) nearly quadratic.\n")
	return c.err()
}
