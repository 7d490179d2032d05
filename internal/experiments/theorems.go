package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"congestlb/internal/bitvec"
	"congestlb/internal/cc"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
)

// The theorem experiments regenerate the paper's headline results: the
// round lower-bound tables of Theorems 1 and 2, the communication
// complexity sandwich of Theorem 3, the live accounting of Theorem 5, and
// the cut-size measurement that feeds Corollary 1.

func init() {
	register(Experiment{
		ID:       "theorem1",
		Title:    "Linear lower bound: (1/2+ε)-approx MaxIS needs Ω(n/log³n) rounds",
		PaperRef: "Theorem 1 (Section 4)",
		Run:      runTheorem1,
	})
	register(Experiment{
		ID:       "theorem2",
		Title:    "Quadratic lower bound: (3/4+ε)-approx MaxIS needs Ω(n²/log³n) rounds",
		PaperRef: "Theorem 2 (Section 5)",
		Run:      runTheorem2,
	})
	register(Experiment{
		ID:       "theorem3",
		Title:    "Promise pairwise disjointness: Ω(k/(t log t)) vs O(k) protocols",
		PaperRef: "Theorem 3 (Chakrabarti-Khot-Sun), Definition 2",
		Run:      runTheorem3,
	})
	register(Experiment{
		ID:       "theorem5",
		Title:    "Simulation accounting: blackboard bits ≤ 2T·|cut|·B on live runs",
		PaperRef: "Theorem 5 (Section 3)",
		Run:      runTheorem5,
	})
	register(Experiment{
		ID:       "cutsize",
		Title:    "Cut size: measured |cut(G_x̄)| vs the paper's Θ(t²log²k) claim",
		PaperRef: "Proofs of Theorems 1-2 (cut accounting)",
		Run:      runCutSize,
	})
}

func runTheorem1(w *Ctx) error {
	var c check
	// The asymptotic table: the paper's bound across network sizes, next
	// to the bound Bachrach et al. had at the weaker approximation factor.
	asym := newTable("n", "Ω(n/log³n) (Thm 1, ½+ε)", "Ω(n/log⁶n) (prior, 5/6+ε)", "improvement")
	for _, exp := range []int{10, 14, 18, 22, 26} {
		n := float64(int64(1) << exp)
		now, prior := core.Theorem1Bound(n), core.PriorLinearBound(n)
		asym.add(fmt.Sprintf("2^%d", exp), now, prior, fmt.Sprintf("%.0fx", now/prior))
		c.assert(now > prior, "new bound should dominate prior at n=2^%d", exp)
	}
	asym.write(w)

	// Corollary 1 instantiated on real built instances: measure the cut,
	// plug in CC(k,t) = k/(t log t), divide by cut·log n. One instance job
	// per parameterisation.
	params := []lbgraph.Params{
		{T: 2, Alpha: 1, Ell: 3},
		{T: 3, Alpha: 1, Ell: 4},
		{T: 4, Alpha: 1, Ell: 5},
		{T: 2, Alpha: 2, Ell: 4},
	}
	type measured struct{ cut, n int }
	rows := make([]measured, len(params))
	for i, p := range params {
		l, err := lbgraph.NewLinear(p)
		if err != nil {
			return err
		}
		w.Go(func() error {
			built, err := w.BuildFixed(l)
			if err != nil {
				return err
			}
			rows[i] = measured{cut: built.Partition.CutSize(built.Graph), n: built.Graph.N()}
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	inst := newTable("params", "n", "k", "∣cut∣", "CC bound (bits)", "round LB k/(t·logt·∣cut∣·log n)")
	for i, p := range params {
		cut, n := rows[i].cut, rows[i].n
		k := p.K()
		lb := core.RoundLowerBound(k, p.T, cut, n)
		inst.add(p.String(), n, k, cut, cc.LowerBoundBits(k, p.T), lb)
		c.assert(cut > 0, "cut must be positive")
	}
	inst.write(w)
	fmt.Fprintf(w, "At buildable sizes the k/(cut·polylog) ratio is tiny — the bound is asymptotic. "+
		"The shape is what matters: k = Θ(n) grows linearly while the cut stays polylogarithmic in k, "+
		"so the derived round bound grows nearly linearly in n, as Theorem 1 states.\n")
	return c.err()
}

func runTheorem2(w *Ctx) error {
	var c check
	asym := newTable("n", "Ω(n²/log³n) (Thm 2, 3/4+ε)", "Ω(n²/log⁷n) (prior, 7/8+ε)", "O(n²) universal upper bound")
	for _, exp := range []int{10, 14, 18, 22} {
		n := float64(int64(1) << exp)
		now, prior := core.Theorem2Bound(n), core.PriorQuadraticBound(n)
		asym.add(fmt.Sprintf("2^%d", exp), now, prior, n*n)
		c.assert(now > prior, "new bound should dominate prior at n=2^%d", exp)
		c.assert(now < n*n, "lower bound cannot exceed the universal upper bound")
	}
	asym.write(w)

	params := []lbgraph.Params{
		lbgraph.FigureParams(2),
		lbgraph.FigureParams(3),
		{T: 2, Alpha: 1, Ell: 4},
	}
	type measured struct{ cut, n, k2 int }
	rows := make([]measured, len(params))
	for i, p := range params {
		f, err := lbgraph.NewQuadratic(p)
		if err != nil {
			return err
		}
		w.Go(func() error {
			built, err := w.BuildFixed(f)
			if err != nil {
				return err
			}
			rows[i] = measured{
				cut: built.Partition.CutSize(built.Graph),
				n:   built.Graph.N(),
				k2:  f.InputBits(),
			}
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	inst := newTable("params", "n", "input bits k²", "∣cut∣", "round LB k²/(t·logt·∣cut∣·log n)")
	for i, p := range params {
		m := rows[i]
		inst.add(p.String(), m.n, m.k2, m.cut, core.RoundLowerBound(m.k2, p.T, m.cut, m.n))
	}
	inst.write(w)
	fmt.Fprintf(w, "The quadratic family feeds k² = Θ(n²) input bits through the same polylog cut, "+
		"lifting the round bound from near-linear to near-quadratic — within log³n of the O(n²) ceiling.\n")
	return c.err()
}

func runTheorem3(w *Ctx) error {
	var c check
	tab := newTable("k", "t", "Ω(k/(t log t)) bits", "write-all cost t·k", "probe cost k+1", "protocols correct")
	rng := rand.New(rand.NewSource(23))
	configs := []struct{ k, t int }{
		{k: 64, t: 2}, {k: 256, t: 3}, {k: 1024, t: 4}, {k: 4096, t: 8},
	}
	// Instance generation consumes the shared RNG and stays sequential;
	// the protocol audits — the per-configuration work — run as jobs.
	type audits struct{ writeAll, probe cc.RunReport }
	results := make([]audits, len(configs))
	for i, cfg := range configs {
		instances := make([]bitvec.Inputs, 0, 30)
		truths := make([]bool, 0, 30)
		for j := 0; j < 30; j++ {
			in, truth, err := bitvec.RandomPromiseInstance(cfg.k, cfg.t, bitvec.GenOptions{Density: 0.4}, 0.5, rng)
			if err != nil {
				return err
			}
			instances = append(instances, in)
			truths = append(truths, truth)
		}
		w.Go(func() error {
			writeAll, err := cc.Audit(cc.WriteAll{}, instances, truths)
			if err != nil {
				return err
			}
			probe, err := cc.Audit(cc.FirstPlayerProbe{}, instances, truths)
			if err != nil {
				return err
			}
			results[i] = audits{writeAll: writeAll, probe: probe}
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	for i, cfg := range configs {
		writeAll, probe := results[i].writeAll, results[i].probe
		c.assert(writeAll.Wrong == 0 && probe.Wrong == 0, "protocol errors at k=%d t=%d", cfg.k, cfg.t)
		lower := cc.LowerBoundBits(cfg.k, cfg.t)
		c.assert(float64(probe.MaxBits) >= lower, "probe cost below the information bound")
		tab.add(cfg.k, cfg.t, lower, writeAll.MaxBits, probe.MaxBits,
			fmt.Sprintf("%d+%d/60", 30-writeAll.Wrong, 30-probe.Wrong))
	}
	tab.write(w)
	fmt.Fprintf(w, "The sandwich: the best upper bound (k+1 bits) sits a t·log t factor above the CKS lower bound, "+
		"confirming the promise problem costs Θ̃(k) bits — the fuel of every reduction in the paper.\n\n")

	// Empirical converse: protocols communicating o(k) bits must err. The
	// truncated probe announces only a prefix of x^1; its error on
	// uniformly-placed intersections grows as the prefix shrinks, exactly
	// as the Ω(k/(t log t)) bound (for error ≤ 1/3) demands. Inputs are
	// drawn sequentially per prefix; each prefix's 200 probe trials are
	// one job.
	const k, trials = 512, 200
	rng2 := rand.New(rand.NewSource(47))
	prefixes := []int{k, 3 * k / 4, k / 2, k / 4, k / 16}
	wrongs := make([]int, len(prefixes))
	for i, prefix := range prefixes {
		inputs := make([]bitvec.Inputs, trials)
		for tr := 0; tr < trials; tr++ {
			in, _, err := bitvec.RandomUniquelyIntersecting(k, 2, bitvec.GenOptions{Density: 0.2}, rng2)
			if err != nil {
				return err
			}
			inputs[tr] = in
		}
		w.Go(func() error {
			wrong := 0
			for _, in := range inputs {
				var bb cc.Blackboard
				got, err := cc.TruncatedProbe{PrefixBits: prefix}.Run(in, &bb)
				if err != nil {
					return err
				}
				if got {
					wrong++
				}
			}
			wrongs[i] = wrong
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	trunc := newTable("prefix bits announced", "cost (bits)", "error rate on intersecting inputs", "≤1/3 error feasible?")
	for i, prefix := range prefixes {
		rate := float64(wrongs[i]) / trials
		trunc.add(prefix, prefix+1, rate, rate <= 1.0/3)
		if prefix == k {
			c.assert(rate == 0, "full prefix erred at rate %f", rate)
		}
		if prefix == k/16 {
			c.assert(rate > 1.0/3, "tiny prefix error rate %f should exceed 1/3", rate)
		}
	}
	trunc.write(w)
	fmt.Fprintf(w, "Cutting the announced bits cuts correctness: at k/4 bits the error is ≈3/4 — no "+
		"amount of cleverness recovers constant success below Θ(k) communication, which is what makes "+
		"the reduction's Ω(k/(t log t)) fuel non-negotiable.\n")
	return c.err()
}

func runTheorem5(w *Ctx) error {
	var c check
	p := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(29))
	tab := newTable("algorithm", "case", "rounds T", "∣cut∣", "B", "blackboard bits", "bound 2T·∣cut∣·B", "holds", "decision correct")
	algos := []struct {
		name    string
		factory core.ProgramFactory
		extract core.OptExtractor
	}{
		{name: "GossipExact", factory: core.GossipProgramsWith(w.Solve), extract: core.GossipOpt},
		{name: "CollectSolve", factory: core.CollectProgramsWith(w.Solve), extract: core.WitnessOpt},
	}
	cases := []struct {
		name      string
		intersect bool
	}{
		{name: "uniquely intersecting", intersect: true},
		{name: "pairwise disjoint", intersect: false},
	}
	// Input generation stays on the RNG stream; each (case, algorithm)
	// pair then builds its instance and simulates in its own job.
	reports := make([]core.SimulationReport, len(cases)*len(algos))
	for ci, tc := range cases {
		var in bitvec.Inputs
		if tc.intersect {
			in, _, err = bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rng)
		} else {
			in, err = bitvec.RandomPairwiseDisjoint(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rng)
		}
		if err != nil {
			return err
		}
		for ai, a := range algos {
			w.Go(func() error {
				inst, err := w.Build(l, in)
				if err != nil {
					return err
				}
				reports[ci*len(algos)+ai], err = core.SimulateBuiltCtx(w.Context(), l, in, inst, a.factory, a.extract, congest.Config{Seed: 5})
				return err
			})
		}
	}
	if err := w.Gather(); err != nil {
		return err
	}
	for ci, tc := range cases {
		for ai, a := range algos {
			report := reports[ci*len(algos)+ai]
			c.assert(report.AccountingHolds(), "%s/%s: accounting violated", a.name, tc.name)
			c.assert(report.Correct(), "%s/%s: wrong decision", a.name, tc.name)
			tab.add(a.name, tc.name, report.Rounds, report.CutSize, report.Bandwidth,
				report.BlackboardBits, report.AccountingBound, report.AccountingHolds(), report.Correct())
		}
	}
	tab.write(w)
	fmt.Fprintf(w, "Two different real CONGEST algorithms (flooding gossip and BFS-tree collect-and-solve) "+
		"ran on G_x̄ with every cut-crossing message charged to a shared blackboard. The transcript lengths "+
		"respect Theorem 5's 2T·|cut|·B bound — the inequality is algorithm-independent, exactly as the "+
		"simulation argument requires — and both induced protocols decide promise pairwise disjointness "+
		"correctly in both cases.\n")
	return c.err()
}

func runCutSize(w *Ctx) error {
	var c check
	tab := newTable("params", "k", "measured ∣cut∣", "paper claim t²log²k", "counted t(t−1)/2·M·q(q−1)", "measured/claim")
	params := []lbgraph.Params{
		{T: 2, Alpha: 1, Ell: 3},
		{T: 3, Alpha: 1, Ell: 4},
		{T: 2, Alpha: 2, Ell: 4},
		{T: 4, Alpha: 1, Ell: 5},
		{T: 2, Alpha: 2, Ell: 8},
	}
	cuts := make([]int, len(params))
	for i, p := range params {
		l, err := lbgraph.NewLinear(p)
		if err != nil {
			return err
		}
		w.Go(func() error {
			inst, err := w.BuildFixed(l)
			if err != nil {
				return err
			}
			cuts[i] = inst.Partition.CutSize(inst.Graph)
			return nil
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	for i, p := range params {
		measured := cuts[i]
		counted := (p.T * (p.T - 1) / 2) * p.M() * p.Q() * (p.Q() - 1)
		c.assert(measured == counted, "%v: measured %d != counted %d", p, measured, counted)
		logK := math.Log2(float64(p.K()))
		if logK < 1 {
			logK = 1
		}
		claim := float64(p.T*p.T) * logK * logK
		tab.add(p.String(), p.K(), measured, claim, counted, float64(measured)/claim)
	}
	tab.write(w)
	fmt.Fprintf(w, "The construction as written has |cut| = t(t−1)/2 · (ℓ+α) · q(q−1) = Θ(t²·log³k) at the "+
		"paper's parameter schedule (ℓ+α = log k positions, each contributing ≈log²k edges) — one log factor "+
		"above the Θ(t²log²k) stated in the proofs of Theorems 1-2. With the measured cut the derived bounds "+
		"read Ω(n/log⁴n) and Ω(n²/log⁴n); Claims 1-7 and the framework are unaffected. See DESIGN.md.\n")
	return c.err()
}
