package experiments

import (
	"fmt"
	"math/rand"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
)

// The scaling experiment runs the full Theorem 5 reduction at increasing
// instance sizes and reports how the accounting quantities move: k grows
// linearly with n while the cut stays polylogarithmic — the shape that
// turns the communication bound into a near-linear round bound.

func init() {
	register(Experiment{
		ID:       "scaling",
		Title:    "Reduction accounting across instance sizes",
		PaperRef: "Theorems 1 and 5 (the shape of the bound)",
		Run:      runScaling,
	})
}

// ScalingPoints returns the sweep's parameterisations in sweep order —
// the axis the per-point benchmarks iterate.
func ScalingPoints() []lbgraph.Params {
	return []lbgraph.Params{
		{T: 2, Alpha: 1, Ell: 3}, // n=48,  k=4
		{T: 3, Alpha: 1, Ell: 4}, // n=90,  k=5
		{T: 4, Alpha: 1, Ell: 5}, // n=192, k=6
	}
}

// scalingInputs draws point i's inputs off the sweep RNG. The stream is
// shared across the sweep, so drawing point i requires having drawn
// 0..i-1 first.
func scalingInputs(p lbgraph.Params, rng *rand.Rand) (bitvec.Inputs, error) {
	in, _, err := bitvec.RandomUniquelyIntersecting(p.K(), p.T, bitvec.GenOptions{Density: 0.3}, rng)
	return in, err
}

// scalingConfig is the engine configuration of every sweep point.
var scalingConfig = congest.Config{Seed: 11}

// RunScalingPoint runs sweep point i alone — build plus full Theorem 5
// simulation with the exact inputs and seed the experiment uses — by
// replaying the sweep RNG up to the point. This is the unit the per-point
// scaling benchmarks measure.
func RunScalingPoint(w *Ctx, i int) (core.SimulationReport, error) {
	points := ScalingPoints()
	if i < 0 || i >= len(points) {
		return core.SimulationReport{}, fmt.Errorf("experiments: scaling point %d of %d", i, len(points))
	}
	rng := rand.New(rand.NewSource(73))
	var in bitvec.Inputs
	for j := 0; j <= i; j++ {
		var err error
		if in, err = scalingInputs(points[j], rng); err != nil {
			return core.SimulationReport{}, err
		}
	}
	l, err := lbgraph.NewLinear(points[i])
	if err != nil {
		return core.SimulationReport{}, err
	}
	return simulateScalingPoint(w, l, in)
}

// simulateScalingPoint builds one sweep point's instance and runs the
// Theorem 5 simulation of CollectSolve on it. CollectSolve keeps the sweep
// fast: its traffic rides the BFS tree instead of flooding every edge.
func simulateScalingPoint(w *Ctx, l *lbgraph.Linear, in bitvec.Inputs) (core.SimulationReport, error) {
	inst, err := w.Build(l, in)
	if err != nil {
		return core.SimulationReport{}, err
	}
	return core.SimulateBuiltCtx(w.Context(), l, in, inst, core.CollectProgramsWith(w.Solve), core.WitnessOpt, scalingConfig)
}

func runScaling(w *Ctx) error {
	var c check
	rng := rand.New(rand.NewSource(73))
	tab := newTable("params", "n", "k", "∣cut∣", "rounds T", "blackboard bits", "bound 2T·∣cut∣·B", "utilisation")
	params := ScalingPoints()
	// Inputs are drawn sequentially (the RNG stream must match the
	// sequential run); each point then builds and simulates in its own
	// job.
	reports := make([]core.SimulationReport, len(params))
	for i, p := range params {
		l, err := lbgraph.NewLinear(p)
		if err != nil {
			return err
		}
		in, err := scalingInputs(p, rng)
		if err != nil {
			return err
		}
		w.Go(func() (err error) {
			reports[i], err = simulateScalingPoint(w, l, in)
			return err
		})
	}
	if err := w.Gather(); err != nil {
		return err
	}
	for i, p := range params {
		report := reports[i]
		c.assert(report.AccountingHolds(), "%v: accounting violated", p)
		c.assert(report.Correct(), "%v: wrong decision", p)
		util := float64(report.BlackboardBits) / float64(report.AccountingBound)
		tab.add(p.String(), report.N, p.K(), report.CutSize, report.Rounds,
			report.BlackboardBits, report.AccountingBound, util)
	}
	tab.write(w)
	fmt.Fprintf(w, "As the construction grows, k tracks n while the cut stays polylogarithmic in k — the "+
		"2T·|cut|·B budget therefore forces T to grow nearly linearly in n once the Ω(k/(t log t)) "+
		"communication bound must fit through the cut. The utilisation column shows the actual algorithm "+
		"using only a fraction of the budget: the bound is conservative in the right direction.\n")
	return c.err()
}
