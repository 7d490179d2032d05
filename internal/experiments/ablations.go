package experiments

import (
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/code"
	"congestlb/internal/core"
	"congestlb/internal/lbgraph"
)

// The ablation experiment removes one design choice of the construction at
// a time and shows the gap predicate breaking — mechanically confirming
// that the error-correcting code, the inter-copy wiring, and the
// input-dependent weights are each load-bearing in the proofs.

func init() {
	register(Experiment{
		ID:       "ablations",
		Title:    "Design-choice ablations: code distance, wiring, and weights are all load-bearing",
		PaperRef: "Properties 1-3 / Claims 1-5 (what breaks without each ingredient)",
		Run:      runAblations,
	})
}

func runAblations(w *Ctx) error {
	var c check

	// The disjoint input used throughout: one weight-ℓ node per player at
	// different indices.
	buildDisjoint := func(p lbgraph.Params) bitvec.Inputs {
		x1 := bitvec.New(p.K())
		x1.Set(0)
		x2 := bitvec.New(p.K())
		x2.Set(1)
		return bitvec.Inputs{x1, x2}
	}

	// solveOpt is the per-variant instance job body: build the variant's
	// instance and solve for the optimum, into the given slot.
	solveOpt := func(fam core.Family, in bitvec.Inputs, slot *int64) func() error {
		return func() error {
			inst, err := w.Build(fam, in)
			if err != nil {
				return err
			}
			opt, err := w.exactInstanceOpt(inst)
			if err != nil {
				return err
			}
			*slot = opt
			return nil
		}
	}

	tab := newTable("ablation", "params", "disjoint-case OPT", "Claim 5 bound", "gap intact?")

	// Every ablation variant is an independent instance job; the builds
	// and solves overlap on the pool, and the table flushes in the fixed
	// presentation order after Gather.
	pBase := lbgraph.Params{T: 2, Alpha: 1, Ell: 4}
	faithful, err := lbgraph.NewLinear(pBase)
	if err != nil {
		return err
	}
	var optF int64
	w.Go(solveOpt(faithful, buildDisjoint(pBase), &optF))

	// Ablation 1: replace Reed-Solomon with a distance-1 code.
	weak, err := code.NewFirstSymbol(pBase.Q(), pBase.M())
	if err != nil {
		return err
	}
	weakFam, err := lbgraph.NewLinearVariant(pBase, lbgraph.LinearOptions{Code: weak})
	if err != nil {
		return err
	}
	var optW int64
	w.Go(solveOpt(weakFam, buildDisjoint(pBase), &optW))

	// Ablation 2: drop the inter-copy wiring.
	pWire := lbgraph.Params{T: 2, Alpha: 1, Ell: 3}
	noWire, err := lbgraph.NewLinearVariant(pWire, lbgraph.LinearOptions{OmitInterCopyWiring: true})
	if err != nil {
		return err
	}
	var optN int64
	w.Go(solveOpt(noWire, buildDisjoint(pWire), &optN))

	// Ablation 3: uniform weights — the two cases become indistinguishable.
	uniform, err := lbgraph.NewLinearVariant(pWire, lbgraph.LinearOptions{UniformWeights: true})
	if err != nil {
		return err
	}
	inter := bitvec.Inputs{bitvec.New(pWire.K()), bitvec.New(pWire.K())}
	inter[0].Set(2)
	inter[1].Set(2) // uniquely intersecting at index 2
	var optUI, optUD int64
	w.Go(solveOpt(uniform, inter, &optUI))
	w.Go(solveOpt(uniform, buildDisjoint(pWire), &optUD))

	if err := w.Gather(); err != nil {
		return err
	}

	c.assert(optF <= pBase.LinearSmallMax(), "faithful construction broke Claim 5")
	tab.add("(none — faithful)", pBase.String(), optF, pBase.LinearSmallMax(), optF <= pBase.LinearSmallMax())
	c.assert(optW > pBase.LinearSmallMax(),
		"weak code should break the bound (got %d ≤ %d)", optW, pBase.LinearSmallMax())
	tab.add("distance-1 code (Property 2 gone)", pBase.String(), optW, pBase.LinearSmallMax(), optW <= pBase.LinearSmallMax())
	c.assert(optN >= pWire.LinearBeta(),
		"no-wiring disjoint OPT %d should reach Beta %d", optN, pWire.LinearBeta())
	tab.add("no inter-copy wiring", pWire.String(),
		fmt.Sprintf("%d (reaches Beta=%d!)", optN, pWire.LinearBeta()),
		pWire.LinearSmallMax(), optN <= pWire.LinearSmallMax())
	c.assert(optUI == optUD, "uniform weights: cases still differ (%d vs %d)", optUI, optUD)
	tab.add("uniform weights", pWire.String(),
		fmt.Sprintf("intersecting %d = disjoint %d", optUI, optUD), "—", false)

	tab.write(w)
	fmt.Fprintf(w, "Each removal breaks the reduction in the exact way the proofs predict: a weak code "+
		"voids Property 2's matching (the disjoint optimum overshoots Claim 5); removing the wiring lets "+
		"every player keep a full Property-1 set (the disjoint optimum reaches Beta); removing the weights "+
		"decouples the graph from x̄ entirely (the cases collapse).\n\n")

	// Quadratic-family ablations: the input-edge encoding is the coupling.
	qp := lbgraph.FigureParams(2)
	qTab := newTable("quadratic ablation", "intersecting-case OPT", "Claim 6 threshold β", "witness survives?")

	interIn := func() bitvec.Inputs {
		in := make(bitvec.Inputs, qp.T)
		for i := range in {
			m := bitvec.NewMatrix(qp.K())
			m.SetAll()
			in[i] = m.Vector()
		}
		return in // all-ones: uniquely intersecting at every pair; no input edges
	}

	faithfulQ, err := lbgraph.NewQuadratic(qp)
	if err != nil {
		return err
	}
	var optQ int64
	w.Go(solveOpt(faithfulQ, interIn(), &optQ))

	inverted, err := lbgraph.NewQuadraticVariant(qp, lbgraph.QuadraticOptions{InvertInputEdges: true})
	if err != nil {
		return err
	}
	var optInv int64
	w.Go(solveOpt(inverted, interIn(), &optInv))

	noInputs, err := lbgraph.NewQuadraticVariant(qp, lbgraph.QuadraticOptions{OmitInputEdges: true})
	if err != nil {
		return err
	}
	// With no input edges the graph is x̄-independent: build with a
	// pairwise-disjoint input and observe the intersecting-case optimum
	// anyway.
	disIn := make(bitvec.Inputs, qp.T)
	for i := range disIn {
		disIn[i] = bitvec.New(qp.K() * qp.K())
	}
	var optNo int64
	w.Go(solveOpt(noInputs, disIn, &optNo))

	if err := w.Gather(); err != nil {
		return err
	}

	c.assert(optQ >= qp.QuadraticBeta(), "faithful quadratic lost its witness")
	qTab.add("(none — faithful)", optQ, qp.QuadraticBeta(), optQ >= qp.QuadraticBeta())
	c.assert(optInv < qp.QuadraticBeta(),
		"inverted input edges should destroy the witness (got %d ≥ %d)", optInv, qp.QuadraticBeta())
	qTab.add("input edges on 1 bits (inverted)", optInv, qp.QuadraticBeta(), optInv >= qp.QuadraticBeta())
	c.assert(optNo >= qp.QuadraticBeta(),
		"without input edges even disjoint inputs should reach Beta (got %d)", optNo)
	qTab.add("no input edges (disjoint input!)", optNo, qp.QuadraticBeta(), optNo >= qp.QuadraticBeta())

	qTab.write(w)
	fmt.Fprintf(w, "In the quadratic family the inputs act only through the A^(i,1)×A^(i,2) edges: "+
		"inverting the encoding wires the witness pair together exactly when it should be free "+
		"(the intersecting case collapses), and dropping the edges makes the disjoint case as large "+
		"as the intersecting one — either way the predicate stops computing pairwise disjointness.\n")
	return c.err()
}
