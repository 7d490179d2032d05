package experiments

import (
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/lbgraph"
	"congestlb/internal/mis"
)

// The figure experiments rebuild the exact objects drawn in the paper's
// Figures 1-6 (all with ℓ=2, α=1, k=3) and verify every structural claim
// their captions make.

func init() {
	register(Experiment{
		ID:       "figure1",
		Title:    "Base graph H with ℓ=2, α=1, k=3 and C(1)=\"2,3,1\"",
		PaperRef: "Figure 1",
		Run:      runFigure1,
	})
	register(Experiment{
		ID:       "figure2",
		Title:    "Inter-copy wiring: complete bipartite minus the natural matching",
		PaperRef: "Figure 2",
		Run:      runFigure2,
	})
	register(Experiment{
		ID:       "figure3",
		Title:    "Three-player construction and its highlighted independent set",
		PaperRef: "Figure 3",
		Run:      runFigure3,
	})
	register(Experiment{
		ID:       "figure4",
		Title:    "Quadratic construction: one player's pair of copies V^(1,1) ∪ V^(1,2)",
		PaperRef: "Figure 4",
		Run:      runFigure4,
	})
	register(Experiment{
		ID:       "figure5",
		Title:    "Full quadratic fixed graph F for t=2",
		PaperRef: "Figure 5",
		Run:      runFigure5,
	})
	register(Experiment{
		ID:       "figure6",
		Title:    "Input edges: a 0 bit x¹_(1,1) creates the edge {v^(1,1)_1, v^(1,2)_1}",
		PaperRef: "Figure 6",
		Run:      runFigure6,
	})
}

func runFigure1(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(2)
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		return err
	}
	base, err := w.BuildBase(p)
	if err != nil {
		return err
	}
	c.assert(base.N() == 12, "H should have 12 nodes, has %d", base.N())
	c.assert(base.M() == 30, "H should have 30 edges, has %d", base.M())

	tab := newTable("message m", "codeword C(m)", "nodes of Code_m")
	for m := 0; m < p.K(); m++ {
		word := l.Codeword(m)
		c.assert(len(word) == 3, "codeword length %d", len(word))
		nodes := ""
		for h, sym := range word {
			if h > 0 {
				nodes += ", "
			}
			nodes += fmt.Sprintf("σ(%d,%d)", h+1, sym)
		}
		tab.add(m+1, fmt.Sprint(word), nodes)
	}
	tab.write(w)

	// The caption's golden fact: C(1) = "2,3,1".
	w1 := l.Codeword(0)
	c.assert(w1[0] == 2 && w1[1] == 3 && w1[2] == 1, "C(1) = %v, want [2 3 1]", w1)

	// v1 is adjacent to Code \ Code_1 (6 nodes) and its A-clique (2).
	// H is copy 0 of the family's layout, so its node IDs are l's.
	v1 := l.ANode(0, 0)
	c.assert(base.Degree(v1) == 8, "deg(v1) = %d, want 8", base.Degree(v1))
	for h := 1; h <= 3; h++ {
		for r := 1; r <= 3; r++ {
			u := l.SigmaNode(0, h-1, r-1)
			inCode1 := w1[h-1] == r
			c.assert(base.HasEdge(v1, u) != inCode1,
				"v1-σ(%d,%d) adjacency wrong (inCode1=%v)", h, r, inCode1)
		}
	}
	fmt.Fprintf(w, "Verified: |V(H)|=12, |E(H)|=30, C(1)=%v, v1 adjacent to exactly Code∖Code₁.\n", w1)
	return c.err()
}

func runFigure2(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(2)
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		return err
	}
	inst, err := w.BuildFixed(l)
	if err != nil {
		return err
	}
	tab := newTable("pair", "edge present")
	edges, nonEdges := 0, 0
	for r := 0; r < p.Q(); r++ {
		for s := 0; s < p.Q(); s++ {
			has := inst.Graph.HasEdge(l.SigmaNode(0, 0, r), l.SigmaNode(1, 0, s))
			tab.add(fmt.Sprintf("σ¹(1,%d)–σ²(1,%d)", r+1, s+1), has)
			c.assert(has == (r != s), "edge (r=%d,s=%d) = %v", r, s, has)
			if has {
				edges++
			} else {
				nonEdges++
			}
		}
	}
	tab.write(w)
	fmt.Fprintf(w, "Between C¹_1 and C²_1: %d edges, %d matching non-edges (q=%d).\n",
		edges, nonEdges, p.Q())
	c.assert(edges == p.Q()*(p.Q()-1), "edge count %d", edges)
	c.assert(nonEdges == p.Q(), "non-edge count %d", nonEdges)
	return c.err()
}

func runFigure3(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(3)
	l, err := lbgraph.NewLinear(p)
	if err != nil {
		return err
	}
	inst, err := w.BuildFixed(l)
	if err != nil {
		return err
	}
	// The figure highlights {v¹₁, v²₁, v³₁} ∪ Code¹₁ ∪ Code²₁ ∪ Code³₁.
	var set []int
	for i := 0; i < 3; i++ {
		set = append(set, l.ANode(i, 0))
		set = append(set, l.CodeNodes(i, 0)...)
	}
	independent := inst.Graph.IsIndependentSet(set)
	c.assert(independent, "highlighted set is not independent")
	weight, err := mis.Verify(inst.Graph, set)
	if err != nil {
		return err
	}
	tab := newTable("quantity", "value")
	tab.add("n = t(k+Mq)", inst.Graph.N())
	tab.add("highlighted set size", len(set))
	tab.add("highlighted set weight (fixed graph)", weight)
	tab.add("independent", independent)
	tab.write(w)
	fmt.Fprintf(w, "Verified Figure 3's caption: the union across all three players of {v^i_1} ∪ Code^i_1 is an independent set.\n")
	return c.err()
}

func runFigure4(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(2)
	f, err := lbgraph.NewQuadratic(p)
	if err != nil {
		return err
	}
	inst, err := w.BuildFixed(f)
	if err != nil {
		return err
	}
	g := inst.Graph
	// V^1 = V^(1,1) ∪ V^(1,2): two topologically identical copies of H.
	tab := newTable("copy", "A-clique size", "code cliques", "A-node weight")
	for b := 0; b < 2; b++ {
		aSize := 0
		for m := 0; m < p.K(); m++ {
			aSize++
			c.assert(g.Weight(f.ANode(0, b, m)) == int64(p.Ell),
				"A-node weight wrong in copy b=%d", b)
		}
		tab.add(fmt.Sprintf("V^(1,%d)", b+1), aSize, p.M(), p.Ell)
	}
	tab.write(w)
	// Per the caption: v^(1,1)_1 avoids Code^(1,1)_1 and v^(1,2)_1 avoids
	// Code^(1,2)_1, mirroring Figure 1 in both copies.
	for b := 0; b < 2; b++ {
		for _, u := range f.CodeNodes(0, b, 0) {
			c.assert(!g.HasEdge(f.ANode(0, b, 0), u), "v^(1,%d)_1 adjacent to its own codeword node", b+1)
		}
	}
	fmt.Fprintf(w, "Verified: player 1 holds two identical copies of H with A-nodes of fixed weight ℓ=%d.\n", p.Ell)
	return c.err()
}

func runFigure5(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(2)
	f, err := lbgraph.NewQuadratic(p)
	if err != nil {
		return err
	}
	inst, err := w.BuildFixed(f)
	if err != nil {
		return err
	}
	g, part := inst.Graph, inst.Partition
	c.assert(g.N() == p.QuadraticN(), "N = %d", g.N())
	// G¹ spans the b=0 halves, G² the b=1 halves; wiring exists only
	// within a half.
	sameHalf := g.HasEdge(f.SigmaNode(0, 0, 0, 0), f.SigmaNode(1, 0, 0, 1))
	crossHalf := g.HasEdge(f.SigmaNode(0, 0, 0, 0), f.SigmaNode(1, 1, 0, 1))
	c.assert(sameHalf, "same-half wiring missing")
	c.assert(!crossHalf, "cross-half wiring exists")

	tab := newTable("quantity", "value")
	tab.add("players t", p.T)
	tab.add("n = 2t(k+Mq)", g.N())
	tab.add("cut size", part.CutSize(g))
	tab.add("fixed edges", g.M())
	tab.write(w)
	fmt.Fprintf(w, "Verified: F is two copies of G with per-half inter-player wiring only; all fixed edges are input-independent.\n")
	return c.err()
}

func runFigure6(w *Ctx) error {
	var c check
	p := lbgraph.FigureParams(2)
	f, err := lbgraph.NewQuadratic(p)
	if err != nil {
		return err
	}
	// The caption's instance: first bit of x¹ is 0, everything else 1.
	in := make(bitvec.Inputs, p.T)
	for i := range in {
		m := bitvec.NewMatrix(p.K())
		m.SetAll()
		in[i] = m.Vector()
	}
	m0, err := bitvec.MatrixFromVector(in[0], p.K())
	if err != nil {
		return err
	}
	m0.Clear(0, 0)

	inst, err := w.Build(f, in)
	if err != nil {
		return err
	}
	g := inst.Graph
	tab := newTable("player", "input edges added")
	for i := 0; i < p.T; i++ {
		count := 0
		for m1 := 0; m1 < p.K(); m1++ {
			for m2 := 0; m2 < p.K(); m2++ {
				if g.HasEdge(f.ANode(i, 0, m1), f.ANode(i, 1, m2)) {
					count++
				}
			}
		}
		tab.add(fmt.Sprintf("x^%d", i+1), count)
		if i == 0 {
			c.assert(count == 1, "player 1 should contribute exactly 1 input edge, has %d", count)
		} else {
			c.assert(count == 0, "player %d should contribute none, has %d", i+1, count)
		}
	}
	tab.write(w)
	c.assert(g.HasEdge(f.ANode(0, 0, 0), f.ANode(0, 1, 0)),
		"the edge {v^(1,1)_1, v^(1,2)_1} is missing")
	fmt.Fprintf(w, "Verified: exactly the 0 bits of x̄ materialise as A^(i,1)×A^(i,2) edges.\n")
	return c.err()
}
