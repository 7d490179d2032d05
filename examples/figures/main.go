// Figures: rebuild the exact objects drawn in the paper's Figures 1-6 and
// print their structure, including Graphviz DOT for the base graph.
//
// Run with:
//
//	go run ./examples/figures
package main

import (
	"fmt"
	"log"

	"congestlb"
)

func main() {
	p := congestlb.FigureParams(2)

	// Figure 1: the base graph H with ℓ=2, α=1, k=3.
	base, err := congestlb.BuildBase(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 1 — base graph H: %d nodes, %d edges\n", base.N(), base.M())
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		log.Fatal(err)
	}
	for m := 0; m < p.K(); m++ {
		fmt.Printf("  C(%d) = %v\n", m+1, fam.Codeword(m))
	}
	// H is copy 0 of fam's layout, so fam names its nodes.
	v1 := fam.ANode(0, 0)
	fmt.Printf("  v1 neighbours (%d):", base.Degree(v1))
	for _, u := range base.Neighbors(v1) {
		fmt.Printf(" %s", fam.NodeName(u))
	}
	fmt.Println()

	// Figure 2: inter-copy wiring.
	inst, err := fam.BuildFixed()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 2 — wiring between C¹_1 and C²_1 (edge iff r≠s):\n")
	for r := 0; r < p.Q(); r++ {
		fmt.Printf("  σ¹(1,%d):", r+1)
		for s := 0; s < p.Q(); s++ {
			if inst.Graph.HasEdge(fam.SigmaNode(0, 0, r), fam.SigmaNode(1, 0, s)) {
				fmt.Printf(" σ²(1,%d)", s+1)
			}
		}
		fmt.Println()
	}

	// Figure 3: the t=3 construction and its highlighted independent set.
	p3 := congestlb.FigureParams(3)
	fam3, err := congestlb.NewLinear(p3)
	if err != nil {
		log.Fatal(err)
	}
	inst3, err := fam3.BuildFixed()
	if err != nil {
		log.Fatal(err)
	}
	var highlighted []congestlb.NodeID
	for i := 0; i < 3; i++ {
		highlighted = append(highlighted, fam3.ANode(i, 0))
		highlighted = append(highlighted, fam3.CodeNodes(i, 0)...)
	}
	w, err := congestlb.VerifyIndependent(inst3.Graph, highlighted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigure 3 — t=3: {v^i_1} ∪ Code^i_1 over all i is independent (weight %d in the fixed graph)\n", w)

	// Figures 4-6: the quadratic construction.
	quad, err := congestlb.NewQuadratic(p)
	if err != nil {
		log.Fatal(err)
	}
	instQ, err := quad.BuildFixed()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFigures 4-5 — quadratic F for t=2: %d nodes, %d fixed edges, cut %d\n",
		instQ.Graph.N(), instQ.Graph.M(), instQ.Partition.CutSize(instQ.Graph))
	fmt.Printf("  A-clique nodes carry fixed weight ℓ=%d; inputs are k²=%d bits per player\n",
		p.Ell, quad.InputBits())
	fmt.Printf("  (Figure 6: each 0 bit x^i_(m1,m2) adds the edge {v^(i,1)_m1, v^(i,2)_m2})\n")

	// DOT export of the base graph, ready for `dot -Tsvg`.
	fmt.Printf("\n--- Graphviz DOT of H (Figure 1) ---\n%s", base.DOT("H", fam.NodeName, nil))
}
