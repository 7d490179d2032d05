// Reduction: the Theorem 5 simulation live — a real CONGEST algorithm
// runs on G_x̄ while every message crossing the player partition is
// charged, bit for bit, to a shared blackboard; the resulting transcript
// is checked against the 2T·|cut|·B accounting bound and the induced
// protocol's answer against the ground truth.
//
// Run with:
//
//	go run ./examples/reduction
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"congestlb"
)

func main() {
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	lab, err := congestlb.New()
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close()

	for _, tc := range []struct {
		name      string
		intersect bool
	}{
		{name: "uniquely intersecting (f = FALSE)", intersect: true},
		{name: "pairwise disjoint (f = TRUE)", intersect: false},
	} {
		var in congestlb.Inputs
		var err error
		if tc.intersect {
			in, _, err = congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
		} else {
			in, err = congestlb.RandomPairwiseDisjoint(fam.InputBits(), p.T, 0.3, rng)
		}
		if err != nil {
			log.Fatal(err)
		}

		report, err := lab.RunReduction(context.Background(), fam, in, congestlb.CongestConfig{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%s\n", tc.name)
		fmt.Printf("  CONGEST run:   %d rounds, %d total bits on all edges\n",
			report.Rounds, report.CongestTotalBits)
		fmt.Printf("  blackboard:    %d writes, %d bits (only cut-crossing messages)\n",
			report.BlackboardWrites, report.BlackboardBits)
		fmt.Printf("  accounting:    %d ≤ 2T·|cut|·B = 2·%d·%d·%d = %d  → holds: %v\n",
			report.BlackboardBits, report.Rounds, report.CutSize, report.Bandwidth,
			report.AccountingBound, report.AccountingHolds())
		fmt.Printf("  decision:      OPT=%d ⇒ pairwise-disjoint=%v (truth %v, correct %v)\n\n",
			report.Opt, report.Decision, report.Truth, report.Correct())
	}

	fmt.Println("This is the engine of every lower bound in the paper: if a CONGEST algorithm")
	fmt.Println("decided the gap in T rounds, the players could run it as a blackboard protocol")
	fmt.Println("of T·|cut|·O(log n) bits — contradicting the Ω(k/(t log t)) communication bound")
	fmt.Println("once T is too small. Hence Theorems 1 and 2.")
}
