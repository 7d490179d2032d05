// Quickstart: create a Lab, build a lower-bound instance, solve it
// exactly, and see the gap predicate separate the two promise cases.
//
// The Lab is the library's service handle: it owns a private solve cache
// and worker pool (congestlb.New takes functional options for both), and
// every long-running method takes a context.Context for cancellation. Two
// Labs in one process share nothing. Instances are built from scratch by
// congestlb.BuildInstance; no Lab is involved.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"congestlb"
)

func main() {
	ctx := context.Background()
	lab, err := congestlb.New() // e.g. congestlb.WithJobs(4), congestlb.WithSolveCacheDir(".solvecache")
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close()

	// t=2 players, α=1, ℓ=3: the smallest linear construction whose gap
	// predicate genuinely separates (ℓ > αt). k=4, n=48.
	p := congestlb.Params{T: 2, Alpha: 1, Ell: 3}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Family %s\n", fam.Name())
	fmt.Printf("  players t=%d, input bits k=%d, nodes n=%d\n", p.T, fam.InputBits(), p.LinearN())
	gap := fam.Gap()
	fmt.Printf("  gap predicate: intersecting ⇒ OPT ≥ %d; disjoint ⇒ OPT ≤ %d (γ=%.3f)\n\n",
		gap.Beta, gap.SmallMax, gap.Ratio())

	rng := rand.New(rand.NewSource(42))

	// Case 1: uniquely intersecting input strings → large independent set.
	inter, m, err := congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}
	instI, err := congestlb.BuildInstance(fam, inter)
	if err != nil {
		log.Fatal(err)
	}
	solI, err := lab.ExactMaxIS(ctx, instI)
	if err != nil {
		log.Fatal(err)
	}
	witness, err := fam.WitnessLarge(inter, instI)
	if err != nil {
		log.Fatal(err)
	}
	wWeight, err := congestlb.VerifyIndependent(instI.Graph, witness)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniquely intersecting at index %d:\n", m+1)
	fmt.Printf("  exact OPT = %d (≥ Beta %d ✓), Property-1 witness weight = %d\n\n",
		solI.Weight, gap.Beta, wWeight)

	// Case 2: pairwise disjoint input strings → small independent set.
	dis, err := congestlb.RandomPairwiseDisjoint(fam.InputBits(), p.T, 0.3, rng)
	if err != nil {
		log.Fatal(err)
	}
	instD, err := congestlb.BuildInstance(fam, dis)
	if err != nil {
		log.Fatal(err)
	}
	solD, err := lab.ExactMaxIS(ctx, instD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pairwise disjoint:\n")
	fmt.Printf("  exact OPT = %d (≤ SmallMax %d ✓)\n\n", solD.Weight, gap.SmallMax)

	// The punchline: any CONGEST algorithm distinguishing the two cases
	// solves promise pairwise disjointness, so Corollary 1 lower-bounds
	// its rounds.
	cut := instD.Partition.CutSize(instD.Graph)
	fmt.Printf("Corollary 1: rounds ≥ CC(k,t)/(|cut|·log n) = %.4g (cut=%d)\n",
		congestlb.RoundLowerBound(fam.InputBits(), p.T, cut, instD.Graph.N()), cut)
	fmt.Printf("Theorem 1 shape at n=2^20: Ω(n/log³n) = %.4g rounds\n",
		congestlb.Theorem1Bound(1<<20))
}
