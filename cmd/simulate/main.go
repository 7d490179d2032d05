// Command simulate runs the Theorem 5 simulation end to end: it builds a
// lower-bound instance, runs a CONGEST algorithm on it with every
// cut-crossing message charged to a shared blackboard, and prints the full
// accounting report.
//
// Usage:
//
//	simulate -t 2 -alpha 1 -ell 3 -case disjoint -seed 3 [-bandwidth B]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"congestlb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	t := fs.Int("t", 2, "number of players")
	alpha := fs.Int("alpha", 1, "code message length")
	ell := fs.Int("ell", 3, "code distance")
	inputCase := fs.String("case", "intersecting", "input case: intersecting or disjoint")
	seed := fs.Int64("seed", 3, "random seed")
	bandwidth := fs.Int64("bandwidth", 0, "CONGEST bandwidth B in bits (0 = default Θ(log n))")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := congestlb.Params{T: *t, Alpha: *alpha, Ell: *ell}
	fam, err := congestlb.NewLinear(p)
	if err != nil {
		return err
	}
	if !fam.Gap().Valid() {
		return fmt.Errorf("params %s have a vacuous gap (need ℓ > αt); the decision step would be unsound", p)
	}

	rng := rand.New(rand.NewSource(*seed))
	var in congestlb.Inputs
	switch *inputCase {
	case "intersecting":
		in, _, err = congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, 0.3, rng)
	case "disjoint":
		in, err = congestlb.RandomPairwiseDisjoint(fam.InputBits(), p.T, 0.3, rng)
	default:
		return fmt.Errorf("unknown case %q", *inputCase)
	}
	if err != nil {
		return err
	}

	lab, err := congestlb.New()
	if err != nil {
		return err
	}
	defer lab.Close()
	cfg := congestlb.CongestConfig{BandwidthBits: *bandwidth, Seed: *seed}
	report, err := lab.RunReduction(context.Background(), fam, in, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "family:            %s\n", report.Family)
	fmt.Fprintf(w, "players t:         %d\n", report.Players)
	fmt.Fprintf(w, "nodes n:           %d\n", report.N)
	fmt.Fprintf(w, "cut size:          %d\n", report.CutSize)
	fmt.Fprintf(w, "bandwidth B:       %d bits\n", report.Bandwidth)
	fmt.Fprintf(w, "rounds T:          %d\n", report.Rounds)
	fmt.Fprintf(w, "blackboard:        %d writes, %d bits\n", report.BlackboardWrites, report.BlackboardBits)
	fmt.Fprintf(w, "accounting bound:  2T·|cut|·B = %d bits\n", report.AccountingBound)
	fmt.Fprintf(w, "accounting holds:  %v\n", report.AccountingHolds())
	fmt.Fprintf(w, "all-edge traffic:  %d bits (for contrast)\n", report.CongestTotalBits)
	fmt.Fprintf(w, "computed OPT:      %d (Beta=%d, SmallMax=%d)\n",
		report.Opt, fam.Gap().Beta, fam.Gap().SmallMax)
	fmt.Fprintf(w, "decision:          pairwise-disjoint=%v, truth=%v, correct=%v\n",
		report.Decision, report.Truth, report.Correct())
	if !report.AccountingHolds() || !report.Correct() {
		return fmt.Errorf("simulation unsound")
	}
	return nil
}
