// Command lbgen builds a lower-bound graph instance and reports its
// structure, optionally emitting Graphviz DOT.
//
// Usage:
//
//	lbgen -family linear -t 3 -alpha 1 -ell 4 -case intersecting -seed 1 [-dot] [-solve]
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
		fmt.Fprintln(os.Stderr, "lbgen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("lbgen", flag.ContinueOnError)
	family := fs.String("family", "linear", "family: linear or quadratic")
	t := fs.Int("t", 2, "number of players t >= 2")
	alpha := fs.Int("alpha", 1, "code message length α >= 1")
	ell := fs.Int("ell", 3, "code distance ℓ >= 1")
	inputCase := fs.String("case", "intersecting", "input case: intersecting, disjoint or fixed")
	seed := fs.Int64("seed", 1, "random seed for the input strings")
	density := fs.Float64("density", 0.3, "density of extra 1 bits in the inputs")
	dot := fs.Bool("dot", false, "emit Graphviz DOT of the built instance")
	solve := fs.Bool("solve", false, "solve MaxIS exactly and report the optimum")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := congestlb.Params{T: *t, Alpha: *alpha, Ell: *ell}
	var fam congestlb.Family
	var nodeName func(congestlb.NodeID) string
	switch *family {
	case "linear":
		l, err := congestlb.NewLinear(p)
		if err != nil {
			return err
		}
		fam, nodeName = l, l.NodeName
	case "quadratic":
		q, err := congestlb.NewQuadratic(p)
		if err != nil {
			return err
		}
		fam, nodeName = q, q.NodeName
	default:
		return fmt.Errorf("unknown family %q", *family)
	}

	rng := rand.New(rand.NewSource(*seed))
	var in congestlb.Inputs
	var err error
	switch *inputCase {
	case "intersecting":
		in, _, err = congestlb.RandomUniquelyIntersecting(fam.InputBits(), p.T, *density, rng)
	case "disjoint":
		in, err = congestlb.RandomPairwiseDisjoint(fam.InputBits(), p.T, *density, rng)
	case "fixed":
		in, err = congestlb.RandomPairwiseDisjoint(fam.InputBits(), p.T, 0, rng) // all-zeros
	default:
		return fmt.Errorf("unknown case %q", *inputCase)
	}
	if err != nil {
		return err
	}

	inst, err := congestlb.BuildInstance(fam, in)
	if err != nil {
		return err
	}
	g, part := inst.Graph, inst.Partition
	gap := fam.Gap()

	fmt.Fprintf(w, "family:      %s\n", fam.Name())
	fmt.Fprintf(w, "params:      %s\n", p)
	fmt.Fprintf(w, "input bits:  %d per player (case %s)\n", fam.InputBits(), *inputCase)
	fmt.Fprintf(w, "nodes:       %d\n", g.N())
	fmt.Fprintf(w, "edges:       %d\n", g.M())
	fmt.Fprintf(w, "max degree:  %d\n", g.MaxDegree())
	fmt.Fprintf(w, "cut size:    %d\n", part.CutSize(g))
	fmt.Fprintf(w, "gap:         Beta=%d SmallMax=%d (γ=%.3f, valid=%v)\n",
		gap.Beta, gap.SmallMax, gap.Ratio(), gap.Valid())
	fmt.Fprintf(w, "round LB:    %.4g (Corollary 1 with constant 1)\n",
		congestlb.RoundLowerBound(fam.InputBits(), p.T, part.CutSize(g), g.N()))

	if *solve {
		lab, err := congestlb.New()
		if err != nil {
			return err
		}
		defer lab.Close()
		sol, err := lab.ExactMaxIS(context.Background(), inst)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "exact OPT:   %d (|set|=%d)\n", sol.Weight, len(sol.Set))
	}
	if *dot {
		fmt.Fprint(w, g.DOT(fam.Name(), nodeName, part))
	}
	return nil
}
