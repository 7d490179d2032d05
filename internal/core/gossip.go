package core

import (
	"fmt"

	"congestlb/internal/congest"
	"congestlb/internal/congestalg"
	"congestlb/internal/mis"
	"congestlb/internal/mis/cache"
)

// This file wires the GossipExact CONGEST algorithm into the reduction as
// the standard "algorithm under simulation": it computes the exact MaxIS
// value, so the induced blackboard protocol decides promise pairwise
// disjointness with certainty, exercising Theorem 5 end to end.

// GossipPrograms is the ProgramFactory running GossipExact on an instance.
// Each run's nodes solve through a cache of their own (see
// congestalg.NewGossipExactPrograms); GossipProgramsWith puts them on a
// caller's session instead.
func GossipPrograms(inst Instance) []congest.NodeProgram {
	return congestalg.NewGossipExactPrograms(inst.Graph.N())
}

// GossipProgramsWith returns a GossipPrograms variant whose local solves
// run through the given solve session (nil = every node solves directly),
// for callers that need exact attribution of the solver work a simulation
// triggers.
func GossipProgramsWith(sess *cache.Session) ProgramFactory {
	return func(inst Instance) []congest.NodeProgram {
		return congestalg.NewGossipExactProgramsWith(sess, inst.Graph.N())
	}
}

// GossipOpt extracts the exact MaxIS weight from a finished GossipExact
// run, re-verifying the witness against the instance.
func GossipOpt(result congest.Result, inst Instance) (int64, error) {
	set, err := congestalg.ExactSetFromOutputs(result)
	if err != nil {
		return 0, err
	}
	weight, err := mis.Verify(inst.Graph, set)
	if err != nil {
		return 0, fmt.Errorf("core: gossip produced a dependent set: %w", err)
	}
	return weight, nil
}

// CollectPrograms is the ProgramFactory running the BFS-tree
// collect-and-solve algorithm — the textbook universal O(n²)-round
// algorithm. Its membership outputs are exact, so WitnessOpt extracts the
// true optimum from its runs.
func CollectPrograms(inst Instance) []congest.NodeProgram {
	return congestalg.NewCollectSolvePrograms(inst.Graph.N())
}

// CollectProgramsWith is CollectPrograms with the root's solve routed
// through the given solve session (nil = a direct solve).
func CollectProgramsWith(sess *cache.Session) ProgramFactory {
	return func(inst Instance) []congest.NodeProgram {
		return congestalg.NewCollectSolveProgramsWith(sess, inst.Graph.N())
	}
}

// WitnessOpt is an OptExtractor for algorithms whose outputs are
// per-node booleans (Luby, RankGreedy, CollectSolve): it sums the weight
// of the chosen set. For the exact algorithms the value is the optimum;
// for the heuristics it is only the achieved weight — useful for
// upper-bound experiments, not for exact gap decisions. A node that output
// an error fails the extraction with the first such error.
func WitnessOpt(result congest.Result, inst Instance) (int64, error) {
	if err := congestalg.OutputError(result); err != nil {
		return 0, err
	}
	set := congestalg.MembershipSet(result)
	weight, err := mis.Verify(inst.Graph, set)
	if err != nil {
		return 0, fmt.Errorf("core: algorithm produced a dependent set: %w", err)
	}
	return weight, nil
}
