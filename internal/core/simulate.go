package core

import (
	"context"
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/obs"
)

// SimulationReport is the outcome of one run of the Theorem 5 simulation:
// a CONGEST algorithm executed on G_x̄ with every cut-crossing message
// charged to the induced blackboard protocol.
type SimulationReport struct {
	// Family and Players identify the construction.
	Family  string `json:"family"`
	Players int    `json:"players"`
	// N and CutSize describe the instance.
	N       int `json:"n"`
	CutSize int `json:"cut_size"`
	// Bandwidth is the CONGEST per-edge bit budget B.
	Bandwidth int64 `json:"bandwidth"`
	// Rounds is the number of CONGEST rounds the algorithm used (T).
	Rounds int `json:"rounds"`
	// BlackboardBits is the transcript length of the induced protocol —
	// the quantity Theorem 5 bounds by AccountingBound. It is
	// counted (the bits of every cut-crossing message), not read off a
	// stored transcript.
	BlackboardBits int64 `json:"blackboard_bits"`
	// BlackboardWrites is the number of cut-crossing messages.
	BlackboardWrites int64 `json:"blackboard_writes"`
	// CongestTotalBits is the total volume sent on all edges (local
	// simulation included), for contrast with BlackboardBits.
	CongestTotalBits int64 `json:"congest_total_bits"`
	// AccountingBound is 2·Rounds·CutSize·Bandwidth: in one round each
	// cut edge carries up to Bandwidth bits in each of its two directions.
	AccountingBound int64 `json:"accounting_bound"`
	// SolveCacheHits and SolveCacheMisses count the run's exact-solve
	// cache lookups: in a GossipExact run the n per-node solves of the
	// identical learned graph show up as one miss and n-1 hits. The
	// simulation itself cannot see the solve session inside the caller's
	// program factory, so it leaves both zero; the caller that owns the
	// session fills them from its counters (congestlb.Lab.RunReduction
	// does).
	SolveCacheHits   uint64 `json:"solve_cache_hits"`
	SolveCacheMisses uint64 `json:"solve_cache_misses"`
	// Opt is the MaxIS value extracted from the algorithm's outputs.
	Opt int64 `json:"opt"`
	// Decision is the protocol's answer to promise pairwise disjointness,
	// derived from Opt through the family's gap predicate.
	Decision bool `json:"decision"`
	// Truth is the ground-truth function value.
	Truth bool `json:"truth"`
}

// AccountingHolds reports the Theorem 5 inequality
// BlackboardBits ≤ 2·Rounds·CutSize·Bandwidth (both directions of every
// cut edge, every round).
func (r SimulationReport) AccountingHolds() bool {
	return r.BlackboardBits <= r.AccountingBound
}

// Correct reports whether the induced protocol answered correctly.
func (r SimulationReport) Correct() bool { return r.Decision == r.Truth }

// ProgramFactory builds the CONGEST node programs that will run on a built
// instance (one program per node).
type ProgramFactory func(inst Instance) []congest.NodeProgram

// OptExtractor interprets the outputs of a finished run as the MaxIS value
// of the instance (e.g. the weight of the set computed by GossipExact).
type OptExtractor func(result congest.Result, inst Instance) (int64, error)

// Simulate realises Theorem 5 for one input vector: it runs the given
// CONGEST algorithm on inst, the caller-built G_x̄ of fam for in, counts
// the bits and messages crossing the player partition — the blackboard
// cost of the induced protocol — and decides the promise pairwise
// disjointness function from the algorithm's output via the gap
// predicate.
//
// The returned report carries both sides of the accounting identity — the
// actual transcript length and the 2·Rounds·|cut|·B bound — so callers (and
// tests) can confirm the inequality the paper's lower bounds rest on.
//
// The CONGEST round loop observes ctx's cancellation at round boundaries,
// and solve sessions bound to the same context (cache.Session.WithContext)
// stop any in-flight branch-and-bound the node programs run. A cancelled
// simulation returns ctx.Err() wrapped with where the run stopped. When
// the context carries an obs.Registry (obs.NewContext), the run is
// wrapped in a "simulate" span and — unless the caller stamped
// cfg.Metrics itself — the engine records its round/message/bit totals
// into that registry.
//
// The cut traffic is counted, not copied: the run sets cfg.Cut to the
// instance's partition and the engine tallies the crossing bits and
// messages in its round loop. A caller who wants the transcript itself
// sets cfg.Hook (a congest.Tracer, or a hook writing each cut-crossing
// message to a cc.Blackboard), which runs after the tally. A cut-crossing
// message of 0 bits fails the run, as a blackboard write of 0 bits would.
func Simulate(ctx context.Context, fam Family, in bitvec.Inputs, inst Instance, factory ProgramFactory, extract OptExtractor, cfg congest.Config) (SimulationReport, error) {
	var sp obs.Span
	ctx, sp = obs.Begin(ctx, "simulate")
	defer sp.End()
	if cfg.Metrics == nil {
		cfg.Metrics = congest.NewEngineMetrics(obs.FromContext(ctx))
	}
	truth, err := in.PromisePairwiseDisjointness()
	if err != nil {
		return SimulationReport{}, fmt.Errorf("core: inputs: %w", err)
	}
	g, part := inst.Graph, inst.Partition
	cfg.Cut = part

	programs := factory(inst)
	net, err := congest.NewNetwork(g, programs, cfg)
	if err != nil {
		return SimulationReport{}, fmt.Errorf("core: network: %w", err)
	}
	result, err := net.RunCtx(ctx)
	if err != nil {
		return SimulationReport{}, fmt.Errorf("core: run: %w", err)
	}
	opt, err := extract(result, inst)
	if err != nil {
		return SimulationReport{}, fmt.Errorf("core: extract: %w", err)
	}
	decision, err := fam.Gap().Decide(opt)
	if err != nil {
		return SimulationReport{}, err
	}

	cut := part.CutSize(g)
	report := SimulationReport{
		Family:           fam.Name(),
		Players:          fam.Players(),
		N:                g.N(),
		CutSize:          cut,
		Bandwidth:        net.Bandwidth(),
		Rounds:           result.Stats.Rounds,
		BlackboardBits:   result.Stats.CutBits,
		BlackboardWrites: result.Stats.CutMessages,
		CongestTotalBits: result.Stats.TotalBits,
		AccountingBound:  2 * int64(result.Stats.Rounds) * int64(cut) * net.Bandwidth(),
		Opt:              opt,
		Decision:         decision,
		Truth:            truth,
	}
	return report, nil
}
