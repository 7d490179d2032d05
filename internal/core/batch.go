package core

import (
	"context"
	"fmt"

	"congestlb/internal/bitvec"
	"congestlb/internal/congest"
	"congestlb/internal/obs"
)

// BatchSim is one Theorem 5 simulation of a batched sweep: a pre-built
// instance plus the algorithm and extraction that SimulateBuiltCtx would
// apply to it. Instances of one sweep typically share a *graphs.Graph
// (the same built instance run under several algorithms), which the batch
// engine detects and shares instead of duplicating.
type BatchSim struct {
	Fam     Family
	In      bitvec.Inputs
	Inst    Instance
	Factory ProgramFactory
	Extract OptExtractor
	Cfg     congest.Config
}

// SimulateBatch runs every simulation through one congest.RunBatch
// lockstep pass and returns per-sim reports and errors (reports[i] is
// meaningful iff errs[i] is nil), plus the engine's batch statistics.
//
// Each sim's cut traffic is counted by the same hook SimulateBuiltCtx
// installs, ahead of the sim's own Cfg.Hook. Each report is field-for-field
// identical to what SimulateBuiltCtx would return for the same sim, with
// one exception: SolveCacheHits/Misses stay zero. The shared solve
// cache's counter deltas cannot be attributed to one instance of an
// interleaved lockstep pass; callers that need attribution take the delta
// across the whole batch (the experiment runner books it per batch job)
// or route solves through a private session cache as congestlb.Lab does.
func SimulateBatch(ctx context.Context, sims []BatchSim) ([]SimulationReport, []error, congest.BatchStats) {
	reports := make([]SimulationReport, len(sims))
	errs := make([]error, len(sims))

	// The whole lockstep pass is one "simulate" span; per-sim engine
	// metrics come from each sim's own Cfg.Metrics, defaulted from the
	// context registry like SimulateBuiltCtx.
	var sp obs.Span
	ctx, sp = obs.Begin(ctx, "simulate")
	defer sp.End()
	em := congest.NewEngineMetrics(obs.FromContext(ctx))

	// Per-sim pre-work mirroring SimulateBuiltCtx: truth evaluation and the
	// cut-counting hook. Sims that fail pre-work never enter the engine.
	type prep struct {
		tally cutCounter
		truth bool
	}
	preps := make([]*prep, len(sims))
	items := make([]congest.BatchItem, 0, len(sims))
	itemSim := make([]int, 0, len(sims)) // engine item -> sim index
	for i := range sims {
		s := &sims[i]
		truth, err := s.In.PromisePairwiseDisjointness()
		if err != nil {
			errs[i] = fmt.Errorf("core: inputs: %w", err)
			continue
		}
		p := &prep{truth: truth}
		preps[i] = p

		cfg := s.Cfg
		if cfg.Metrics == nil {
			cfg.Metrics = em
		}
		cfg.Hook = p.tally.hook(s.Inst.Partition, s.Cfg.Hook)
		items = append(items, congest.BatchItem{
			Graph:    s.Inst.Graph,
			Programs: s.Factory(s.Inst),
			Config:   cfg,
		})
		itemSim = append(itemSim, i)
	}

	results, runErrs, bstats := congest.RunBatch(ctx, items)

	for k, i := range itemSim {
		if runErrs[k] != nil {
			errs[i] = fmt.Errorf("core: run: %w", runErrs[k])
			continue
		}
		s := &sims[i]
		p := preps[i]
		opt, err := s.Extract(results[k], s.Inst)
		if err != nil {
			errs[i] = fmt.Errorf("core: extract: %w", err)
			continue
		}
		decision, err := s.Fam.Gap().Decide(opt)
		if err != nil {
			errs[i] = err
			continue
		}
		g := s.Inst.Graph
		bw := s.Cfg.BandwidthBits
		if bw == 0 {
			bw = congest.DefaultBandwidth(g.N())
		}
		cut := s.Inst.Partition.CutSize(g)
		reports[i] = SimulationReport{
			Family:           s.Fam.Name(),
			Players:          s.Fam.Players(),
			N:                g.N(),
			CutSize:          cut,
			Bandwidth:        bw,
			Rounds:           results[k].Stats.Rounds,
			BlackboardBits:   p.tally.bits,
			BlackboardWrites: p.tally.writes,
			CongestTotalBits: results[k].Stats.TotalBits,
			AccountingBound:  int64(results[k].Stats.Rounds) * int64(cut) * bw,
			Opt:              opt,
			Decision:         decision,
			Truth:            p.truth,
		}
	}
	return reports, errs, bstats
}
