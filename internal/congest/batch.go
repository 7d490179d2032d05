package congest

import (
	"context"
	"fmt"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/obs"
)

// The batch engine: RunBatch advances B instances in lockstep, one round
// of every live instance per pass, and steps each through the same round
// loop as Network.RunCtx (instance.step). Node state is laid out
// structure-of-arrays — the outboxes, done flags and duplicate-destination
// marks of all instances live in three flat slabs indexed off(i)+node,
// with one stamp counter serving the entire batch. Instances that share a
// *graphs.Graph (a sweep over one built instance, one graph family
// repeated) share its neighbour lists, built once per distinct graph;
// each instance keeps private Stats and error, so per-instance Results
// are bit-identical to running the same Network alone. Instances that fail — validation, MaxRounds, a hook error — drop
// out of the lockstep individually; the rest keep running.

// BatchItem is one instance of a batched run. Config.Parallel and
// Config.Workers are ignored, as they are everywhere.
type BatchItem struct {
	Graph    *graphs.Graph
	Programs []NodeProgram
	Config   Config
}

// BatchStats describes one RunBatch pass.
type BatchStats struct {
	// Instances is the number of items submitted.
	Instances int
	// SharedGraphs counts items whose *graphs.Graph pointer appeared
	// earlier in the batch — adjacency those instances share instead of
	// duplicating.
	SharedGraphs int
	// EngineRounds is the number of lockstep rounds the engine stepped
	// (the longest instance's round count); TotalRounds sums the
	// per-instance counts. TotalRounds/EngineRounds is the dispatch
	// amortisation the batch bought.
	EngineRounds int
	TotalRounds  int64
}

// RunBatch runs every item to termination through one lockstep engine
// pass and returns per-item results and errors (results[i] is zero iff
// errs[i] is non-nil). Each item behaves exactly as a dedicated
// Network.RunCtx would: same round counts, stats, outputs, hook call
// sequence and error strings. The context is observed once per lockstep
// round — the same cadence as Network.RunCtx — and cancels every
// still-live instance. A nil ctx means Background. Items whose
// Config.Metrics is nil inherit engine metrics from a context-bound
// obs.Registry (obs.NewContext), if any, so direct RunBatch callers
// under an observed run are accounted without stamping every item.
func RunBatch(ctx context.Context, items []BatchItem) ([]Result, []error, BatchStats) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctxMetrics := NewEngineMetrics(obs.FromContext(ctx)); ctxMetrics != nil {
		for i := range items {
			if items[i].Config.Metrics == nil {
				items[i].Config.Metrics = ctxMetrics
			}
		}
	}
	results := make([]Result, len(items))
	errs := make([]error, len(items))
	bstats := BatchStats{Instances: len(items)}

	// Admission: the NewNetwork checks, applied per item so one invalid
	// item fails alone instead of sinking the sweep.
	insts := make([]*instance, len(items))
	adjs := make(map[*graphs.Graph]*adjacency, len(items))
	total := 0
	live := 0
	// bm records the pass-level batch metrics; the items of one pass come
	// from one caller, so the first item carrying handles speaks for all.
	var bm *EngineMetrics
	for i, it := range items {
		if bm == nil {
			bm = it.Config.Metrics
		}
		if it.Graph != nil {
			if _, ok := adjs[it.Graph]; ok {
				bstats.SharedGraphs++
			} else {
				adjs[it.Graph] = newAdjacency(it.Graph)
			}
		}
		inst, err := newInstance(it.Graph, it.Programs, it.Config)
		if err != nil {
			errs[i] = err
			continue
		}
		inst.adj = adjs[it.Graph]
		insts[i] = inst
		total += len(it.Programs)
		live++
	}

	// The structure-of-arrays slabs: one allocation per state kind for
	// the whole batch, sliced into per-instance windows.
	outSlab := make([][]Message, total)
	doneSlab := make([]bool, total)
	seenSlab := make([]int64, total)
	off := 0
	for i, inst := range insts {
		if inst == nil {
			continue
		}
		size := len(inst.nodes)
		inst.outboxes = outSlab[off : off+size : off+size]
		inst.done = doneSlab[off : off+size : off+size]
		inst.seen = seenSlab[off : off+size : off+size]
		off += size
		inst.initPrograms(items[i].Config.Seed)
	}

	ctxDone := ctx.Done()
	var stamp int64 // shared across the batch; only ever grows
	for round := 1; live > 0; round++ {
		if ctxDone != nil {
			select {
			case <-ctxDone:
				for i, inst := range insts {
					if inst != nil {
						errs[i] = fmt.Errorf("congest: run cancelled in round %d: %w", round, ctx.Err())
						insts[i] = nil
					}
				}
				live = 0
				continue
			default:
			}
		}
		for i, inst := range insts {
			if inst == nil {
				continue
			}
			finished, err := stepSafe(inst, i, round, &stamp)
			if err != nil {
				errs[i] = err
				insts[i] = nil
				live--
				continue
			}
			if finished {
				results[i] = inst.collect()
				items[i].Config.Metrics.recordRun(inst.stats)
				bstats.TotalRounds += int64(inst.stats.Rounds)
				if inst.stats.Rounds > bstats.EngineRounds {
					bstats.EngineRounds = inst.stats.Rounds
				}
				insts[i] = nil
				live--
			}
		}
	}
	bm.recordBatch(bstats)
	return results, errs, bstats
}

// stepSafe is instance.step with panic containment: a panicking node
// program drops only its own instance out of the lockstep pass (the
// per-instance error contract RunBatch already has for validation
// failures) while the sibling instances keep stepping. The instance slabs
// are per-instance, so a half-stepped panicked instance cannot corrupt
// its neighbours.
func stepSafe(inst *instance, i, round int, stamp *int64) (finished bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			finished = false
			err = fault.NewPanicError(fmt.Sprintf("batch instance %d (round %d)", i, round), r)
		}
	}()
	return inst.step(round, stamp)
}
