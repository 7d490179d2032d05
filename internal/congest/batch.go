package congest

import (
	"context"
	"fmt"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/obs"
)

// The batch engine: RunBatch advances B instances in lockstep through one
// round-major engine pass, amortising dispatch over the whole sweep and
// laying node state out structure-of-arrays — inboxes, outboxes and the
// duplicate-destination marks of all instances live in three flat slabs
// indexed off(i)+node, with one stamp counter serving the entire batch.
// Instances that share a *graphs.Graph (a sweep over one built instance,
// one graph family repeated) share its adjacency bitsets untouched; each
// instance keeps a private payload arena, Stats and error, so per-instance
// Results are bit-identical to running the same Network alone. Instances
// that fail — validation, MaxRounds, a hook error — drop out of the
// lockstep individually; the rest keep running.

// BatchItem is one instance of a batched run. Config.Parallel and
// Config.Workers are ignored: batching and pipelining are the two ends of
// the same trade ("split one big instance across workers; batch many
// small ones"), so batched instances always run the lockstep engine.
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

// batchInst is one instance's engine state. inboxes/outboxes/seen are
// views into the batch's shared slabs.
type batchInst struct {
	g         *graphs.Graph
	programs  []NodeProgram
	buffered  []BufferedProgram
	hook      MessageHook
	bw        int64
	maxRounds int
	inboxes   [][]Message
	outboxes  [][]Message
	seen      []int64
	arena     byteArena
	stats     Stats
}

// RunBatch runs every item to termination through one lockstep engine
// pass and returns per-item results and errors (results[i] is zero iff
// errs[i] is non-nil). Each item behaves exactly as a dedicated
// Network.RunCtx would: same round counts, stats, outputs, hook call
// sequence and error strings. The context is observed once per lockstep
// round — the same cadence as the sequential engine — and cancels every
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
	insts := make([]*batchInst, len(items))
	seenGraphs := make(map[*graphs.Graph]bool, len(items))
	total := 0
	live := 0
	// bm records the pass-level batch metrics; the items of one pass come
	// from one caller, so the first item carrying handles speaks for all.
	var bm *EngineMetrics
	for i, it := range items {
		if bm == nil {
			bm = it.Config.Metrics
		}
		if it.Graph == nil {
			errs[i] = fmt.Errorf("congest: nil graph")
			continue
		}
		if seenGraphs[it.Graph] {
			bstats.SharedGraphs++
		} else {
			seenGraphs[it.Graph] = true
		}
		size := it.Graph.N()
		if len(it.Programs) != size {
			errs[i] = fmt.Errorf("congest: %d programs for %d nodes", len(it.Programs), size)
			continue
		}
		nilProg := false
		for u, pr := range it.Programs {
			if pr == nil {
				errs[i] = fmt.Errorf("congest: nil program at node %d", u)
				nilProg = true
				break
			}
		}
		if nilProg {
			continue
		}
		bw := it.Config.BandwidthBits
		if bw == 0 {
			bw = DefaultBandwidth(size)
		}
		if bw < 1 {
			errs[i] = fmt.Errorf("congest: bandwidth %d bits must be >= 1", bw)
			continue
		}
		maxRounds := it.Config.MaxRounds
		if maxRounds == 0 {
			maxRounds = 4*size*size + 64
		}
		buffered := make([]BufferedProgram, size)
		for u, pr := range it.Programs {
			if bp, ok := pr.(BufferedProgram); ok {
				buffered[u] = bp
			}
		}
		insts[i] = &batchInst{
			g:         it.Graph,
			programs:  it.Programs,
			buffered:  buffered,
			hook:      it.Config.Hook,
			bw:        bw,
			maxRounds: maxRounds,
		}
		total += size
		live++
	}

	// The structure-of-arrays slabs: one allocation per state kind for
	// the whole batch, sliced into per-instance windows.
	inSlab := make([][]Message, total)
	outSlab := make([][]Message, total)
	seenSlab := make([]int64, total)
	off := 0
	for i, inst := range insts {
		if inst == nil {
			continue
		}
		size := inst.g.N()
		inst.inboxes = inSlab[off : off+size : off+size]
		inst.outboxes = outSlab[off : off+size : off+size]
		inst.seen = seenSlab[off : off+size : off+size]
		off += size
		seed := items[i].Config.Seed
		for u := 0; u < size; u++ {
			inst.programs[u].Init(NodeInfo{
				ID:        u,
				Weight:    inst.g.Weight(u),
				Neighbors: inst.g.Neighbors(u),
				N:         size,
				Rand:      nodeRand(seed, u),
			})
		}
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
			finished, err := stepRoundSafe(inst, i, round, &stamp)
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

// stepRoundSafe is stepRound with panic containment: a panicking node
// program drops only its own instance out of the lockstep pass (the
// per-instance error contract RunBatch already has for validation
// failures) while the sibling instances keep stepping. The instance slabs
// are per-instance, so a half-stepped panicked instance cannot corrupt
// its neighbours.
func stepRoundSafe(b *batchInst, i, round int, stamp *int64) (finished bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			finished = false
			err = fault.NewPanicError(fmt.Sprintf("batch instance %d (round %d)", i, round), r)
		}
	}()
	return b.stepRound(round, stamp)
}

// stepRound advances the instance by one round, mirroring the sequential
// RunCtx loop body: MaxRounds check, termination check, compute, then
// validate/account/deliver in sender-ID order out of the instance's
// arena. finished=true means the instance terminated at this round
// boundary with stats.Rounds recorded.
func (b *batchInst) stepRound(round int, stamp *int64) (finished bool, err error) {
	if round > b.maxRounds {
		return false, fmt.Errorf("%w: %d", ErrMaxRounds, b.maxRounds)
	}
	size := len(b.programs)
	allDone := true
	for u := 0; u < size; u++ {
		if !b.programs[u].Done() {
			allDone = false
			break
		}
	}
	if allDone {
		b.stats.Rounds = round - 1
		return true, nil
	}

	for u := 0; u < size; u++ {
		if b.programs[u].Done() {
			b.outboxes[u] = b.outboxes[u][:0]
			continue
		}
		if bp := b.buffered[u]; bp != nil {
			b.outboxes[u] = bp.AppendRound(round, b.inboxes[u], b.outboxes[u][:0])
		} else {
			b.outboxes[u] = b.programs[u].Round(round, b.inboxes[u])
		}
	}

	b.arena.reset()
	for u := 0; u < size; u++ {
		b.inboxes[u] = b.inboxes[u][:0]
	}
	for u := 0; u < size; u++ {
		*stamp++
		for _, msg := range b.outboxes[u] {
			if verr := validateMsg(b.g, b.bw, u, msg, round, b.seen, *stamp); verr != nil {
				return false, verr
			}
			b.stats.Messages++
			bits := msg.Bits()
			b.stats.TotalBits += bits
			if bits > b.stats.MaxMessageBits {
				b.stats.MaxMessageBits = bits
			}
			delivered := Message{From: msg.From, To: msg.To, Data: b.arena.copy(msg.Data)}
			if b.hook != nil {
				if herr := b.hook(round, delivered); herr != nil {
					return false, fmt.Errorf("congest: hook: %w", herr)
				}
			}
			b.inboxes[msg.To] = append(b.inboxes[msg.To], delivered)
		}
	}
	return false, nil
}

func (b *batchInst) collect() Result {
	outputs := make([]any, len(b.programs))
	for u := range outputs {
		outputs[u] = b.programs[u].Output()
	}
	return Result{Stats: b.stats, Outputs: outputs}
}
