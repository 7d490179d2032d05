package congest

import "congestlb/internal/obs"

// EngineMetrics is the round loop's resolved observability handle set.
// Resolve one from a registry with NewEngineMetrics and stamp it onto
// Config.Metrics (internal/core does this automatically from a
// context-bound registry); Network.RunCtx records into it.
//
// Only successfully completed runs are recorded: a cancelled or failed
// simulation books nothing, so engine_runs counts results callers
// actually received and the rounds/messages/bits counters stay the sum
// over those results' Stats. A nil *EngineMetrics is a no-op sink, the
// usual nil-registry fast path.
type EngineMetrics struct {
	runs, rounds, messages, bits *obs.Counter
}

// NewEngineMetrics resolves the engine handles from a registry (nil
// registry → nil metrics).
func NewEngineMetrics(r *obs.Registry) *EngineMetrics {
	if r == nil {
		return nil
	}
	return &EngineMetrics{
		runs:     r.Counter(obs.MEngineRuns),
		rounds:   r.Counter(obs.MEngineRounds),
		messages: r.Counter(obs.MEngineMessages),
		bits:     r.Counter(obs.MEngineBits),
	}
}

// recordRun books one completed simulation's cost.
func (m *EngineMetrics) recordRun(st Stats) {
	if m == nil {
		return
	}
	m.runs.Inc()
	m.rounds.Add(int64(st.Rounds))
	m.messages.Add(st.Messages)
	m.bits.Add(st.TotalBits)
}
