package congest

// RoundStat aggregates the traffic of one round.
type RoundStat struct {
	// Round is the 1-based round number.
	Round int
	// Messages is the number of messages delivered that round.
	Messages int64
	// Bits is their total payload volume.
	Bits int64
}

// Tracer collects per-round traffic statistics through the engine's
// message hook. The zero value is ready to use:
//
//	var tr congest.Tracer
//	cfg := congest.Config{Hook: tr.Hook()}
//
// Hook invocation contract: Network.RunCtx calls hooks from the goroutine
// running the round loop, in global sender-ID order within a round,
// rounds ascending — so Tracer needs no locking. A hook must not mutate
// engine or program state, and the Message passed to it is valid only for
// the duration of the call: its Data is the sender's buffer, which the
// hook must neither retain nor modify. One Tracer must not be shared
// across concurrently running networks.
type Tracer struct {
	stats []RoundStat
}

// Hook returns a MessageHook that records every delivered message.
func (t *Tracer) Hook() MessageHook {
	return func(round int, msg Message) error {
		if len(t.stats) == 0 || t.stats[len(t.stats)-1].Round != round {
			t.stats = append(t.stats, RoundStat{Round: round})
		}
		last := &t.stats[len(t.stats)-1]
		last.Messages++
		last.Bits += msg.Bits()
		return nil
	}
}

// Rounds returns the per-round statistics in round order (rounds with no
// traffic are absent).
func (t *Tracer) Rounds() []RoundStat {
	return append([]RoundStat(nil), t.stats...)
}

// PeakRound returns the round with the most bits, or a zero RoundStat when
// no traffic was recorded.
func (t *Tracer) PeakRound() RoundStat {
	var peak RoundStat
	for _, s := range t.stats {
		if s.Bits > peak.Bits {
			peak = s
		}
	}
	return peak
}

// Total returns the summed messages and bits across all rounds.
func (t *Tracer) Total() (messages, bits int64) {
	for _, s := range t.stats {
		messages += s.Messages
		bits += s.Bits
	}
	return messages, bits
}

// Reset clears the collected statistics.
func (t *Tracer) Reset() { t.stats = t.stats[:0] }
