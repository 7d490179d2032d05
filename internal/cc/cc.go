// Package cc implements the number-in-hand multi-party communication
// complexity model in its shared-blackboard variant (Definition 1 of Efron,
// Grossman and Khoury, PODC 2020): t players each hold a string
// x^i ∈ {0,1}^k and exchange information by writing to a blackboard visible
// to everyone. The cost of a protocol run is the total number of bits
// written.
//
// The package provides the blackboard with bit-exact accounting, concrete
// protocols for the promise pairwise disjointness function (Definition 2),
// a correctness/cost harness, and the Ω(k/(t log t)) lower-bound formula of
// Chakrabarti, Khot and Sun (Theorem 3) used by every reduction.
package cc

import (
	"fmt"
	"math"

	"congestlb/internal/bitvec"
)

// Entry is one write to the shared blackboard.
type Entry struct {
	// Player is the writing player in [0, t).
	Player int
	// Data is the payload. Only Bits of it are charged, supporting
	// sub-byte messages (e.g. a single decision bit).
	Data []byte
	// Bits is the number of bits charged for this entry.
	Bits int64
}

// rec is the compact internal form of a transcript entry: pointer-free
// (nothing for the garbage collector to scan) and payload-addressed by
// offset into the shared payload buffer, so appending never copies more
// than the new bytes.
type rec struct {
	player      int32
	off, length int32
	bits        int64
}

// Blackboard is the append-only shared transcript of a protocol run by
// the players of the cc model. The zero value is an empty blackboard ready
// for use. (The Theorem 5 simulation in internal/core only counts the bits
// and writes crossing the cut; it keeps no Blackboard.)
//
// Payloads are appended to an internal buffer addressed by offset, and
// entries are compact pointer-free records.
type Blackboard struct {
	recs    []rec
	payload []byte
	bits    int64
	// hwPayload is the payload high-water mark recorded by Reset. Because
	// Reset must drop (not truncate) the payload buffer — transcript views
	// alias it — the next use would regrow it from nothing by doubling;
	// instead the first write after a Reset allocates the buffer at the
	// previous transcript's full size in one step.
	hwPayload int
}

// Write appends an entry of the given bit size. bits must be positive and
// no larger than 8*len(data) (data must actually carry the bits charged).
// The data is copied; callers may reuse their buffer.
func (b *Blackboard) Write(player int, data []byte, bits int64) error {
	if bits <= 0 {
		return fmt.Errorf("cc: write of %d bits", bits)
	}
	if bits > int64(len(data))*8 {
		return fmt.Errorf("cc: %d bits charged but payload only holds %d", bits, len(data)*8)
	}
	off := b.payloadEnd()
	b.payload = append(b.payload, data...)
	b.book(player, off, bits)
	return nil
}

// payloadEnd returns the offset the next entry's payload starts at,
// allocating a payload buffer dropped by Reset at its high-water mark.
func (b *Blackboard) payloadEnd() int32 {
	if b.payload == nil && b.hwPayload > 0 {
		b.payload = make([]byte, 0, b.hwPayload)
	}
	return int32(len(b.payload))
}

// book records the entry whose payload was appended at offset off.
func (b *Blackboard) book(player int, off int32, bits int64) {
	b.recs = append(b.recs, rec{player: int32(player), off: off, length: int32(len(b.payload)) - off, bits: bits})
	b.bits += bits
}

// WriteBit appends a single-bit entry.
func (b *Blackboard) WriteBit(player int, bit bool) error {
	var payload byte
	if bit {
		payload = 1
	}
	return b.Write(player, []byte{payload}, 1)
}

// WriteVector appends a full bit string, charged at its exact length: the
// entry Write would book for its ⌈k/8⌉ bytes (bit i at bit i%8 of byte
// i/8), which it appends to the payload buffer a word at a time.
func (b *Blackboard) WriteVector(player int, v *bitvec.Vector) error {
	k := int64(v.Len())
	if k <= 0 {
		return fmt.Errorf("cc: write of %d bits", k)
	}
	off := b.payloadEnd()
	b.payload = bitvec.AppendBytes(b.payload, v)
	b.book(player, off, k)
	return nil
}

// Bits returns the total number of bits written so far — the |π_Q(x̄)| of
// Definition 1 for the run in progress.
func (b *Blackboard) Bits() int64 { return b.bits }

// Entries returns the transcript in the public Entry form. Each Data
// aliases the payload buffer, which stays valid because the buffer is
// append-only until Reset, which drops (rather than reuses) it.
func (b *Blackboard) Entries() []Entry {
	out := make([]Entry, len(b.recs))
	for i, r := range b.recs {
		out[i] = Entry{
			Player: int(r.player),
			Data:   b.payload[r.off : r.off+r.length : r.off+r.length],
			Bits:   r.bits,
		}
	}
	return out
}

// Len returns the number of entries written.
func (b *Blackboard) Len() int { return len(b.recs) }

// Reset clears the blackboard for reuse, remembering the transcript's size
// as a high-water mark that pre-sizes the next use.
func (b *Blackboard) Reset() {
	if len(b.payload) > b.hwPayload {
		b.hwPayload = len(b.payload)
	}
	b.recs = b.recs[:0]
	b.bits = 0
	// Drop (don't truncate) the payload buffer: transcript views handed
	// out by Entries alias it and must survive the reuse.
	b.payload = nil
}

// PayloadBytes returns the current payload buffer length — the transcript
// volume in bytes (bits are charged separately and may be fewer).
func (b *Blackboard) PayloadBytes() int { return len(b.payload) }

// ReadVector decodes entry index idx back into a bit vector of length k,
// a word at a time; the bits of its last byte past k are dropped.
// Protocol implementations use it to model players reading the blackboard.
func (b *Blackboard) ReadVector(idx, k int) (*bitvec.Vector, error) {
	if idx < 0 || idx >= len(b.recs) {
		return nil, fmt.Errorf("cc: entry %d out of range [0,%d)", idx, len(b.recs))
	}
	r := b.recs[idx]
	if r.bits != int64(k) {
		return nil, fmt.Errorf("cc: entry %d holds %d bits, want %d", idx, r.bits, k)
	}
	return bitvec.FromBytes(b.payload[r.off:r.off+r.length], k), nil
}

// Protocol computes the promise pairwise disjointness function over a
// shared blackboard. Run must return TRUE when the inputs are pairwise
// disjoint and FALSE when uniquely intersecting; behaviour outside the
// promise is unconstrained, mirroring Definition 2.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Run executes the protocol, writing all communication to bb.
	Run(in bitvec.Inputs, bb *Blackboard) (bool, error)
}

// WriteAll is the baseline protocol: every player writes its entire input
// string; the function value is then computed from the transcript alone.
// Cost: exactly t·k bits. It makes the trivial upper bound of the
// communication-complexity sandwich concrete.
type WriteAll struct{}

var _ Protocol = WriteAll{}

// Name implements Protocol.
func (WriteAll) Name() string { return "write-all" }

// Run implements Protocol.
func (WriteAll) Run(in bitvec.Inputs, bb *Blackboard) (bool, error) {
	if err := in.Validate(); err != nil {
		return false, err
	}
	k := in.Len()
	start := bb.Len()
	for i, v := range in {
		if err := bb.WriteVector(i, v); err != nil {
			return false, err
		}
	}
	// Every player can now evaluate f from the blackboard; do it from the
	// transcript to honour the model (no hidden state).
	read := make(bitvec.Inputs, len(in))
	for i := range in {
		v, err := bb.ReadVector(start+i, k)
		if err != nil {
			return false, err
		}
		read[i] = v
	}
	return read.PairwiseDisjoint(), nil
}

// FirstPlayerProbe is the promise-exploiting protocol: player 1 writes x^1
// (k bits); player 2 writes one bit — whether x^1 ∩ x^2 ≠ ∅. Under the
// promise this single probe decides the function: a unique intersection
// index lies in every pairwise intersection, and pairwise disjointness
// empties all of them. Cost: exactly k+1 bits, demonstrating the Θ(k)
// upper bound against the Ω(k/(t log t)) lower bound.
type FirstPlayerProbe struct{}

var _ Protocol = FirstPlayerProbe{}

// Name implements Protocol.
func (FirstPlayerProbe) Name() string { return "first-player-probe" }

// Run implements Protocol.
func (FirstPlayerProbe) Run(in bitvec.Inputs, bb *Blackboard) (bool, error) {
	if err := in.Validate(); err != nil {
		return false, err
	}
	if in.Players() < 2 {
		return false, fmt.Errorf("cc: first-player-probe needs t >= 2, got %d", in.Players())
	}
	k := in.Len()
	start := bb.Len()
	if err := bb.WriteVector(0, in[0]); err != nil {
		return false, err
	}
	// Player 2 reads x^1 off the blackboard and probes its own string.
	x1, err := bb.ReadVector(start, k)
	if err != nil {
		return false, err
	}
	hit := !x1.Disjoint(in[1])
	if err := bb.WriteBit(1, hit); err != nil {
		return false, err
	}
	return !hit, nil
}

// AllPlayersProbe is the genuinely multi-party version of the probe:
// player 1 writes x^1 (k bits) and every other player writes one bit —
// whether its own string intersects x^1. Under the promise, all probe bits
// agree: a unique intersection index lies in every pairwise intersection,
// and pairwise disjointness empties all of them. The value is TRUE
// (pairwise disjoint) iff no player reports a hit. Cost: exactly k+t−1
// bits.
type AllPlayersProbe struct{}

var _ Protocol = AllPlayersProbe{}

// Name implements Protocol.
func (AllPlayersProbe) Name() string { return "all-players-probe" }

// Run implements Protocol.
func (AllPlayersProbe) Run(in bitvec.Inputs, bb *Blackboard) (bool, error) {
	if err := in.Validate(); err != nil {
		return false, err
	}
	if in.Players() < 2 {
		return false, fmt.Errorf("cc: all-players-probe needs t >= 2, got %d", in.Players())
	}
	k := in.Len()
	start := bb.Len()
	if err := bb.WriteVector(0, in[0]); err != nil {
		return false, err
	}
	x1, err := bb.ReadVector(start, k)
	if err != nil {
		return false, err
	}
	anyHit := false
	for i := 1; i < in.Players(); i++ {
		hit := !x1.Disjoint(in[i])
		if err := bb.WriteBit(i, hit); err != nil {
			return false, err
		}
		if hit {
			anyHit = true
		}
	}
	return !anyHit, nil
}

// TruncatedProbe is a deliberately under-communicating protocol used to
// probe the lower bound empirically: player 1 writes only the first
// PrefixBits bits of x^1, and player 2 reports whether the prefixes
// intersect. On pairwise-disjoint inputs it is always correct; on
// uniquely-intersecting inputs it errs whenever the common index lies
// beyond the prefix. Shrinking the prefix below Θ(k) therefore drives the
// error above any constant — the behaviour Theorem 3 mandates for every
// protocol that communicates o(k/(t log t)) bits.
type TruncatedProbe struct {
	// PrefixBits is the number of bits of x^1 announced; clamped to
	// [1, k].
	PrefixBits int
}

var _ Protocol = TruncatedProbe{}

// Name implements Protocol.
func (p TruncatedProbe) Name() string {
	return fmt.Sprintf("truncated-probe(%d)", p.PrefixBits)
}

// Run implements Protocol.
func (p TruncatedProbe) Run(in bitvec.Inputs, bb *Blackboard) (bool, error) {
	if err := in.Validate(); err != nil {
		return false, err
	}
	if in.Players() < 2 {
		return false, fmt.Errorf("cc: truncated-probe needs t >= 2, got %d", in.Players())
	}
	k := in.Len()
	prefix := p.PrefixBits
	if prefix < 1 {
		prefix = 1
	}
	if prefix > k {
		prefix = k
	}
	start := bb.Len()
	if err := bb.WriteVector(0, bitvec.Prefix(in[0], prefix)); err != nil {
		return false, err
	}
	seen, err := bb.ReadVector(start, prefix)
	if err != nil {
		return false, err
	}
	hit := !seen.Disjoint(bitvec.Prefix(in[1], prefix))
	if err := bb.WriteBit(1, hit); err != nil {
		return false, err
	}
	return !hit, nil
}

// LowerBoundBits returns the Chakrabarti-Khot-Sun communication lower bound
// k/(t·log₂t) for promise pairwise disjointness with t players on length-k
// strings (Theorem 3; stated up to a constant factor, reported here with
// constant 1). For t = 2 the log factor is 1 and the bound reads k/2,
// consistent with the classical Ω(k) two-party set-disjointness bound.
func LowerBoundBits(k, t int) float64 {
	if k < 1 || t < 2 {
		return 0
	}
	logT := math.Log2(float64(t))
	if logT < 1 {
		logT = 1
	}
	return float64(k) / (float64(t) * logT)
}

// RunReport is the outcome of auditing one protocol over many instances.
type RunReport struct {
	Protocol string
	// Trials is the number of instances evaluated.
	Trials int
	// Wrong counts trials where the protocol returned the wrong value.
	Wrong int
	// MaxBits is the worst-case transcript length observed — the
	// protocol's empirical Cost(Q).
	MaxBits int64
	// TotalBits accumulates transcript lengths for averaging.
	TotalBits int64
}

// AvgBits returns the mean transcript length across trials.
func (r RunReport) AvgBits() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.TotalBits) / float64(r.Trials)
}

// Audit runs the protocol on each provided instance with its ground-truth
// function value and accumulates correctness and cost statistics.
func Audit(p Protocol, instances []bitvec.Inputs, truths []bool) (RunReport, error) {
	if len(instances) != len(truths) {
		return RunReport{}, fmt.Errorf("cc: %d instances but %d truths", len(instances), len(truths))
	}
	report := RunReport{Protocol: p.Name()}
	var bb Blackboard
	for i, in := range instances {
		bb.Reset()
		got, err := p.Run(in, &bb)
		if err != nil {
			return RunReport{}, fmt.Errorf("cc: %s on instance %d: %w", p.Name(), i, err)
		}
		report.Trials++
		if got != truths[i] {
			report.Wrong++
		}
		if bb.Bits() > report.MaxBits {
			report.MaxBits = bb.Bits()
		}
		report.TotalBits += bb.Bits()
	}
	return report, nil
}
