package congestalg

import (
	"fmt"
	"math"
	"sort"

	"congestlb/internal/congest"
	"congestlb/internal/graphs"
)

// neighborIndex returns the position of v in the sorted neighbour list, or
// -1 when v is not a neighbour. Programs use it to keep per-neighbour state
// in flat slices instead of maps.
func neighborIndex(neighbors []graphs.NodeID, v graphs.NodeID) int {
	i := sort.SearchInts(neighbors, v)
	if i < len(neighbors) && neighbors[i] == v {
		return i
	}
	return -1
}

// Luby is the randomised maximal-independent-set program. Phases take two
// rounds: in draw rounds every undecided node broadcasts a fresh random
// value; in decide rounds a node whose (value, ID) is a strict local
// maximum among undecided neighbours joins the set, and nodes adjacent to a
// joiner drop out at the start of the next draw round.
//
// Ties are impossible because the comparison key includes the node ID, so
// every undecided neighbourhood makes progress and the program terminates
// in at most n phases (O(log n) in expectation).
//
// Output: bool — membership in the constructed maximal independent set.
type Luby struct {
	info  congest.NodeInfo
	state byte
	value uint32
	// neighborState/neighborValue mirror the latest broadcast of each
	// neighbour, indexed by position in info.Neighbors.
	neighborState []byte
	neighborValue []uint32
	// sendBuf is the scratch buffer the broadcast payload is encoded
	// into, reused across rounds: only Send writes it, so it stays
	// unchanged while its round is delivered.
	sendBuf []byte
}

var _ congest.PushProgram = (*Luby)(nil)

// NewLubyPrograms returns one Luby program per node of an n-node network.
func NewLubyPrograms(n int) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, n)
	for i := range programs {
		programs[i] = &Luby{}
	}
	return programs
}

// Init implements congest.NodeProgram.
func (l *Luby) Init(info congest.NodeInfo) {
	l.info = info
	l.state = stateUndecided
	l.neighborState = make([]byte, len(info.Neighbors))
	l.neighborValue = make([]uint32, len(info.Neighbors))
	l.sendBuf = make([]byte, 0, statusLen)
	for i := range l.neighborState {
		l.neighborState[i] = stateUndecided
	}
	// Isolated nodes join immediately.
	if len(info.Neighbors) == 0 {
		l.state = stateIn
	}
}

// Round implements congest.NodeProgram.
func (l *Luby) Round(round int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		l.Receive(round-1, m)
	}
	return l.Send(round, nil)
}

// Receive implements congest.PushProgram: it records the sender's latest
// broadcast.
func (l *Luby) Receive(_ int, m congest.Message) {
	state, value, err := decodeStatus(m.Data)
	if err != nil {
		// A malformed message indicates a simulator bug; halting the
		// node surfaces it as missing progress in tests.
		l.state = stateOut
		return
	}
	if i := neighborIndex(l.info.Neighbors, m.From); i >= 0 {
		l.neighborState[i] = state
		l.neighborValue[i] = value
	}
}

// Send implements congest.PushProgram.
func (l *Luby) Send(round int, out []congest.Message) []congest.Message {
	if round%2 == 1 { // draw round
		// React to joins announced in the previous decide round.
		if l.state == stateUndecided {
			for _, st := range l.neighborState {
				if st == stateIn {
					l.state = stateOut
					break
				}
			}
		}
		if l.state == stateUndecided {
			l.value = uint32(l.info.Rand.Int31())
		}
	} else { // decide round
		if l.state == stateUndecided && l.localMax() {
			l.state = stateIn
		}
	}
	l.sendBuf = appendStatus(l.sendBuf[:0], l.state, l.value)
	for _, v := range l.info.Neighbors {
		out = append(out, congest.Message{From: l.info.ID, To: v, Data: l.sendBuf})
	}
	return out
}

// localMax reports whether (value, ID) strictly dominates every undecided
// neighbour's latest draw.
func (l *Luby) localMax() bool {
	for i, st := range l.neighborState {
		if st != stateUndecided {
			continue
		}
		nv := l.neighborValue[i]
		if nv > l.value || (nv == l.value && l.info.Neighbors[i] > l.info.ID) {
			return false
		}
	}
	return true
}

// Done implements congest.NodeProgram: a node halts once it is decided and
// knows all neighbours are decided too.
func (l *Luby) Done() bool {
	if l.state == stateUndecided {
		return false
	}
	for _, st := range l.neighborState {
		if st == stateUndecided {
			return false
		}
	}
	return true
}

// Output implements congest.NodeProgram.
func (l *Luby) Output() any { return l.state == stateIn }

// RankGreedy is the deterministic weighted MIS program: the rank of a node
// is the static pair (weight, ID), and an undecided node joins when it
// dominates all undecided neighbours. It emulates the sequential greedy
// algorithm that scans nodes in decreasing weight order.
//
// The rank travels in the 32-bit value of a status message. A node whose
// weight does not fit it declares itself out at Init, so the run still
// terminates, and outputs an error naming the weight.
//
// Output: bool — membership in the constructed maximal independent set —
// or the error of a node whose weight does not fit the status field.
type RankGreedy struct {
	info  congest.NodeInfo
	state byte
	err   error
	// rank is the node's weight; Init checks that it fits 32 bits.
	rank          uint32
	neighborState []byte
	neighborRank  []uint32
	heard         []bool
	heardCount    int
	sendBuf       []byte
}

var _ congest.PushProgram = (*RankGreedy)(nil)

// NewRankGreedyPrograms returns one RankGreedy program per node.
func NewRankGreedyPrograms(n int) []congest.NodeProgram {
	programs := make([]congest.NodeProgram, n)
	for i := range programs {
		programs[i] = &RankGreedy{}
	}
	return programs
}

// Init implements congest.NodeProgram.
func (r *RankGreedy) Init(info congest.NodeInfo) {
	r.info = info
	r.state = stateUndecided
	r.err = nil
	if info.Weight < 0 || info.Weight > math.MaxUint32 {
		r.err = fmt.Errorf("congestalg: weight %d of node %d does not fit the 32-bit status field", info.Weight, info.ID)
	}
	r.rank = uint32(info.Weight)
	r.neighborState = make([]byte, len(info.Neighbors))
	r.neighborRank = make([]uint32, len(info.Neighbors))
	r.heard = make([]bool, len(info.Neighbors))
	r.heardCount = 0
	r.sendBuf = make([]byte, 0, statusLen)
	for i := range r.neighborState {
		r.neighborState[i] = stateUndecided
	}
	switch {
	case r.err != nil:
		r.state = stateOut
	case len(info.Neighbors) == 0:
		r.state = stateIn
	}
}

// Round implements congest.NodeProgram.
func (r *RankGreedy) Round(round int, inbox []congest.Message) []congest.Message {
	for _, m := range inbox {
		r.Receive(round-1, m)
	}
	return r.Send(round, nil)
}

// Receive implements congest.PushProgram: it records the sender's latest
// status and rank.
func (r *RankGreedy) Receive(_ int, m congest.Message) {
	state, rank, err := decodeStatus(m.Data)
	if err != nil {
		r.state = stateOut
		return
	}
	if i := neighborIndex(r.info.Neighbors, m.From); i >= 0 {
		r.neighborState[i] = state
		r.neighborRank[i] = rank
		if !r.heard[i] {
			r.heard[i] = true
			r.heardCount++
		}
	}
}

// Send implements congest.PushProgram.
func (r *RankGreedy) Send(round int, out []congest.Message) []congest.Message {
	// Round 1 only announces ranks; decisions start once every neighbour's
	// rank is known (round ≥ 2).
	if round >= 2 && r.state == stateUndecided {
		for _, st := range r.neighborState {
			if st == stateIn {
				r.state = stateOut
				break
			}
		}
	}
	if round >= 2 && r.state == stateUndecided && r.heardCount == len(r.info.Neighbors) && r.localMax() {
		r.state = stateIn
	}

	r.sendBuf = appendStatus(r.sendBuf[:0], r.state, r.rank)
	for _, v := range r.info.Neighbors {
		out = append(out, congest.Message{From: r.info.ID, To: v, Data: r.sendBuf})
	}
	return out
}

func (r *RankGreedy) localMax() bool {
	for i, st := range r.neighborState {
		if st != stateUndecided {
			continue
		}
		nr := r.neighborRank[i]
		if nr > r.rank || (nr == r.rank && r.info.Neighbors[i] > r.info.ID) {
			return false
		}
	}
	return true
}

// Done implements congest.NodeProgram.
func (r *RankGreedy) Done() bool {
	if r.state == stateUndecided {
		return false
	}
	for _, st := range r.neighborState {
		if st == stateUndecided {
			return false
		}
	}
	return true
}

// Output implements congest.NodeProgram.
func (r *RankGreedy) Output() any {
	if r.err != nil {
		return r.err
	}
	return r.state == stateIn
}

// OutputError returns the first error a node output, in node order, or nil.
// MembershipSet skips error outputs, so callers that must not mistake a
// failed node for a non-member check this first.
func OutputError(result congest.Result) error {
	for u, out := range result.Outputs {
		if err, ok := out.(error); ok {
			return fmt.Errorf("congestalg: node %d failed: %w", u, err)
		}
	}
	return nil
}

// MembershipSet extracts the independent set from a run of Luby or
// RankGreedy programs: the IDs of all nodes whose output is true.
func MembershipSet(result congest.Result) []graphs.NodeID {
	var set []graphs.NodeID
	for u, out := range result.Outputs {
		if member, ok := out.(bool); ok && member {
			set = append(set, u)
		}
	}
	return set
}
