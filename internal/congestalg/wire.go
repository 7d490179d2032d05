// Package congestalg implements CONGEST algorithms for (approximate)
// maximum independent set, written against the internal/congest simulator:
//
//   - Luby: the classical randomised maximal-independent-set algorithm
//     (local maximum of fresh random draws), O(log n) phases w.h.p.
//   - RankGreedy: the deterministic weighted variant — a node joins when
//     its (weight, ID) rank is a local maximum among undecided neighbours;
//     it computes the sequential greedy-by-weight MIS distributively.
//   - GossipExact: every node learns the entire graph by pipelined gossip
//     (one record per edge per round) and solves MaxIS locally — the
//     universal "any problem is solvable in O(n²) rounds" upper bound the
//     paper cites to frame its near-quadratic lower bound.
//
// These are the concrete algorithms that the reduction framework
// (internal/core) feeds through Theorem 5's simulation argument, and the
// baselines for the upper-bound experiments.
package congestalg

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Wire formats are deliberately compact so every message fits in the
// simulator's default Θ(log n) bandwidth: node IDs use 2 bytes (n < 65536)
// and weights 4 bytes.

const (
	wireStatus byte = iota + 1 // state byte + value
	wireNode                   // node record: id, weight, degree
	wireEdge                   // edge record: u, v
)

// node states shared by Luby and RankGreedy.
const (
	stateUndecided byte = iota + 1
	stateIn
	stateOut
)

// statusLen is the wire size of a status message.
const statusLen = 6

// appendStatus packs (state, value32) into 6 bytes appended to dst. It is
// the allocation-free form used by the hot paths: programs feed it a
// per-program scratch buffer truncated to length 0.
func appendStatus(dst []byte, state byte, value uint32) []byte {
	return append(dst, wireStatus, state,
		byte(value>>24), byte(value>>16), byte(value>>8), byte(value))
}

// encodeStatus is appendStatus into a fresh buffer.
func encodeStatus(state byte, value uint32) []byte {
	return appendStatus(make([]byte, 0, statusLen), state, value)
}

// decodeStatus unpacks a status message.
func decodeStatus(data []byte) (state byte, value uint32, err error) {
	if len(data) != 6 || data[0] != wireStatus {
		return 0, 0, fmt.Errorf("congestalg: malformed status message % x", data)
	}
	return data[1], binary.BigEndian.Uint32(data[2:]), nil
}

// nodeRecord is a gossiped "I exist" record.
type nodeRecord struct {
	id     int
	weight int64
	degree int
}

// fits reports the first field of r that its wire record cannot carry:
// the ID and the degree get 16 bits, the weight 32 (unsigned). A node whose
// own record does not fit would send a truncated one, and every node
// would solve the wrong graph.
func (r nodeRecord) fits() error {
	switch {
	case r.id < 0 || r.id > math.MaxUint16:
		return fmt.Errorf("congestalg: node ID %d does not fit the 16-bit wire field", r.id)
	case r.weight < 0 || r.weight > math.MaxUint32:
		return fmt.Errorf("congestalg: weight %d of node %d does not fit the 32-bit wire field", r.weight, r.id)
	case r.degree > math.MaxUint16:
		return fmt.Errorf("congestalg: degree %d of node %d does not fit the 16-bit wire field", r.degree, r.id)
	}
	return nil
}

// edgeRecord is a gossiped edge, u < v.
type edgeRecord struct {
	u, v int
}

// Wire sizes of the two record types.
const (
	nodeRecordLen = 9
	edgeRecordLen = 5
)

// appendNodeRecord packs a node record into 9 bytes appended to dst.
func appendNodeRecord(dst []byte, r nodeRecord) []byte {
	return append(dst, wireNode,
		byte(r.id>>8), byte(r.id),
		byte(r.weight>>24), byte(r.weight>>16), byte(r.weight>>8), byte(r.weight),
		byte(r.degree>>8), byte(r.degree))
}

// encodeNodeRecord is appendNodeRecord into a fresh buffer.
func encodeNodeRecord(r nodeRecord) []byte {
	return appendNodeRecord(make([]byte, 0, nodeRecordLen), r)
}

// appendEdgeRecord packs an edge record into 5 bytes appended to dst.
func appendEdgeRecord(dst []byte, r edgeRecord) []byte {
	return append(dst, wireEdge,
		byte(r.u>>8), byte(r.u),
		byte(r.v>>8), byte(r.v))
}

// encodeEdgeRecord is appendEdgeRecord into a fresh buffer.
func encodeEdgeRecord(r edgeRecord) []byte {
	return appendEdgeRecord(make([]byte, 0, edgeRecordLen), r)
}

// decodeNodeRecord unpacks data if it is a node record. It is small
// enough to inline.
func decodeNodeRecord(data []byte) (nodeRecord, bool) {
	if len(data) != nodeRecordLen || data[0] != wireNode {
		return nodeRecord{}, false
	}
	return nodeRecord{
		id:     int(binary.BigEndian.Uint16(data[1:])),
		weight: int64(binary.BigEndian.Uint32(data[3:])),
		degree: int(binary.BigEndian.Uint16(data[7:])),
	}, true
}

// decodeEdgeRecord unpacks data if it is an edge record. It is small
// enough to inline, so GossipExact.Receive decodes edge records, the bulk
// of its traffic, without a call. The endpoints are as sent: neither
// their order nor their range is checked.
func decodeEdgeRecord(data []byte) (edgeRecord, bool) {
	if len(data) != edgeRecordLen || data[0] != wireEdge {
		return edgeRecord{}, false
	}
	return edgeRecord{
		u: int(binary.BigEndian.Uint16(data[1:])),
		v: int(binary.BigEndian.Uint16(data[3:])),
	}, true
}

// decodeRecord unpacks either record type by value (no heap traffic); kind
// is wireNode or wireEdge and selects which return value is meaningful.
func decodeRecord(data []byte) (nr nodeRecord, er edgeRecord, kind byte, err error) {
	if len(data) == 0 {
		return nr, er, 0, fmt.Errorf("congestalg: empty record")
	}
	var ok bool
	switch kind = data[0]; kind {
	case wireNode:
		if nr, ok = decodeNodeRecord(data); !ok {
			return nr, er, 0, fmt.Errorf("congestalg: malformed node record % x", data)
		}
	case wireEdge:
		if er, ok = decodeEdgeRecord(data); !ok {
			return nr, er, 0, fmt.Errorf("congestalg: malformed edge record % x", data)
		}
	default:
		return nr, er, 0, fmt.Errorf("congestalg: unknown record type %d", data[0])
	}
	return nr, er, kind, nil
}

// recArena retains small payloads beyond the Receive call that lends them:
// retain copies data into a chunk owned by the program and returns a
// stable slice. Chunks are never
// reallocated in place, so previously returned slices stay valid.
type recArena struct {
	chunk []byte
}

const recArenaChunk = 4096

func (a *recArena) retain(data []byte) []byte {
	if len(a.chunk)+len(data) > cap(a.chunk) {
		size := recArenaChunk
		if len(data) > size {
			size = len(data)
		}
		a.chunk = make([]byte, 0, size)
	}
	off := len(a.chunk)
	a.chunk = append(a.chunk, data...)
	return a.chunk[off:len(a.chunk):len(a.chunk)]
}
