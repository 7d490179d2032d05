package serve

import (
	"bytes"
	"math"
	"sync"

	"congestlb"
	"congestlb/internal/graphs"
)

// bodyPool recycles the buffers POST /v1/solve reads bodies into, so a
// steady stream of requests is read without regrowing a buffer each
// time. Buffers that grew past maxPooledBody are dropped, not pooled.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// scanner is a cursor over a request body.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips JSON whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes an object key and its colon, returning the key's bytes.
// Keys with escapes are refused.
func (s *scanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			k := s.b[start:s.i]
			s.i++
			return k, s.eat(':')
		case '\\':
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// int consumes an integer matching -?(0|[1-9][0-9]*), other than -0,
// with a value in [lo, hi]. A fraction or exponent is left unconsumed,
// so the caller's next structural check fails on it.
func (s *scanner) int(lo, hi int64) (int64, bool) {
	neg := s.eat('-')
	start := s.i
	var mag uint64
	for s.i < len(s.b) {
		d := s.b[s.i] - '0'
		if d > 9 {
			break
		}
		if mag > (1<<63)/10 {
			return 0, false
		}
		mag = mag*10 + uint64(d)
		s.i++
	}
	if digits := s.i - start; digits == 0 || digits > 1 && s.b[start] == '0' {
		return 0, false
	}
	var v int64
	switch {
	case neg && mag != 0 && mag <= 1<<63:
		v = -int64(mag) // wraps to math.MinInt64 for mag = 1<<63, as it should
	case !neg && mag <= math.MaxInt64:
		v = int64(mag)
	default:
		return 0, false
	}
	return v, lo <= v && v <= hi
}

// bool consumes true or false.
func (s *scanner) bool() (bool, bool) {
	switch {
	case s.eat('t'):
		if bytes.HasPrefix(s.b[s.i:], []byte("rue")) {
			s.i += 3
			return true, true
		}
	case s.eat('f'):
		if bytes.HasPrefix(s.b[s.i:], []byte("alse")) {
			s.i += 4
			return false, true
		}
	}
	return false, false
}

// Top-level keys of the canonical solve body, as bits of a seen-set.
const (
	keyDeadline = 1 << iota
	keyAsync
	keyGraph
	keyMaxSteps
)

// scanSolve decodes a POST /v1/solve body in one pass, building the
// graph as it reads. It accepts only the canonical shape that
// json.Marshal(SolveRequest) and the docs' examples produce:
//
//   - top-level keys deadline_ms, async, graph and max_steps, in any
//     order, each at most once and graph required;
//   - graph keys n, then an optional weights, then edges;
//   - keys spelled exactly and without escapes; integers matching
//     -?(0|[1-9][0-9]*) that fit their type; booleans true or false;
//     edges of exactly two integers; nothing after the closing brace.
//
// It also declines any body whose graph fails GraphSpec.graph's checks,
// including a graph over budget, which it refuses before allocating
// anything of the graph's size. On false the caller falls back to the
// strict encoding/json decode and GraphSpec.graph: that path decides
// every body the scanner declines and words every error, so the accepted
// bodies, the decoded requests and the status codes are the same on both
// paths.
func scanSolve(body []byte, budget int64) (SolveRequest, *congestlb.Graph, bool) {
	s := scanner{b: body}
	var req SolveRequest
	var g *congestlb.Graph
	if !s.eat('{') {
		return req, nil, false
	}
	seen := 0
	for {
		k, ok := s.key()
		if !ok {
			return req, nil, false
		}
		var bit int
		switch string(k) {
		case "deadline_ms":
			bit = keyDeadline
		case "async":
			bit = keyAsync
		case "graph":
			bit = keyGraph
		case "max_steps":
			bit = keyMaxSteps
		}
		if bit == 0 || seen&bit != 0 {
			return req, nil, false
		}
		seen |= bit
		switch bit {
		case keyDeadline:
			req.DeadlineMS, ok = s.int(math.MinInt64, math.MaxInt64)
		case keyAsync:
			req.Async, ok = s.bool()
		case keyGraph:
			g, ok = s.graph(budget)
		case keyMaxSteps:
			req.MaxSteps, ok = s.int(math.MinInt64, math.MaxInt64)
		}
		if !ok {
			return req, nil, false
		}
		if s.eat(',') {
			continue
		}
		if !s.eat('}') {
			return req, nil, false
		}
		break
	}
	s.ws()
	return req, g, g != nil && s.i == len(s.b)
}

// graph consumes the graph object and builds it, with GraphSpec.graph's
// checks: n positive and within budget, exactly n non-negative
// weights when present, and every edge accepted by AddEdge.
func (s *scanner) graph(budget int64) (*congestlb.Graph, bool) {
	if !s.eat('{') {
		return nil, false
	}
	if k, ok := s.key(); !ok || string(k) != "n" {
		return nil, false
	}
	n, ok := s.int(1, math.MaxInt)
	if !ok || checkSolveBytes(n, budget) != nil || !s.eat(',') {
		return nil, false
	}
	k, ok := s.key()
	if !ok {
		return nil, false
	}
	g := graphs.NewWithN(int(n))
	if string(k) == "weights" {
		if !s.eat('[') {
			return nil, false
		}
		for v := int64(0); v < n; v++ {
			if v > 0 && !s.eat(',') {
				return nil, false
			}
			w, ok := s.int(0, math.MaxInt64)
			if !ok {
				return nil, false
			}
			g.AddNodeID(w)
		}
		if !s.eat(']') || !s.eat(',') {
			return nil, false
		}
		if k, ok = s.key(); !ok {
			return nil, false
		}
	} else {
		for v := int64(0); v < n; v++ {
			g.AddNodeID(1)
		}
	}
	if string(k) != "edges" || !s.eat('[') {
		return nil, false
	}
	if !s.eat(']') {
		for {
			if !s.eat('[') {
				return nil, false
			}
			u, ok := s.int(0, n-1)
			if !ok || !s.eat(',') {
				return nil, false
			}
			v, ok := s.int(0, n-1)
			if !ok || !s.eat(']') || g.AddEdge(int(u), int(v)) != nil {
				return nil, false
			}
			if s.eat(']') {
				break
			}
			if !s.eat(',') {
				return nil, false
			}
		}
	}
	return g, s.eat('}')
}
