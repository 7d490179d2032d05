package serve

import (
	"errors"
	"fmt"
	"math"

	"congestlb"
)

// memBudget bounds the memory one request may ask for. The figure is
// computed from the request's size parameters before anything of that
// size is allocated, so a small body cannot make the daemon attempt a
// huge allocation.
const memBudget = 256 << 20

// errTooLarge marks a request whose computed memory exceeds memBudget;
// writeRequestError answers it with 413.
var errTooLarge = errors.New("over the memory budget")

// satAdd and satMul add and multiply non-negative int64s, saturating at
// math.MaxInt64, so a cost computed from hostile parameters cannot wrap
// around below the budget.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// rowBytes is the size of one n-node adjacency bitset row.
func rowBytes(n int64) int64 {
	words := n / 64
	if n%64 != 0 {
		words++
	}
	return words * 8
}

// solveBytes is the memory an exact solve of an n-node graph asks for,
// computed from n alone: the graph's n adjacency rows, the solver's
// rank-space copy of them, and its n+1 per-depth candidate rows —
// (3n+1)·⌈n/64⌉·8 bytes.
func solveBytes(n int64) int64 {
	return satMul(satAdd(satMul(3, n), 1), rowBytes(n))
}

// checkSolveBytes rejects an n-node solve over budget (memBudget in
// production) with errTooLarge.
func checkSolveBytes(n, budget int64) error {
	if b := solveBytes(n); b > budget {
		return fmt.Errorf("graph: n=%d needs %d bytes, %w of %d bytes", n, b, errTooLarge, budget)
	}
	return nil
}

// reduceNodes is the node count of the named family at p, computed from
// the parameters alone (p must be valid): t·(k + M·q) for linear, twice
// that for quadratic, and t·(k·ℓ + M·q) for the unweighted blow-up,
// whose A-nodes weigh at most ℓ. The product saturates.
func reduceNodes(name string, p congestlb.Params) int64 {
	k, m, q := int64(p.K()), int64(p.M()), int64(p.Q())
	perCopy := k + m*q
	switch name {
	case "quadratic":
		return satMul(2, satMul(int64(p.T), perCopy))
	case "unweighted", "unweighted_linear":
		return satMul(int64(p.T), k*int64(p.Ell)+m*q)
	default:
		return satMul(int64(p.T), perCopy)
	}
}

// reduceBytes is the memory a reduction over n nodes asks for: every
// node's GossipExact rebuild of the n-node graph, the exact solve of the
// instance, and the family's k·M codeword table.
func reduceBytes(n int64, p congestlb.Params) int64 {
	rebuilt := satMul(n, satMul(n, rowBytes(n)))
	table := int64(p.K()) * int64(p.M()) * 8
	return satAdd(satAdd(rebuilt, solveBytes(n)), table)
}

// checkReduceBytes rejects a reduction over budget (memBudget in
// production) with errTooLarge. p must be valid.
func checkReduceBytes(name string, p congestlb.Params, budget int64) error {
	n := reduceNodes(name, p)
	if b := reduceBytes(n, p); b > budget {
		return fmt.Errorf("reduce: %s at %v has n=%d nodes and needs %d bytes, %w of %d bytes",
			name, p, n, b, errTooLarge, budget)
	}
	return nil
}
