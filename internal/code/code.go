// Package code implements the code-mappings of Definition 3 in Efron,
// Grossman and Khoury (PODC 2020) and the large-distance codes whose
// existence Theorem 4 asserts (Lemma 19.11 in Arora-Barak).
//
// A code-mapping with parameters (L, M, d, Σ) is a function C: Σ^L → Σ^M
// such that distinct inputs map to codewords at Hamming distance at least d.
// The paper instantiates L = α, M = ℓ+α, d = ℓ and |Σ| = ℓ+α via
// Reed-Solomon codes; this package provides that instantiation over GF(q)
// for the smallest prime q ≥ M (see DESIGN.md for why the small alphabet
// relaxation preserves every property the constructions need), plus trivial
// reference codes used in tests.
//
// Symbols are represented as integers in [1, q] — matching the paper's
// Σ = {1, ..., ℓ+α} convention, where the symbol at position h of a codeword
// names one node of the code-gadget clique C_h.
package code

import (
	"errors"
	"fmt"

	"congestlb/internal/field"
)

// Code is a code-mapping per Definition 3. Messages are indexed 0-based:
// message m ∈ [0, NumMessages()) corresponds to the paper's m'th element of
// Σ^α under a fixed ordering.
type Code interface {
	// Params returns the code parameters: message length L, codeword
	// length M, guaranteed minimum distance d, and alphabet size q.
	Params() (l, m, d, q int)
	// NumMessages returns how many distinct messages the code accepts;
	// Encode accepts m in [0, NumMessages()).
	NumMessages() int
	// Encode returns the codeword of message index m as a length-M slice
	// of symbols in [1, q]. The returned slice is freshly allocated.
	Encode(m int) ([]int, error)
}

// Distance returns the Hamming distance between two equal-length words.
// It panics if the lengths differ, which is a programming error.
func Distance(x, y []int) int {
	if len(x) != len(y) {
		panic(fmt.Sprintf("code: distance of words with lengths %d and %d", len(x), len(y)))
	}
	d := 0
	for i := range x {
		if x[i] != y[i] {
			d++
		}
	}
	return d
}

// ErrMessageRange is returned when Encode is called with an out-of-range
// message index.
var ErrMessageRange = errors.New("code: message index out of range")

// ReedSolomon is the code-mapping of Theorem 4: messages of length L over
// GF(q) are interpreted as coefficient vectors of polynomials of degree < L,
// evaluated at M distinct points of GF(q). Distinct messages yield
// polynomials differing in a polynomial of degree < L, which has at most
// L-1 roots, so the distance is at least M-L+1 ≥ M-L = d.
//
// Every codeword is additionally offset by the fixed polynomial g(x) = x^L.
// Adding a fixed polynomial to all codewords preserves pairwise distances,
// and makes the small presets reproduce the paper's figures exactly: with
// L=1, M=3, q=3 the codeword of message 1 is "2,3,1", matching Figure 1's
// C(1) = "2,3,1".
type ReedSolomon struct {
	f           field.Field
	l, m        int
	points      []uint64 // the M evaluation points, x_h = h mod q for h = 1..M
	numMessages int
}

var _ Code = (*ReedSolomon)(nil)

// NewReedSolomon constructs a Reed-Solomon code-mapping with message length
// l over GF(q) with codeword length m. It requires 1 <= l <= m <= q and
// prime q. numMessages limits how many messages are usable; pass 0 to allow
// the full q^l message space.
func NewReedSolomon(l, m int, q uint64, numMessages int) (*ReedSolomon, error) {
	if l < 1 {
		return nil, fmt.Errorf("code: message length L=%d must be >= 1", l)
	}
	if m < l {
		return nil, fmt.Errorf("code: codeword length M=%d must be >= L=%d", m, l)
	}
	if uint64(m) > q {
		return nil, fmt.Errorf("code: codeword length M=%d exceeds alphabet size q=%d", m, q)
	}
	f, err := field.New(q)
	if err != nil {
		return nil, fmt.Errorf("code: alphabet size: %w", err)
	}
	maxMessages := messageSpaceSize(q, l)
	if numMessages == 0 {
		numMessages = maxMessages
	}
	if numMessages < 1 || numMessages > maxMessages {
		return nil, fmt.Errorf("code: numMessages=%d out of range [1, %d]", numMessages, maxMessages)
	}
	points := make([]uint64, m)
	for h := 0; h < m; h++ {
		// x_h = (h+1) mod q; distinct because m <= q.
		points[h] = uint64(h+1) % q
	}
	return &ReedSolomon{
		f:           f,
		l:           l,
		m:           m,
		points:      points,
		numMessages: numMessages,
	}, nil
}

// messageSpaceSize returns min(q^l, 1<<31-1) guarding against overflow.
func messageSpaceSize(q uint64, l int) int {
	const cap31 = 1<<31 - 1
	size := uint64(1)
	for i := 0; i < l; i++ {
		size *= q
		if size > cap31 {
			return cap31
		}
	}
	return int(size)
}

// Params implements Code. The guaranteed distance is d = M - L, per
// Theorem 4 (the true RS distance is M-L+1, but the paper's constructions
// only rely on M-L).
func (rs *ReedSolomon) Params() (l, m, d, q int) {
	return rs.l, rs.m, rs.m - rs.l, int(rs.f.P())
}

// NumMessages implements Code.
func (rs *ReedSolomon) NumMessages() int { return rs.numMessages }

// fullSpace reports whether the code accepts every message of GF(q)^L, the
// condition under which its codewords form an affine space.
func (rs *ReedSolomon) fullSpace() bool {
	q, size := int(rs.f.P()), 1
	for i := 0; i < rs.l; i++ {
		if size > rs.numMessages/q {
			return false
		}
		size *= q
	}
	return size == rs.numMessages
}

// Encode implements Code. Message index m is decomposed into base-q digits
// c_0..c_{L-1}; the codeword is p(x_h)+1 for h = 1..M where
// p(x) = x^L + Σ_j c_j x^j.
func (rs *ReedSolomon) Encode(m int) ([]int, error) {
	if m < 0 || m >= rs.numMessages {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrMessageRange, m, rs.numMessages)
	}
	q := rs.f.P()
	// coeffs[0..L-1] are the message digits; coeffs[L] = 1 is the fixed
	// offset monomial x^L shared by all codewords.
	coeffs := make([]uint64, rs.l+1)
	digits := uint64(m)
	for j := 0; j < rs.l; j++ {
		coeffs[j] = digits % q
		digits /= q
	}
	coeffs[rs.l] = 1
	word := make([]int, rs.m)
	for h, x := range rs.points {
		word[h] = int(rs.f.EvalPoly(coeffs, x)) + 1
	}
	return word, nil
}

// MustEncode is Encode for indices known to be valid; it panics on error.
func (rs *ReedSolomon) MustEncode(m int) []int {
	w, err := rs.Encode(m)
	if err != nil {
		panic(err)
	}
	return w
}

// Identity is the trivial code-mapping with L = M = 1 over alphabet [q]:
// message m maps to the single-symbol word (m+1). Its distance is 1. It
// exists to exercise the Code interface in tests with the simplest possible
// implementation.
type Identity struct {
	q int
}

var _ Code = (*Identity)(nil)

// NewIdentity returns the identity code over an alphabet of size q >= 1.
func NewIdentity(q int) (*Identity, error) {
	if q < 1 {
		return nil, fmt.Errorf("code: identity alphabet size %d must be >= 1", q)
	}
	return &Identity{q: q}, nil
}

// Params implements Code.
func (c *Identity) Params() (l, m, d, q int) { return 1, 1, 1, c.q }

// NumMessages implements Code.
func (c *Identity) NumMessages() int { return c.q }

// Encode implements Code.
func (c *Identity) Encode(m int) ([]int, error) {
	if m < 0 || m >= c.q {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrMessageRange, m, c.q)
	}
	return []int{m + 1}, nil
}

// FirstSymbol is a deliberately weak code used by the ablation studies:
// message m maps to (m+1, 1, 1, ..., 1), so distinct codewords differ only
// in the first position and the pairwise distance is exactly 1. Plugging it
// into the lower-bound constructions breaks Property 2 (no large matching
// between Code^i_m1 and Code^j_m2), which lets the disjoint-case MaxIS blow
// past the Claim 5 bound — demonstrating why the constructions need
// large-distance codes.
type FirstSymbol struct {
	q, m int
}

var _ Code = (*FirstSymbol)(nil)

// NewFirstSymbol returns the weak code with codeword length m over alphabet
// size q; it admits q messages.
func NewFirstSymbol(q, m int) (*FirstSymbol, error) {
	if q < 1 || m < 1 {
		return nil, fmt.Errorf("code: first-symbol params q=%d m=%d must be >= 1", q, m)
	}
	return &FirstSymbol{q: q, m: m}, nil
}

// Params implements Code. The honest guaranteed distance is 1.
func (c *FirstSymbol) Params() (l, m, d, q int) { return 1, c.m, 1, c.q }

// NumMessages implements Code.
func (c *FirstSymbol) NumMessages() int { return c.q }

// Encode implements Code.
func (c *FirstSymbol) Encode(m int) ([]int, error) {
	if m < 0 || m >= c.q {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrMessageRange, m, c.q)
	}
	word := make([]int, c.m)
	for i := range word {
		word[i] = 1
	}
	word[0] = m + 1
	return word, nil
}

// Repetition is the M-fold repetition code over alphabet [q]: message m maps
// to (m+1, ..., m+1). Its distance is exactly M. Used as a reference code
// with easily predictable distance in tests.
type Repetition struct {
	q, m int
}

var _ Code = (*Repetition)(nil)

// NewRepetition returns the M-fold repetition code over alphabet size q.
func NewRepetition(q, m int) (*Repetition, error) {
	if q < 1 || m < 1 {
		return nil, fmt.Errorf("code: repetition params q=%d m=%d must be >= 1", q, m)
	}
	return &Repetition{q: q, m: m}, nil
}

// Params implements Code.
func (c *Repetition) Params() (l, m, d, q int) { return 1, c.m, c.m, c.q }

// NumMessages implements Code.
func (c *Repetition) NumMessages() int { return c.q }

// Encode implements Code.
func (c *Repetition) Encode(m int) ([]int, error) {
	if m < 0 || m >= c.q {
		return nil, fmt.Errorf("%w: %d not in [0, %d)", ErrMessageRange, m, c.q)
	}
	word := make([]int, c.m)
	for i := range word {
		word[i] = m + 1
	}
	return word, nil
}
