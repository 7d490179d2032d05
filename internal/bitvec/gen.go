package bitvec

import (
	"fmt"
	"math/rand"
)

// GenOptions controls random instance generation. The zero value asks for
// a bare instance: no extra 1 bits beyond what the case requires.
type GenOptions struct {
	// Density is the probability that a candidate position is assigned to
	// some player as a 1 bit (before promise repair). 0 means no extra
	// ones: disjoint instances are all-zeros, intersecting instances have
	// exactly the common index set.
	Density float64
}

// RandomPairwiseDisjoint returns t strings of length k that are pairwise
// disjoint. With nonzero density, each index is given to at most one
// player, chosen uniformly, with probability density — which keeps every
// pair of strings disjoint by construction.
func RandomPairwiseDisjoint(k, t int, opts GenOptions, rng *rand.Rand) (Inputs, error) {
	if err := checkKT(k, t); err != nil {
		return nil, err
	}
	in := newInputs(k, t)
	if opts.Density > 0 {
		for idx := 0; idx < k; idx++ {
			if rng.Float64() < opts.Density {
				in[rng.Intn(t)].words[idx/wordBits] |= 1 << (uint(idx) % wordBits)
			}
		}
	}
	return in, nil
}

// newInputs returns t all-zeros vectors of length k, their headers and
// their words each cut from one allocation.
func newInputs(k, t int) Inputs {
	size := (k + wordBits - 1) / wordBits
	vecs := make([]Vector, t)
	words := make([]uint64, t*size)
	in := make(Inputs, t)
	for i := range in {
		vecs[i] = Vector{n: k, words: words[i*size : (i+1)*size : (i+1)*size]}
		in[i] = &vecs[i]
	}
	return in
}

// RandomUniquelyIntersecting returns t strings of length k that all share
// the 1 bit at a uniformly random index m, and are otherwise pairwise
// disjoint (extra ones per density are assigned to at most one player per
// index). It also returns the chosen intersection index.
func RandomUniquelyIntersecting(k, t int, opts GenOptions, rng *rand.Rand) (Inputs, int, error) {
	if err := checkKT(k, t); err != nil {
		return nil, 0, err
	}
	in, err := RandomPairwiseDisjoint(k, t, opts, rng)
	if err != nil {
		return nil, 0, err
	}
	m := rng.Intn(k)
	for i := range in {
		// Clear any density-assigned neighbours of m? Not needed: setting
		// index m for everyone preserves the promise since the remaining
		// indices stay single-owner.
		in[i].Set(m)
	}
	return in, m, nil
}

// RandomPromiseInstance flips a fair coin (or the given bias toward the
// disjoint case) and returns either a pairwise-disjoint or a uniquely-
// intersecting instance, together with the ground-truth value of the
// promise pairwise disjointness function (TRUE = disjoint).
func RandomPromiseInstance(k, t int, opts GenOptions, disjointBias float64, rng *rand.Rand) (Inputs, bool, error) {
	if rng.Float64() < disjointBias {
		in, err := RandomPairwiseDisjoint(k, t, opts, rng)
		return in, true, err
	}
	in, _, err := RandomUniquelyIntersecting(k, t, opts, rng)
	return in, false, err
}

func checkKT(k, t int) error {
	if k < 1 {
		return fmt.Errorf("bitvec: k=%d must be >= 1", k)
	}
	if t < 1 {
		return fmt.Errorf("bitvec: t=%d must be >= 1", t)
	}
	return nil
}

// Matrix addresses a length k² vector by index pairs (m1, m2) ∈ [k]×[k],
// exactly as the quadratic construction (Section 5) indexes its input
// strings x^i_(m1,m2). Indices are 0-based; the pair (m1, m2) maps to the
// flat index m1*k + m2.
type Matrix struct {
	k   int
	vec *Vector
}

// NewMatrix returns an all-zeros k×k bit matrix.
func NewMatrix(k int) *Matrix {
	if k < 0 {
		panic(fmt.Sprintf("bitvec: negative matrix dimension %d", k))
	}
	return &Matrix{k: k, vec: New(k * k)}
}

// MatrixFromVector wraps an existing length-k² vector. The vector is shared,
// not copied.
func MatrixFromVector(v *Vector, k int) (*Matrix, error) {
	if v.Len() != k*k {
		return nil, fmt.Errorf("bitvec: vector length %d is not k²=%d", v.Len(), k*k)
	}
	return &Matrix{k: k, vec: v}, nil
}

// K returns the matrix dimension.
func (m *Matrix) K() int { return m.k }

// Vector returns the underlying flat vector (shared).
func (m *Matrix) Vector() *Vector { return m.vec }

// Get returns the bit at (m1, m2).
func (m *Matrix) Get(m1, m2 int) bool {
	m.checkPair(m1, m2)
	return m.vec.Get(m1*m.k + m2)
}

// Set sets the bit at (m1, m2) to 1.
func (m *Matrix) Set(m1, m2 int) {
	m.checkPair(m1, m2)
	m.vec.Set(m1*m.k + m2)
}

// Clear sets the bit at (m1, m2) to 0.
func (m *Matrix) Clear(m1, m2 int) {
	m.checkPair(m1, m2)
	m.vec.Clear(m1*m.k + m2)
}

func (m *Matrix) checkPair(m1, m2 int) {
	if m1 < 0 || m1 >= m.k || m2 < 0 || m2 >= m.k {
		panic(fmt.Sprintf("bitvec: pair (%d,%d) out of range [0,%d)²", m1, m2, m.k))
	}
}

// SetAll sets every bit to 1. In the quadratic construction an all-ones
// string means "no input edges between A^(i,1) and A^(i,2)".
func (m *Matrix) SetAll() {
	for i := 0; i < m.k*m.k; i++ {
		m.vec.Set(i)
	}
}
