// Package bitvec implements the input side of the multi-party communication
// problems in Efron, Grossman and Khoury (PODC 2020): length-k bit strings
// x^i ∈ {0,1}^k held by each of t players, with the disjointness predicates
// and the promise-instance distributions used by the reductions.
//
// The linear construction (Section 4) uses strings of length k; the
// quadratic construction (Section 5) uses strings of length k², addressed
// by index pairs (m1, m2) ∈ [k]×[k]. The Matrix type provides that
// addressing on top of Vector.
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit string. The zero value is an empty (length
// zero) vector; use New for a sized one.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zeros vector of length n. It panics for negative n.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{
		n:     n,
		words: make([]uint64, (n+wordBits-1)/wordBits),
	}
}

// FromBits builds a vector from a literal 0/1 slice. Values other than 0
// and 1 are rejected.
func FromBits(bits []int) (*Vector, error) {
	v := New(len(bits))
	for i, b := range bits {
		switch b {
		case 0:
		case 1:
			v.Set(i)
		default:
			return nil, fmt.Errorf("bitvec: bit %d has value %d, want 0 or 1", i, b)
		}
	}
	return v, nil
}

// MustFromBits is FromBits panicking on error, for test fixtures.
func MustFromBits(bits []int) *Vector {
	v, err := FromBits(bits)
	if err != nil {
		panic(err)
	}
	return v
}

// AppendBytes appends v to dst as ⌈k/8⌉ bytes, bit i at bit i%8 of byte
// i/8, and returns the extended slice. That is a word's little-endian
// layout, so whole words are appended at once.
func AppendBytes(dst []byte, v *Vector) []byte {
	size := (v.n + 7) / 8
	dst = slices.Grow(dst, size)
	full := size / 8
	for _, w := range v.words[:full] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	if rest := size - 8*full; rest > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], v.words[full])
		dst = append(dst, tail[:rest]...)
	}
	return dst
}

// FromBytes returns the length-k vector whose bit i is bit i%8 of
// data[i/8], the layout AppendBytes writes. It reads the first ⌈k/8⌉
// bytes of data, which must hold them, and clears the bits past k. It
// panics for negative k.
func FromBytes(data []byte, k int) *Vector {
	v := New(k)
	data = data[:(k+7)/8]
	full := len(data) / 8
	for i := range v.words[:full] {
		v.words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if full < len(v.words) {
		var tail [8]byte
		copy(tail[:], data[8*full:])
		v.words[full] = binary.LittleEndian.Uint64(tail[:])
	}
	v.clearTail()
	return v
}

// Prefix returns a new vector of v's first p bits. It panics unless
// 0 ≤ p ≤ v.Len().
func Prefix(v *Vector, p int) *Vector {
	if p < 0 || p > v.n {
		panic(fmt.Sprintf("bitvec: prefix %d out of range [0,%d]", p, v.n))
	}
	out := New(p)
	copy(out.words, v.words)
	out.clearTail()
	return out
}

// clearTail clears the bits of the last word past the length, which every
// other method assumes are 0.
func (v *Vector) clearTail() {
	if r := v.n % wordBits; r != 0 {
		v.words[len(v.words)-1] &= 1<<uint(r) - 1
	}
}

// Len returns the vector length k.
func (v *Vector) Len() int { return v.n }

// Get returns the bit at index i as a bool.
func (v *Vector) Get(i int) bool {
	v.checkIndex(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.checkIndex(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.checkIndex(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

func (v *Vector) checkIndex(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Count returns the number of 1 bits.
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Ones returns the indices of all 1 bits in increasing order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	out := New(v.n)
	copy(out.words, v.words)
	return out
}

// Equal reports whether two vectors have identical length and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// Disjoint reports whether v and u share no common 1 index, i.e.
// Σ_j v_j·u_j = 0 per the paper's definition. Lengths must match.
func (v *Vector) Disjoint(u *Vector) bool {
	v.checkSameLen(u)
	for i := range v.words {
		if v.words[i]&u.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectionIndices returns the sorted indices where both v and u are 1.
func (v *Vector) IntersectionIndices(u *Vector) []int {
	v.checkSameLen(u)
	var out []int
	for wi := range v.words {
		w := v.words[wi] & u.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

func (v *Vector) checkSameLen(u *Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, u.n))
	}
}

// String renders the vector as a 0/1 string, index 0 first. Long vectors
// are truncated with an ellipsis for readability in logs.
func (v *Vector) String() string {
	const maxRender = 128
	var sb strings.Builder
	limit := v.n
	if limit > maxRender {
		limit = maxRender
	}
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if v.n > maxRender {
		fmt.Fprintf(&sb, "...(+%d)", v.n-maxRender)
	}
	return sb.String()
}

// Inputs is a t-tuple of equal-length vectors: the vector of inputs
// x̄ = (x^1, ..., x^t) handed to the players.
type Inputs []*Vector

// Validate checks that all strings exist and share a common length.
func (in Inputs) Validate() error {
	if len(in) == 0 {
		return fmt.Errorf("bitvec: empty input tuple")
	}
	k := in[0].Len()
	for i, v := range in {
		if v == nil {
			return fmt.Errorf("bitvec: input %d is nil", i)
		}
		if v.Len() != k {
			return fmt.Errorf("bitvec: input %d has length %d, want %d", i, v.Len(), k)
		}
	}
	return nil
}

// Players returns t, the number of strings.
func (in Inputs) Players() int { return len(in) }

// Len returns k, the common string length (0 for an empty tuple).
func (in Inputs) Len() int {
	if len(in) == 0 {
		return 0
	}
	return in[0].Len()
}

// PairwiseDisjoint reports whether every pair of distinct strings is
// disjoint — the TRUE case of the promise pairwise disjointness function.
func (in Inputs) PairwiseDisjoint() bool {
	for i := 0; i < len(in); i++ {
		for j := i + 1; j < len(in); j++ {
			if !in[i].Disjoint(in[j]) {
				return false
			}
		}
	}
	return true
}

// UniqueIntersection returns (m, true) if there is an index m with
// x^1_m = ... = x^t_m = 1, choosing the smallest such m.
func (in Inputs) UniqueIntersection() (int, bool) {
	if len(in) == 0 {
		return 0, false
	}
	acc := in[0].Clone()
	for _, v := range in[1:] {
		for wi := range acc.words {
			acc.words[wi] &= v.words[wi]
		}
	}
	ones := acc.Ones()
	if len(ones) == 0 {
		return 0, false
	}
	return ones[0], true
}

// SatisfiesPromise reports whether the tuple is a legal input for the
// promise pairwise disjointness function: either pairwise disjoint, or all
// strings share a common index.
func (in Inputs) SatisfiesPromise() bool {
	if in.PairwiseDisjoint() {
		return true
	}
	_, ok := in.UniqueIntersection()
	return ok
}

// PromisePairwiseDisjointness evaluates Definition 2's function: TRUE when
// the strings are pairwise disjoint, FALSE when they are uniquely
// intersecting. The error reports a promise violation.
func (in Inputs) PromisePairwiseDisjointness() (bool, error) {
	if err := in.Validate(); err != nil {
		return false, err
	}
	if in.PairwiseDisjoint() {
		return true, nil
	}
	if _, ok := in.UniqueIntersection(); ok {
		return false, nil
	}
	return false, fmt.Errorf("bitvec: inputs violate the pairwise-disjointness promise")
}
