package bitvec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// pinnedGeneratorDigest is the SHA-256 TestGeneratorsPinned computes. The
// golden report and the theorem experiments rest on these draws: a change
// to a generator that moves any vector, or the generator state it leaves
// behind, moves the digest.
const pinnedGeneratorDigest = "ce16f9d97b1be51f0aafca1c8d97c7baab851d258e745232f5ee63b0c734b130"

// TestGeneratorsPinned hashes what the three generators draw over a grid
// of lengths (both sides of a word boundary and many words), player counts
// and densities: every vector's length and 1 indices, the intersection
// index, the coin's outcome and the generator's next Int63 after each
// call.
func TestGeneratorsPinned(t *testing.T) {
	h := sha256.New()
	for _, k := range []int{1, 63, 64, 65, 512, 4096} {
		for _, players := range []int{2, 3, 8} {
			for _, density := range []float64{0, 0.2, 0.4} {
				rng := rand.New(rand.NewSource(int64(k)*100 + int64(players)*10 + int64(density*10)))
				opts := GenOptions{Density: density}
				in, err := RandomPairwiseDisjoint(k, players, opts, rng)
				if err != nil {
					t.Fatal(err)
				}
				hashInputs(h, in)
				hashInt(h, rng.Int63())
				in, m, err := RandomUniquelyIntersecting(k, players, opts, rng)
				if err != nil {
					t.Fatal(err)
				}
				hashInputs(h, in)
				hashInt(h, int64(m))
				hashInt(h, rng.Int63())
				in, disjoint, err := RandomPromiseInstance(k, players, opts, 0.5, rng)
				if err != nil {
					t.Fatal(err)
				}
				hashInputs(h, in)
				if disjoint {
					hashInt(h, 1)
				} else {
					hashInt(h, 0)
				}
				hashInt(h, rng.Int63())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedGeneratorDigest {
		t.Fatalf("generator digest %s, pinned %s", got, pinnedGeneratorDigest)
	}
}

func hashInputs(h hash.Hash, in Inputs) {
	hashInt(h, int64(len(in)))
	for _, v := range in {
		hashInt(h, int64(v.Len()))
		for _, i := range v.Ones() {
			hashInt(h, int64(i))
		}
		hashInt(h, -1)
	}
}

func hashInt(h hash.Hash, x int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(x))
	h.Write(buf[:])
}
