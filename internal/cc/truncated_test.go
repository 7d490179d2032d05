package cc

import (
	"math/rand"
	"reflect"
	"testing"

	"congestlb/internal/bitvec"
)

func TestTruncatedProbeFullPrefixIsExact(t *testing.T) {
	const k, players = 128, 3
	instances, truths := makeInstances(t, k, players, 50, 61)
	report, err := Audit(TruncatedProbe{PrefixBits: k}, instances, truths)
	if err != nil {
		t.Fatal(err)
	}
	if report.Wrong != 0 {
		t.Fatalf("full-prefix probe wrong on %d instances", report.Wrong)
	}
	if report.MaxBits != int64(k+1) {
		t.Fatalf("full-prefix cost %d, want %d", report.MaxBits, k+1)
	}
}

func TestTruncatedProbeErrsOnLateIntersection(t *testing.T) {
	// Intersection at the last index; a half prefix must answer wrongly.
	k := 16
	x1 := bitvec.New(k)
	x2 := bitvec.New(k)
	x1.Set(k - 1)
	x2.Set(k - 1)
	in := bitvec.Inputs{x1, x2}
	var bb Blackboard
	got, err := (TruncatedProbe{PrefixBits: k / 2}).Run(in, &bb)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("half prefix should miss the late intersection and wrongly answer TRUE")
	}
	if bb.Bits() != int64(k/2+1) {
		t.Fatalf("cost %d, want %d", bb.Bits(), k/2+1)
	}
}

func TestTruncatedProbeAlwaysRightOnDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 40; trial++ {
		in, err := bitvec.RandomPairwiseDisjoint(64, 2, bitvec.GenOptions{Density: 0.5}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var bb Blackboard
		got, err := (TruncatedProbe{PrefixBits: 8}).Run(in, &bb)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatal("disjoint input answered FALSE")
		}
	}
}

func TestTruncatedProbeErrorGrowsAsPrefixShrinks(t *testing.T) {
	// On uniformly-placed intersections, the error rate of prefix p is
	// about (k-p)/k on intersecting instances. Check monotonicity
	// coarsely over many trials.
	const k, trials = 256, 300
	rng := rand.New(rand.NewSource(71))
	errorRate := func(prefix int) float64 {
		wrong := 0
		for i := 0; i < trials; i++ {
			in, _, err := bitvec.RandomUniquelyIntersecting(k, 2, bitvec.GenOptions{Density: 0.2}, rng)
			if err != nil {
				t.Fatal(err)
			}
			var bb Blackboard
			got, err := (TruncatedProbe{PrefixBits: prefix}).Run(in, &bb)
			if err != nil {
				t.Fatal(err)
			}
			if got { // TRUE = disjoint is wrong here
				wrong++
			}
		}
		return float64(wrong) / trials
	}
	quarter := errorRate(k / 4)
	full := errorRate(k)
	if full != 0 {
		t.Fatalf("full prefix erred at rate %f", full)
	}
	if quarter < 0.5 {
		t.Fatalf("quarter prefix error rate %f, expected ≈0.75", quarter)
	}
}

func TestTruncatedProbeClampsPrefix(t *testing.T) {
	in := bitvec.Inputs{bitvec.New(8), bitvec.New(8)}
	for _, prefix := range []int{-5, 0, 100} {
		var bb Blackboard
		if _, err := (TruncatedProbe{PrefixBits: prefix}).Run(in, &bb); err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
	}
}

func TestTruncatedProbeNeedsTwoPlayers(t *testing.T) {
	var bb Blackboard
	if _, err := (TruncatedProbe{PrefixBits: 4}).Run(bitvec.Inputs{bitvec.New(8)}, &bb); err == nil {
		t.Fatal("t=1 accepted")
	}
}

// TestTruncatedProbeMatchesPerBitReference: on random inputs, for every
// prefix from 1 to k, the probe's answer and transcript are what a per-bit
// reference gives — player 1 writes x¹'s first p bits (bit i at bit i%8 of
// byte i/8), and player 2 writes whether some index below p is 1 in both
// x¹ and x².
func TestTruncatedProbeMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, k := range []int{1, 7, 63, 64, 65, 130} {
		for trial := 0; trial < 3; trial++ {
			in := make(bitvec.Inputs, 2+trial%2)
			for i := range in {
				in[i] = bitvec.New(k)
				for j := 0; j < k; j++ {
					if rng.Intn(3) == 0 {
						in[i].Set(j)
					}
				}
			}
			for p := 1; p <= k; p++ {
				written := make([]byte, (p+7)/8)
				hit := false
				for i := 0; i < p; i++ {
					if in[0].Get(i) {
						written[i/8] |= 1 << (uint(i) % 8)
						hit = hit || in[1].Get(i)
					}
				}
				var bit byte
				if hit {
					bit = 1
				}
				want := []Entry{
					{Player: 0, Data: written, Bits: int64(p)},
					{Player: 1, Data: []byte{bit}, Bits: 1},
				}
				var bb Blackboard
				got, err := TruncatedProbe{PrefixBits: p}.Run(in, &bb)
				if err != nil {
					t.Fatal(err)
				}
				if got != !hit || !reflect.DeepEqual(bb.Entries(), want) {
					t.Fatalf("k=%d p=%d: probe %v with %+v, reference %v with %+v", k, p, got, bb.Entries(), !hit, want)
				}
			}
		}
	}
}
