package cc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"congestlb/internal/bitvec"
)

func TestBlackboardAccounting(t *testing.T) {
	var bb Blackboard
	if bb.Bits() != 0 || bb.Len() != 0 {
		t.Fatal("fresh blackboard not empty")
	}
	if err := bb.Write(0, []byte{0xFF}, 5); err != nil {
		t.Fatal(err)
	}
	if err := bb.WriteBit(1, true); err != nil {
		t.Fatal(err)
	}
	if bb.Bits() != 6 {
		t.Fatalf("Bits = %d, want 6", bb.Bits())
	}
	if bb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", bb.Len())
	}
	entries := bb.Entries()
	if entries[0].Player != 0 || entries[1].Player != 1 {
		t.Fatalf("entries players wrong: %+v", entries)
	}
	bb.Reset()
	if bb.Bits() != 0 || bb.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestBlackboardWriteValidation(t *testing.T) {
	var bb Blackboard
	if err := bb.Write(0, []byte{1}, 0); err == nil {
		t.Fatal("zero-bit write accepted")
	}
	if err := bb.Write(0, []byte{1}, -3); err == nil {
		t.Fatal("negative-bit write accepted")
	}
	if err := bb.Write(0, []byte{1}, 9); err == nil {
		t.Fatal("bits exceeding payload accepted")
	}
}

func TestBlackboardEntriesAreCopies(t *testing.T) {
	var bb Blackboard
	payload := []byte{0xAB}
	if err := bb.Write(0, payload, 8); err != nil {
		t.Fatal(err)
	}
	payload[0] = 0 // caller mutates after write
	if bb.Entries()[0].Data[0] != 0xAB {
		t.Fatal("blackboard shares caller's payload")
	}
}

func TestWriteAndReadVectorRoundTrip(t *testing.T) {
	var bb Blackboard
	v := bitvec.MustFromBits([]int{1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0})
	if err := bb.WriteVector(2, v); err != nil {
		t.Fatal(err)
	}
	if bb.Bits() != int64(v.Len()) {
		t.Fatalf("vector write charged %d bits, want %d", bb.Bits(), v.Len())
	}
	got, err := bb.ReadVector(0, v.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip: got %v want %v", got, v)
	}
	if _, err := bb.ReadVector(0, 5); err == nil {
		t.Fatal("wrong-length read accepted")
	}
	if _, err := bb.ReadVector(7, 11); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

// TestWriteVectorMatchesPerBitWrite: for every length from 1 to 200,
// WriteVector books the entry Write books for the per-bit encoding (bit i
// at bit i%8 of byte i/8), and ReadVector reads the vector back.
func TestWriteVectorMatchesPerBitWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var got, want Blackboard
	for k := 1; k <= 200; k++ {
		v := bitvec.New(k)
		data := make([]byte, (k+7)/8)
		for i := 0; i < k; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
				data[i/8] |= 1 << (uint(i) % 8)
			}
		}
		if err := got.WriteVector(k%3, v); err != nil {
			t.Fatal(err)
		}
		if err := want.Write(k%3, data, int64(k)); err != nil {
			t.Fatal(err)
		}
		back, err := got.ReadVector(got.Len()-1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(v) {
			t.Fatalf("k=%d: read back %s, wrote %s", k, back, v)
		}
	}
	if !reflect.DeepEqual(got.Entries(), want.Entries()) || got.Bits() != want.Bits() ||
		got.Len() != want.Len() || got.PayloadBytes() != want.PayloadBytes() {
		t.Fatalf("WriteVector transcript differs from per-bit Write: %d/%d bits, %d/%d entries", got.Bits(), want.Bits(), got.Len(), want.Len())
	}
	if err := got.WriteVector(0, bitvec.New(0)); err == nil || err.Error() != "cc: write of 0 bits" {
		t.Fatalf("empty vector write: %v, want cc: write of 0 bits", err)
	}
}

// TestReadVectorDropsBitsPastLength: a 9-bit entry written from two 0xFF
// bytes reads back as nine 1 bits; the seven bits past the length in its
// last byte are dropped.
func TestReadVectorDropsBitsPastLength(t *testing.T) {
	var bb Blackboard
	if err := bb.Write(0, []byte{0xFF, 0xFF}, 9); err != nil {
		t.Fatal(err)
	}
	v, err := bb.ReadVector(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 9 || v.Count() != 9 {
		t.Fatalf("ReadVector(0, 9) = %s: length %d, %d ones; want 9 and 9", v, v.Len(), v.Count())
	}
}

// makeInstances builds a mixed batch of promise instances with truths.
func makeInstances(t *testing.T, k, players, trials int, seed int64) ([]bitvec.Inputs, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	instances := make([]bitvec.Inputs, 0, trials)
	truths := make([]bool, 0, trials)
	for i := 0; i < trials; i++ {
		in, truth, err := bitvec.RandomPromiseInstance(k, players, bitvec.GenOptions{Density: 0.4}, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
		truths = append(truths, truth)
	}
	return instances, truths
}

func TestWriteAllCorrectAndExactCost(t *testing.T) {
	const k, players, trials = 64, 4, 60
	instances, truths := makeInstances(t, k, players, trials, 31)
	report, err := Audit(WriteAll{}, instances, truths)
	if err != nil {
		t.Fatal(err)
	}
	if report.Wrong != 0 {
		t.Fatalf("write-all wrong on %d/%d instances", report.Wrong, report.Trials)
	}
	if want := int64(k * players); report.MaxBits != want {
		t.Fatalf("write-all max cost %d, want %d", report.MaxBits, want)
	}
	if report.AvgBits() != float64(k*players) {
		t.Fatalf("write-all avg cost %f", report.AvgBits())
	}
}

func TestFirstPlayerProbeCorrectAndCheap(t *testing.T) {
	const k, players, trials = 128, 5, 80
	instances, truths := makeInstances(t, k, players, trials, 17)
	report, err := Audit(FirstPlayerProbe{}, instances, truths)
	if err != nil {
		t.Fatal(err)
	}
	if report.Wrong != 0 {
		t.Fatalf("probe wrong on %d/%d instances", report.Wrong, report.Trials)
	}
	if want := int64(k + 1); report.MaxBits != want {
		t.Fatalf("probe cost %d, want %d", report.MaxBits, want)
	}
}

func TestAllPlayersProbeCorrectAndExactCost(t *testing.T) {
	const k, players, trials = 96, 6, 60
	instances, truths := makeInstances(t, k, players, trials, 43)
	report, err := Audit(AllPlayersProbe{}, instances, truths)
	if err != nil {
		t.Fatal(err)
	}
	if report.Wrong != 0 {
		t.Fatalf("all-players-probe wrong on %d/%d instances", report.Wrong, report.Trials)
	}
	if want := int64(k + players - 1); report.MaxBits != want {
		t.Fatalf("all-players-probe cost %d, want %d", report.MaxBits, want)
	}
}

func TestAllPlayersProbeAgreesWithFirstPlayerProbe(t *testing.T) {
	const k, players = 64, 4
	instances, truths := makeInstances(t, k, players, 40, 47)
	for i, in := range instances {
		var bb1, bb2 Blackboard
		a, err := (FirstPlayerProbe{}).Run(in, &bb1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := (AllPlayersProbe{}).Run(in, &bb2)
		if err != nil {
			t.Fatal(err)
		}
		if a != b || a != truths[i] {
			t.Fatalf("instance %d: first=%v all=%v truth=%v", i, a, b, truths[i])
		}
	}
}

func TestAllPlayersProbeNeedsTwoPlayers(t *testing.T) {
	var bb Blackboard
	if _, err := (AllPlayersProbe{}).Run(bitvec.Inputs{bitvec.New(4)}, &bb); err == nil {
		t.Fatal("t=1 accepted")
	}
}

func TestFirstPlayerProbeNeedsTwoPlayers(t *testing.T) {
	var bb Blackboard
	in := bitvec.Inputs{bitvec.New(4)}
	if _, err := (FirstPlayerProbe{}).Run(in, &bb); err == nil {
		t.Fatal("t=1 accepted")
	}
}

func TestProtocolsOnHandCraftedCases(t *testing.T) {
	tests := []struct {
		name string
		rows [][]int
		want bool
	}{
		{
			name: "pairwise disjoint",
			rows: [][]int{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}},
			want: true,
		},
		{
			name: "uniquely intersecting",
			rows: [][]int{{0, 1, 1, 0}, {0, 0, 1, 0}, {1, 0, 1, 0}},
			want: false,
		},
		{
			name: "all empty strings",
			rows: [][]int{{0, 0, 0, 0}, {0, 0, 0, 0}},
			want: true,
		},
	}
	protocols := []Protocol{WriteAll{}, FirstPlayerProbe{}}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := make(bitvec.Inputs, len(tt.rows))
			for i, r := range tt.rows {
				in[i] = bitvec.MustFromBits(r)
			}
			for _, p := range protocols {
				var bb Blackboard
				got, err := p.Run(in, &bb)
				if err != nil {
					t.Fatalf("%s: %v", p.Name(), err)
				}
				if got != tt.want {
					t.Fatalf("%s = %v, want %v", p.Name(), got, tt.want)
				}
			}
		})
	}
}

func TestLowerBoundBits(t *testing.T) {
	tests := []struct {
		k, t int
		want float64
	}{
		{k: 100, t: 2, want: 50},                       // log2(2)=1 → k/2
		{k: 100, t: 4, want: 100.0 / 8.0},              // 4·log2(4)=8
		{k: 1000, t: 8, want: 1000.0 / 24.0},           // 8·3
		{k: 0, t: 4, want: 0},                          // degenerate
		{k: 100, t: 1, want: 0},                        // no multi-party problem
		{k: 90, t: 3, want: 90.0 / (3 * math.Log2(3))}, // fractional log
	}
	for _, tt := range tests {
		if got := LowerBoundBits(tt.k, tt.t); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("LowerBoundBits(%d,%d) = %f, want %f", tt.k, tt.t, got, tt.want)
		}
	}
}

func TestUpperBoundsRespectLowerBound(t *testing.T) {
	// Sanity of the sandwich: the measured protocol costs must be at least
	// the information-theoretic lower bound (with constant 1 this is
	// comfortably true for both protocols, k+1 ≥ k/(t log t)).
	const k, players = 256, 4
	instances, truths := makeInstances(t, k, players, 40, 5)
	lower := LowerBoundBits(k, players)
	for _, p := range []Protocol{WriteAll{}, FirstPlayerProbe{}} {
		report, err := Audit(p, instances, truths)
		if err != nil {
			t.Fatal(err)
		}
		if float64(report.MaxBits) < lower {
			t.Fatalf("%s cost %d below lower bound %f", p.Name(), report.MaxBits, lower)
		}
	}
}

func TestAuditLengthMismatch(t *testing.T) {
	if _, err := Audit(WriteAll{}, make([]bitvec.Inputs, 2), make([]bool, 3)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func BenchmarkFirstPlayerProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in, _, err := bitvec.RandomUniquelyIntersecting(4096, 4, bitvec.GenOptions{Density: 0.3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	var bb Blackboard
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Reset()
		if _, err := (FirstPlayerProbe{}).Run(in, &bb); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBlackboardResetHighWaterReuse(t *testing.T) {
	var bb Blackboard
	payload := make([]byte, 100)
	for i := 0; i < 50; i++ {
		if err := bb.Write(0, payload, 800); err != nil {
			t.Fatal(err)
		}
	}
	grown := bb.PayloadBytes()
	bb.Reset()
	if bb.Len() != 0 || bb.Bits() != 0 || bb.PayloadBytes() != 0 {
		t.Fatalf("reset left state: len=%d bits=%d payload=%d", bb.Len(), bb.Bits(), bb.PayloadBytes())
	}
	// The first write after Reset must land in a buffer pre-sized to the
	// previous transcript's full volume — no append-doubling on the way
	// back to steady state.
	if err := bb.Write(0, payload, 800); err != nil {
		t.Fatal(err)
	}
	if got := cap(bb.payload); got < grown {
		t.Fatalf("post-reset payload capacity %d below high-water %d", got, grown)
	}
	// And the transcript content is fresh, not stale.
	if bb.Len() != 1 {
		t.Fatalf("len after reset+write = %d", bb.Len())
	}
}

func TestBlackboardResetKeepsOldViewsValid(t *testing.T) {
	var bb Blackboard
	if err := bb.Write(0, []byte{42}, 8); err != nil {
		t.Fatal(err)
	}
	view := bb.Entries()[0]
	bb.Reset()
	for i := 0; i < 8; i++ {
		if err := bb.Write(0, []byte{byte(i)}, 8); err != nil {
			t.Fatal(err)
		}
	}
	if view.Data[0] != 42 {
		t.Fatalf("pre-reset view corrupted: %v", view.Data)
	}
}
