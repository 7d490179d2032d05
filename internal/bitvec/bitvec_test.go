package bitvec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAndBasicOps(t *testing.T) {
	v := New(130) // spans three words
	if v.Len() != 130 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("fresh vector Count = %d", v.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("Get(%d) false after Set", i)
		}
	}
	if v.Count() != 8 {
		t.Fatalf("Count = %d, want 8", v.Count())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Fatal("Get(64) true after Clear")
	}
	wantOnes := []int{0, 1, 63, 65, 127, 128, 129}
	ones := v.Ones()
	if len(ones) != len(wantOnes) {
		t.Fatalf("Ones = %v", ones)
	}
	for i := range ones {
		if ones[i] != wantOnes[i] {
			t.Fatalf("Ones = %v, want %v", ones, wantOnes)
		}
	}
}

func TestIndexPanics(t *testing.T) {
	v := New(10)
	for _, idx := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", idx)
				}
			}()
			v.Get(idx)
		}()
	}
}

func TestFromBits(t *testing.T) {
	v, err := FromBits([]int{1, 0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.String(); got != "10110" {
		t.Fatalf("String = %q", got)
	}
	if _, err := FromBits([]int{0, 2}); err == nil {
		t.Fatal("FromBits with 2 should fail")
	}
}

func TestStringTruncates(t *testing.T) {
	v := New(200)
	s := v.String()
	if !strings.Contains(s, "...(+72)") {
		t.Fatalf("long String not truncated: %q", s)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := MustFromBits([]int{1, 0, 1})
	u := v.Clone()
	u.Set(1)
	if v.Get(1) {
		t.Fatal("Clone shares storage with original")
	}
	if !v.Equal(v.Clone()) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestEqual(t *testing.T) {
	a := MustFromBits([]int{1, 0, 1})
	b := MustFromBits([]int{1, 0, 1})
	c := MustFromBits([]int{1, 1, 1})
	d := MustFromBits([]int{1, 0})
	if !a.Equal(b) {
		t.Fatal("identical vectors not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Fatal("different vectors Equal")
	}
}

func TestDisjointAndIntersection(t *testing.T) {
	tests := []struct {
		name     string
		x, y     []int
		disjoint bool
		common   []int
	}{
		{name: "disjoint", x: []int{1, 0, 1, 0}, y: []int{0, 1, 0, 1}, disjoint: true},
		{name: "one common", x: []int{1, 1, 0, 0}, y: []int{0, 1, 1, 0}, disjoint: false, common: []int{1}},
		{name: "all zero", x: []int{0, 0, 0, 0}, y: []int{0, 0, 0, 0}, disjoint: true},
		{name: "two common", x: []int{1, 1, 1, 0}, y: []int{1, 0, 1, 0}, disjoint: false, common: []int{0, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x, y := MustFromBits(tt.x), MustFromBits(tt.y)
			if got := x.Disjoint(y); got != tt.disjoint {
				t.Fatalf("Disjoint = %v, want %v", got, tt.disjoint)
			}
			common := x.IntersectionIndices(y)
			if len(common) != len(tt.common) {
				t.Fatalf("IntersectionIndices = %v, want %v", common, tt.common)
			}
			for i := range common {
				if common[i] != tt.common[i] {
					t.Fatalf("IntersectionIndices = %v, want %v", common, tt.common)
				}
			}
		})
	}
}

func TestDisjointLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Disjoint with mismatched lengths did not panic")
		}
	}()
	New(3).Disjoint(New(4))
}

func TestInputsValidate(t *testing.T) {
	good := Inputs{New(5), New(5), New(5)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
	if err := (Inputs{}).Validate(); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if err := (Inputs{New(5), nil}).Validate(); err == nil {
		t.Fatal("nil input accepted")
	}
	if err := (Inputs{New(5), New(6)}).Validate(); err == nil {
		t.Fatal("ragged inputs accepted")
	}
}

func TestPromiseEvaluation(t *testing.T) {
	tests := []struct {
		name        string
		rows        [][]int
		promiseOK   bool
		wantValue   bool // TRUE = pairwise disjoint
		wantErrEval bool
	}{
		{
			name:      "pairwise disjoint",
			rows:      [][]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
			promiseOK: true,
			wantValue: true,
		},
		{
			name:      "uniquely intersecting",
			rows:      [][]int{{1, 1, 0}, {0, 1, 0}, {0, 1, 1}},
			promiseOK: true,
			wantValue: false,
		},
		{
			name:      "all zeros is disjoint",
			rows:      [][]int{{0, 0, 0}, {0, 0, 0}},
			promiseOK: true,
			wantValue: true,
		},
		{
			name:        "promise violated: pairwise hit without common index",
			rows:        [][]int{{1, 1, 0}, {1, 0, 0}, {0, 0, 1}},
			promiseOK:   false,
			wantErrEval: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := make(Inputs, len(tt.rows))
			for i, r := range tt.rows {
				in[i] = MustFromBits(r)
			}
			if got := in.SatisfiesPromise(); got != tt.promiseOK {
				t.Fatalf("SatisfiesPromise = %v, want %v", got, tt.promiseOK)
			}
			val, err := in.PromisePairwiseDisjointness()
			if tt.wantErrEval {
				if err == nil {
					t.Fatal("expected promise violation error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if val != tt.wantValue {
				t.Fatalf("function value = %v, want %v", val, tt.wantValue)
			}
		})
	}
}

func TestUniqueIntersection(t *testing.T) {
	in := Inputs{
		MustFromBits([]int{0, 1, 1, 0}),
		MustFromBits([]int{0, 1, 1, 1}),
		MustFromBits([]int{1, 1, 1, 0}),
	}
	m, ok := in.UniqueIntersection()
	if !ok || m != 1 {
		t.Fatalf("UniqueIntersection = (%d,%v), want (1,true)", m, ok)
	}
	none := Inputs{MustFromBits([]int{1, 0}), MustFromBits([]int{0, 1})}
	if _, ok := none.UniqueIntersection(); ok {
		t.Fatal("disjoint inputs report an intersection")
	}
}

func TestGeneratorsKeepPromise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(200)
		tp := 2 + rng.Intn(5)
		density := rng.Float64()

		dis, err := RandomPairwiseDisjoint(k, tp, GenOptions{Density: density}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !dis.PairwiseDisjoint() {
			t.Fatalf("trial %d: generated instance not pairwise disjoint", trial)
		}

		inter, m, err := RandomUniquelyIntersecting(k, tp, GenOptions{Density: density}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !inter.SatisfiesPromise() {
			t.Fatalf("trial %d: intersecting instance violates promise", trial)
		}
		for i, v := range inter {
			if !v.Get(m) {
				t.Fatalf("trial %d: player %d missing common index %d", trial, i, m)
			}
		}
		val, err := inter.PromisePairwiseDisjointness()
		if err != nil {
			t.Fatal(err)
		}
		if val {
			t.Fatalf("trial %d: intersecting instance evaluated as disjoint", trial)
		}
	}
}

func TestRandomPromiseInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sawTrue, sawFalse := false, false
	for trial := 0; trial < 100; trial++ {
		in, truth, err := RandomPromiseInstance(50, 3, GenOptions{Density: 0.3}, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := in.PromisePairwiseDisjointness()
		if err != nil {
			t.Fatal(err)
		}
		if got != truth {
			t.Fatalf("trial %d: ground truth %v, evaluation %v", trial, truth, got)
		}
		if truth {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatal("coin never produced both cases in 100 trials")
	}
}

func TestGeneratorParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomPairwiseDisjoint(0, 2, GenOptions{}, rng); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := RandomUniquelyIntersecting(5, 0, GenOptions{}, rng); err == nil {
		t.Fatal("t=0 accepted")
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(4)
	if m.K() != 4 {
		t.Fatalf("K = %d", m.K())
	}
	m.Set(1, 2)
	m.Set(3, 0)
	if !m.Get(1, 2) || !m.Get(3, 0) {
		t.Fatal("Set bits not visible")
	}
	if m.Get(2, 1) {
		t.Fatal("transposed bit set")
	}
	if m.Vector().Count() != 2 {
		t.Fatalf("underlying count = %d", m.Vector().Count())
	}
	m.Clear(1, 2)
	if m.Get(1, 2) {
		t.Fatal("Clear did not clear")
	}
	m.SetAll()
	if m.Vector().Count() != 16 {
		t.Fatalf("SetAll count = %d", m.Vector().Count())
	}
}

func TestMatrixFromVector(t *testing.T) {
	v := New(9)
	m, err := MatrixFromVector(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(2, 2)
	if !v.Get(8) {
		t.Fatal("matrix does not share the vector")
	}
	if _, err := MatrixFromVector(New(8), 3); err == nil {
		t.Fatal("wrong-size vector accepted")
	}
}

func TestMatrixPanicsOutOfRange(t *testing.T) {
	m := NewMatrix(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Get(3,0) did not panic")
		}
	}()
	m.Get(3, 0)
}

func TestVectorQuickProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(5)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(300)
			bits := make([]int, n)
			for i := range bits {
				bits[i] = r.Intn(2)
			}
			vals[0] = reflect.ValueOf(bits)
		},
	}
	t.Run("count equals ones length", func(t *testing.T) {
		prop := func(bits []int) bool {
			v := MustFromBits(bits)
			return v.Count() == len(v.Ones())
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("self disjoint iff empty", func(t *testing.T) {
		prop := func(bits []int) bool {
			v := MustFromBits(bits)
			return v.Disjoint(v) == (v.Count() == 0)
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("intersection symmetric", func(t *testing.T) {
		prop := func(bits []int) bool {
			v := MustFromBits(bits)
			u := New(len(bits))
			for i := 0; i < len(bits); i += 2 {
				u.Set(i)
			}
			a := v.IntersectionIndices(u)
			b := u.IntersectionIndices(v)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Error(err)
		}
	})
}

func BenchmarkDisjoint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in, err := RandomPairwiseDisjoint(1<<16, 2, GenOptions{Density: 0.5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0].Disjoint(in[1])
	}
}

// perBitBytes is the reference encoder for AppendBytes: ⌈k/8⌉ bytes, bit i
// of v at bit i%8 of byte i/8.
func perBitBytes(v *Vector) []byte {
	out := make([]byte, (v.Len()+7)/8)
	for i := 0; i < v.Len(); i++ {
		if v.Get(i) {
			out[i/8] |= 1 << (uint(i) % 8)
		}
	}
	return out
}

// TestBytesRoundTrip: for every length from 1 to 200, AppendBytes writes
// the per-bit reference's bytes after what dst held, FromBytes reads them
// back to an equal vector, and FromBytes drops the bits of the last byte
// past the length (and any bytes past ⌈k/8⌉).
func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= 200; k++ {
		v := New(k)
		for i := 0; i < k; i++ {
			if rng.Intn(2) == 0 {
				v.Set(i)
			}
		}
		want := perBitBytes(v)
		got := AppendBytes([]byte{0xAB}, v)
		if got[0] != 0xAB || !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("k=%d: AppendBytes = % x, want ab % x", k, got, want)
		}
		if back := FromBytes(want, k); !back.Equal(v) {
			t.Fatalf("k=%d: FromBytes(AppendBytes(v)) = %s, want %s", k, back, v)
		}
		full := make([]byte, len(want)+2)
		for i := range full {
			full[i] = 0xFF
		}
		if ones := FromBytes(full, k); ones.Count() != k || !reflect.DeepEqual(AppendBytes(nil, ones), perBitBytes(ones)) {
			t.Fatalf("k=%d: FromBytes of 0xff bytes has %d ones, want %d", k, ones.Count(), k)
		}
	}
	if got := AppendBytes(nil, New(0)); len(got) != 0 {
		t.Fatalf("empty vector encodes to % x", got)
	}
}

// TestPrefix: Prefix keeps the first p bits, for every p from 0 to k, and
// clears the rest of its last word; p outside [0, k] panics.
func TestPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	v := New(150)
	for i := 0; i < v.Len(); i++ {
		if rng.Intn(2) == 0 {
			v.Set(i)
		}
	}
	for p := 0; p <= v.Len(); p++ {
		pre := Prefix(v, p)
		want := New(p)
		for i := 0; i < p; i++ {
			if v.Get(i) {
				want.Set(i)
			}
		}
		if !pre.Equal(want) || pre.Count() != want.Count() {
			t.Fatalf("Prefix(v, %d) = %s, want %s", p, pre, want)
		}
	}
	for _, p := range []int{-1, v.Len() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Prefix(v, %d) did not panic", p)
				}
			}()
			Prefix(v, p)
		}()
	}
}
