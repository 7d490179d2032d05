package code

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	tests := []struct {
		name string
		x, y []int
		want int
	}{
		{name: "equal", x: []int{1, 2, 3}, y: []int{1, 2, 3}, want: 0},
		{name: "all differ", x: []int{1, 2, 3}, y: []int{3, 1, 2}, want: 3},
		{name: "one differs", x: []int{1, 2, 3}, y: []int{1, 9, 3}, want: 1},
		{name: "empty", x: nil, y: nil, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Distance(tt.x, tt.y); got != tt.want {
				t.Fatalf("Distance = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDistancePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Distance with mismatched lengths did not panic")
		}
	}()
	Distance([]int{1}, []int{1, 2})
}

func TestNewReedSolomonValidation(t *testing.T) {
	tests := []struct {
		name        string
		l, m        int
		q           uint64
		numMessages int
		wantErr     bool
	}{
		{name: "figure preset", l: 1, m: 3, q: 3, numMessages: 3, wantErr: false},
		{name: "full message space", l: 2, m: 4, q: 5, numMessages: 0, wantErr: false},
		{name: "L too small", l: 0, m: 3, q: 3, wantErr: true},
		{name: "M below L", l: 3, m: 2, q: 5, wantErr: true},
		{name: "M above q", l: 1, m: 6, q: 5, wantErr: true},
		{name: "composite q", l: 1, m: 3, q: 4, wantErr: true},
		{name: "too many messages", l: 1, m: 3, q: 3, numMessages: 4, wantErr: true},
		{name: "negative messages", l: 1, m: 3, q: 3, numMessages: -1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewReedSolomon(tt.l, tt.m, tt.q, tt.numMessages)
			if (err != nil) != tt.wantErr {
				t.Fatalf("NewReedSolomon error = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestReedSolomonMatchesFigure1(t *testing.T) {
	// The paper's Figure 1 preset: ℓ=2, α=1 so L=1, M=3, q=3, k=3, and
	// the code-mapping of message 1 is "2,3,1".
	rs, err := NewReedSolomon(1, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{2, 3, 1}, // C(1) in the paper's 1-based indexing = message 0 here
		{3, 1, 2},
		{1, 2, 3},
	}
	for m, w := range want {
		got, err := rs.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if Distance(got, w) != 0 {
			t.Fatalf("Encode(%d) = %v, want %v", m, got, w)
		}
	}
}

func TestReedSolomonParams(t *testing.T) {
	rs, err := NewReedSolomon(2, 7, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, m, d, q := rs.Params()
	if l != 2 || m != 7 || d != 5 || q != 11 {
		t.Fatalf("Params = (%d,%d,%d,%d), want (2,7,5,11)", l, m, d, q)
	}
	if rs.NumMessages() != 121 {
		t.Fatalf("NumMessages = %d, want 121", rs.NumMessages())
	}
}

func TestReedSolomonEncodeRange(t *testing.T) {
	rs, err := NewReedSolomon(1, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Encode(-1); !errors.Is(err, ErrMessageRange) {
		t.Fatalf("Encode(-1) error = %v, want ErrMessageRange", err)
	}
	if _, err := rs.Encode(3); !errors.Is(err, ErrMessageRange) {
		t.Fatalf("Encode(3) error = %v, want ErrMessageRange", err)
	}
}

func TestReedSolomonDistanceExhaustive(t *testing.T) {
	// Theorem 4: distance >= M-L for every pair. Check exhaustively on a
	// spread of parameter choices.
	tests := []struct {
		l, m int
		q    uint64
	}{
		{l: 1, m: 3, q: 3},
		{l: 1, m: 5, q: 5},
		{l: 2, m: 4, q: 5},
		{l: 2, m: 5, q: 7},
		{l: 3, m: 7, q: 7},
		{l: 2, m: 11, q: 11},
		{l: 3, m: 9, q: 13},
	}
	for _, tt := range tests {
		rs, err := NewReedSolomon(tt.l, tt.m, tt.q, 0)
		if err != nil {
			t.Fatal(err)
		}
		report, err := AuditExhaustive(rs)
		if err != nil {
			t.Fatal(err)
		}
		if wantD := tt.m - tt.l; report.MinDistance < wantD {
			t.Fatalf("RS(L=%d,M=%d,q=%d): %v, want min distance >= %d",
				tt.l, tt.m, tt.q, report, wantD)
		}
		// RS actually achieves M-L+1.
		if wantExact := tt.m - tt.l + 1; report.MinDistance != wantExact {
			t.Fatalf("RS(L=%d,M=%d,q=%d): min distance %d, want exactly %d",
				tt.l, tt.m, tt.q, report.MinDistance, wantExact)
		}
	}
}

func TestReedSolomonDistanceSampledLarge(t *testing.T) {
	rs, err := NewReedSolomon(3, 97, 97, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	report, err := AuditSampled(rs, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Satisfies(97 - 3) {
		t.Fatalf("large RS code: %v, want min distance >= 94", report)
	}
}

func TestReedSolomonWordsValid(t *testing.T) {
	rs, err := NewReedSolomon(2, 6, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < rs.NumMessages(); m++ {
		w, err := rs.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateWord(rs, w); err != nil {
			t.Fatalf("message %d: %v", m, err)
		}
	}
}

func TestReedSolomonDeterministic(t *testing.T) {
	rs, err := NewReedSolomon(2, 5, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 10; m++ {
		a := rs.MustEncode(m)
		b := rs.MustEncode(m)
		if Distance(a, b) != 0 {
			t.Fatalf("Encode(%d) not deterministic: %v vs %v", m, a, b)
		}
	}
}

func TestReedSolomonInjective(t *testing.T) {
	rs, err := NewReedSolomon(2, 4, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for m := 0; m < rs.NumMessages(); m++ {
		w := rs.MustEncode(m)
		key := ""
		for _, s := range w {
			key += string(rune('A' + s))
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("messages %d and %d share codeword %v", prev, m, w)
		}
		seen[key] = m
	}
}

func TestReedSolomonQuickDistance(t *testing.T) {
	rs, err := NewReedSolomon(2, 13, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := rs.NumMessages()
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(7)),
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Intn(n))
			vals[1] = reflect.ValueOf(r.Intn(n))
		},
	}
	prop := func(m1, m2 int) bool {
		w1, w2 := rs.MustEncode(m1), rs.MustEncode(m2)
		d := Distance(w1, w2)
		if m1 == m2 {
			return d == 0
		}
		return d >= 13-2
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestIdentityCode(t *testing.T) {
	c, err := NewIdentity(4)
	if err != nil {
		t.Fatal(err)
	}
	l, m, d, q := c.Params()
	if l != 1 || m != 1 || d != 1 || q != 4 {
		t.Fatalf("identity params (%d,%d,%d,%d)", l, m, d, q)
	}
	w, err := c.Encode(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 1 || w[0] != 3 {
		t.Fatalf("identity Encode(2) = %v", w)
	}
	if _, err := c.Encode(4); err == nil {
		t.Fatal("identity Encode(4) should fail")
	}
	if _, err := NewIdentity(0); err == nil {
		t.Fatal("NewIdentity(0) should fail")
	}
}

func TestRepetitionCode(t *testing.T) {
	c, err := NewRepetition(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	report, err := AuditExhaustive(c)
	if err != nil {
		t.Fatal(err)
	}
	if report.MinDistance != 5 {
		t.Fatalf("repetition distance = %d, want 5", report.MinDistance)
	}
	if _, err := NewRepetition(0, 1); err == nil {
		t.Fatal("NewRepetition(0,1) should fail")
	}
}

func TestAuditExhaustiveRefusesHuge(t *testing.T) {
	rs, err := NewReedSolomon(3, 101, 101, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AuditExhaustive(rs); err == nil {
		t.Fatal("AuditExhaustive should refuse 101^3 messages")
	}
}

func TestAuditSampledTinySpace(t *testing.T) {
	c, err := NewIdentity(1)
	if err != nil {
		t.Fatal(err)
	}
	report, err := AuditSampled(c, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if report.PairsChecked != 0 {
		t.Fatalf("single-message audit checked %d pairs", report.PairsChecked)
	}
}

func TestValidateWord(t *testing.T) {
	rs, err := NewReedSolomon(1, 3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateWord(rs, []int{1, 2}); err == nil {
		t.Fatal("short word should fail validation")
	}
	if err := ValidateWord(rs, []int{1, 2, 4}); err == nil {
		t.Fatal("out-of-alphabet symbol should fail validation")
	}
	if err := ValidateWord(rs, []int{0, 2, 3}); err == nil {
		t.Fatal("symbol 0 should fail validation")
	}
	if err := ValidateWord(rs, []int{1, 2, 3}); err != nil {
		t.Fatalf("valid word rejected: %v", err)
	}
}

func BenchmarkReedSolomonEncode(b *testing.B) {
	rs, err := NewReedSolomon(2, 16, 17, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rs.MustEncode(i % rs.NumMessages())
	}
}

// TestAuditAffineMatchesPairwise pins the linear-time Reed–Solomon audit
// to the pairwise one, whole report for whole report: on the six presets
// of the codes experiment and on every (L, M, q) with L ≤ 3 and prime
// q ≤ 13. A truncated message set is not affine and must take the
// pairwise path.
func TestAuditAffineMatchesPairwise(t *testing.T) {
	type params struct {
		l, m int
		q    uint64
	}
	cases := []params{{1, 3, 3}, {1, 5, 5}, {2, 4, 5}, {2, 8, 11}, {3, 9, 13}, {2, 16, 17}}
	for _, q := range []uint64{2, 3, 5, 7, 11, 13} {
		for l := 1; l <= 3; l++ {
			for m := l; m <= int(q); m++ {
				cases = append(cases, params{l, m, q})
			}
		}
	}
	for _, p := range cases {
		rs, err := NewReedSolomon(p.l, p.m, p.q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rs.fullSpace() {
			t.Fatalf("RS(L=%d,M=%d,q=%d) over its full space reads as truncated", p.l, p.m, p.q)
		}
		fast, err := AuditExhaustive(rs)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := auditPairwise(rs)
		if err != nil {
			t.Fatal(err)
		}
		if fast != oracle {
			t.Fatalf("RS(L=%d,M=%d,q=%d): affine audit %+v, pairwise %+v", p.l, p.m, p.q, fast, oracle)
		}
	}

	truncated, err := NewReedSolomon(2, 4, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if truncated.fullSpace() {
		t.Fatal("7 of 25 messages read as the full space")
	}
	got, err := AuditExhaustive(truncated)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := auditPairwise(truncated); got != want || got.PairsChecked != 21 {
		t.Fatalf("truncated audit %+v, want %+v over 21 pairs", got, want)
	}
}
