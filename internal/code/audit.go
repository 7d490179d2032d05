package code

import (
	"fmt"
	"math/rand"
)

// AuditReport summarises a distance audit of a code: how many message pairs
// were checked, the minimum observed distance and the pair achieving it.
type AuditReport struct {
	// PairsChecked is the number of distinct message pairs whose distance
	// was measured.
	PairsChecked int
	// MinDistance is the smallest pairwise distance observed.
	MinDistance int
	// ArgMin is the message pair (m1, m2) achieving MinDistance.
	ArgMin [2]int
	// Exhaustive reports whether every pair was checked (true) or only a
	// random sample (false).
	Exhaustive bool
}

// Satisfies reports whether the audit observed no pair below the declared
// distance d.
func (r AuditReport) Satisfies(d int) bool { return r.MinDistance >= d }

// String implements fmt.Stringer.
func (r AuditReport) String() string {
	mode := "sampled"
	if r.Exhaustive {
		mode = "exhaustive"
	}
	return fmt.Sprintf("audit(%s): %d pairs, min distance %d at (%d,%d)",
		mode, r.PairsChecked, r.MinDistance, r.ArgMin[0], r.ArgMin[1])
}

// AuditExhaustive measures the distance of every pair of distinct messages.
// It is intended for codes with at most a few thousand messages and
// returns an error above the safety threshold.
//
// A ReedSolomon code over its full message space is affine: codeword m is
// the evaluation of a fixed polynomial plus the one whose coefficients are
// m's base-q digits. So d(i, j) = d(0, j ⊖ i), with ⊖ digit-wise
// subtraction mod q, and the report follows from the n−1 distances
// d(0, k): their minimum, reached first in the scan at pair (0, k) for
// the least such k. Every other code, and a truncated message set, is
// audited pair by pair in quadratic time.
func AuditExhaustive(c Code) (AuditReport, error) {
	n := c.NumMessages()
	const maxMessages = 1 << 13
	if n > maxMessages {
		return AuditReport{}, fmt.Errorf("code: refusing exhaustive audit of %d messages (max %d); use AuditSampled", n, maxMessages)
	}
	if rs, ok := c.(*ReedSolomon); ok && rs.fullSpace() {
		return auditAffine(rs)
	}
	return auditPairwise(c)
}

// auditAffine is AuditExhaustive for a ReedSolomon code over its full
// message space, in time linear in the number of messages.
func auditAffine(rs *ReedSolomon) (AuditReport, error) {
	n := rs.NumMessages()
	report := AuditReport{PairsChecked: n * (n - 1) / 2, MinDistance: int(^uint(0) >> 1), Exhaustive: true}
	zero, err := rs.Encode(0)
	if err != nil {
		return AuditReport{}, fmt.Errorf("code: audit encode 0: %w", err)
	}
	for k := 1; k < n; k++ {
		w, err := rs.Encode(k)
		if err != nil {
			return AuditReport{}, fmt.Errorf("code: audit encode %d: %w", k, err)
		}
		if d := Distance(zero, w); d < report.MinDistance {
			report.MinDistance = d
			report.ArgMin = [2]int{0, k}
		}
	}
	if report.PairsChecked == 0 {
		report.MinDistance = 0
	}
	return report, nil
}

// auditPairwise is AuditExhaustive for any code: it measures every pair.
func auditPairwise(c Code) (AuditReport, error) {
	n := c.NumMessages()
	words := make([][]int, n)
	for m := 0; m < n; m++ {
		w, err := c.Encode(m)
		if err != nil {
			return AuditReport{}, fmt.Errorf("code: audit encode %d: %w", m, err)
		}
		words[m] = w
	}
	report := AuditReport{MinDistance: int(^uint(0) >> 1), Exhaustive: true}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := Distance(words[i], words[j])
			report.PairsChecked++
			if d < report.MinDistance {
				report.MinDistance = d
				report.ArgMin = [2]int{i, j}
			}
		}
	}
	if report.PairsChecked == 0 {
		report.MinDistance = 0
	}
	return report, nil
}

// AuditSampled measures the distance of `pairs` uniformly random pairs of
// distinct messages, using the given random source for reproducibility.
func AuditSampled(c Code, pairs int, rng *rand.Rand) (AuditReport, error) {
	n := c.NumMessages()
	if n < 2 {
		return AuditReport{Exhaustive: true}, nil
	}
	report := AuditReport{MinDistance: int(^uint(0) >> 1)}
	for i := 0; i < pairs; i++ {
		m1 := rng.Intn(n)
		m2 := rng.Intn(n - 1)
		if m2 >= m1 {
			m2++
		}
		w1, err := c.Encode(m1)
		if err != nil {
			return AuditReport{}, fmt.Errorf("code: audit encode %d: %w", m1, err)
		}
		w2, err := c.Encode(m2)
		if err != nil {
			return AuditReport{}, fmt.Errorf("code: audit encode %d: %w", m2, err)
		}
		d := Distance(w1, w2)
		report.PairsChecked++
		if d < report.MinDistance {
			report.MinDistance = d
			report.ArgMin = [2]int{m1, m2}
		}
	}
	if report.PairsChecked == 0 {
		report.MinDistance = 0
	}
	return report, nil
}

// ValidateWord checks that a codeword has the declared length and that all
// symbols are within the alphabet [1, q].
func ValidateWord(c Code, word []int) error {
	_, m, _, q := c.Params()
	if len(word) != m {
		return fmt.Errorf("code: word length %d, want %d", len(word), m)
	}
	for h, s := range word {
		if s < 1 || s > q {
			return fmt.Errorf("code: symbol %d at position %d outside alphabet [1,%d]", s, h, q)
		}
	}
	return nil
}
