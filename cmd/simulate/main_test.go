package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSimulateBothCases(t *testing.T) {
	for _, c := range []string{"intersecting", "disjoint"} {
		var buf bytes.Buffer
		err := run([]string{"-t", "2", "-alpha", "1", "-ell", "3", "-case", c}, &buf)
		if err != nil {
			t.Fatalf("case %s: %v", c, err)
		}
		out := buf.String()
		for _, want := range []string{"accounting holds:  true", "correct=true"} {
			if !strings.Contains(out, want) {
				t.Fatalf("case %s missing %q:\n%s", c, want, out)
			}
		}
	}
}

func TestSimulateRejectsVacuousGap(t *testing.T) {
	var buf bytes.Buffer
	// ℓ=2, t=2, α=1: ℓ ≤ αt, gap vacuous.
	if err := run([]string{"-t", "2", "-alpha", "1", "-ell", "2"}, &buf); err == nil {
		t.Fatal("vacuous gap accepted")
	}
}

func TestSimulateRejectsBadCase(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-case", "bogus"}, &buf); err == nil {
		t.Fatal("bad case accepted")
	}
}
