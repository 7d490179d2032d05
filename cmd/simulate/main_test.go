package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSimulateBothCases runs both promise cases, and the default case at
// B = 72 bits (GossipExact's largest record) and B = 80. At those two
// bandwidths the transcript exceeds T·|cut|·B; it fits the bound, which
// counts both directions of every cut edge.
func TestSimulateBothCases(t *testing.T) {
	for _, args := range [][]string{
		{"-case", "intersecting"},
		{"-case", "disjoint"},
		{"-bandwidth", "72"},
		{"-bandwidth", "80"},
	} {
		var buf bytes.Buffer
		err := run(append([]string{"-t", "2", "-alpha", "1", "-ell", "3"}, args...), &buf)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, buf.String())
		}
		out := buf.String()
		for _, want := range []string{"accounting holds:  true", "correct=true"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%v missing %q:\n%s", args, want, out)
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
