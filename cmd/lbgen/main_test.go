package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLbgenLinear(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-family", "linear", "-t", "2", "-alpha", "1", "-ell", "3",
		"-case", "intersecting", "-solve"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"family:", "nodes:", "cut size:", "exact OPT:", "gap:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLbgenQuadraticDOT(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-family", "quadratic", "-t", "2", "-alpha", "1", "-ell", "2",
		"-case", "disjoint", "-dot"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph \"quadratic[") {
		t.Fatalf("DOT output missing:\n%.200s", buf.String())
	}
}

// TestLbgenDOTGolden pins lbgen's whole -dot output, node names included,
// for one instance of each family.
func TestLbgenDOTGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"linear-t2-a1-l3-intersecting.dot.golden",
			[]string{"-family", "linear", "-t", "2", "-alpha", "1", "-ell", "3", "-case", "intersecting", "-seed", "1", "-dot"}},
		{"quadratic-t2-a1-l2-disjoint.dot.golden",
			[]string{"-family", "quadratic", "-t", "2", "-alpha", "1", "-ell", "2", "-case", "disjoint", "-seed", "1", "-dot"}},
	} {
		var buf bytes.Buffer
		if err := run(tc.args, &buf); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%v: output differs from testdata/%s", tc.args, tc.golden)
		}
	}
}

func TestLbgenFixedCase(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-case", "fixed"}, &buf); err != nil {
		t.Fatal(err)
	}
}

func TestLbgenErrors(t *testing.T) {
	tests := [][]string{
		{"-family", "bogus"},
		{"-case", "bogus"},
		{"-t", "1"},
		{"-alpha", "0"},
	}
	for _, args := range tests {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
