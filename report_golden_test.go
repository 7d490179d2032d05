package congestlb_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateReport = flag.Bool("update", false, "rewrite "+suiteReportGolden+" from the current suite")

const suiteReportGolden = "testdata/suite_report.golden.md"

// TestSuiteReportGolden pins the full suite report across commits: a fresh
// Lab running every registered experiment must write the golden file byte
// for byte. The determinism suites only compare runs of one commit with
// each other; this is the check that a change leaves the report alone.
// Regenerate the file, for an intended report change only, with
//
//	go test -run TestSuiteReportGolden -update .
func TestSuiteReportGolden(t *testing.T) {
	lab := newTestLab(t)
	var got bytes.Buffer
	if _, err := lab.RunExperiments(context.Background(), nil, &got); err != nil {
		t.Fatal(err)
	}
	if *updateReport {
		if err := os.WriteFile(suiteReportGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(suiteReportGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("suite report differs from %s at %s", suiteReportGolden, firstLineDiff(want, got.Bytes()))
	}
}

// firstLineDiff names the first line where got departs from want.
func firstLineDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return fmt.Sprintf("line %d:\nwant: %s\n got: %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("the end: want %d lines, got %d", len(w), len(g))
}
