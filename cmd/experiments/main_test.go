package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"congestlb"
	"congestlb/internal/fault"
	"congestlb/internal/runner"
)

func TestExperimentsList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"figure1", "theorem5", "cutsize"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestExperimentsSingle(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-id", "figure1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "C(1)") {
		t.Fatalf("figure1 output unexpected:\n%s", buf.String())
	}
}

func TestExperimentsMultiple(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-id", "figure2, codes"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## figure2") || !strings.Contains(out, "## codes") {
		t.Fatalf("multi-id output unexpected:\n%.300s", out)
	}
}

func TestExperimentsShardedMatchesSequential(t *testing.T) {
	ids := "figure1,codes,cutsize,twoparty"
	var sequential bytes.Buffer
	if err := run([]string{"-id", ids, "-jobs", "1"}, &sequential); err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if err := run([]string{"-id", ids, "-jobs", "4"}, &sharded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sequential.Bytes(), sharded.Bytes()) {
		t.Fatal("-jobs 4 markdown differs from -jobs 1")
	}
}

func TestExperimentsJSONEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.json")
	var buf bytes.Buffer
	if err := run([]string{"-id", "figure1,codes", "-jobs", "2", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env runner.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if env.Schema != runner.Schema {
		t.Fatalf("schema %q", env.Schema)
	}
	if env.OK != 2 || env.Failed != 0 || len(env.Experiments) != 2 {
		t.Fatalf("envelope counts: %+v", env)
	}
	if env.Experiments[0].ID != "figure1" || env.Experiments[1].ID != "codes" {
		t.Fatalf("envelope order: %s, %s", env.Experiments[0].ID, env.Experiments[1].ID)
	}
}

// TestExperimentsCacheDirWarmRun is the persistence story end to end: a
// cold run with -cache-dir writes solve entries; a second run over the
// same directory (on a fresh Lab, so with an empty in-memory cache, as a
// new process would be) reports disk hits and no fresh solver work for
// those graphs.
func TestExperimentsCacheDirWarmRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "solvecache")
	ids := "figure1,twoparty"

	coldPath := filepath.Join(t.TempDir(), "cold.json")
	if err := run([]string{"-id", ids, "-cache-dir", dir, "-json", coldPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	cold := readEnvelope(t, coldPath)
	if cold.Cache.DiskWrites == 0 {
		t.Fatalf("cold run persisted nothing: %+v", cold.Cache)
	}
	if cold.Cache.DiskHits != 0 {
		t.Fatalf("cold run claims disk hits: %+v", cold.Cache)
	}

	warmPath := filepath.Join(t.TempDir(), "warm.json")
	if err := run([]string{"-id", ids, "-cache-dir", dir, "-json", warmPath}, io.Discard); err != nil {
		t.Fatal(err)
	}
	warm := readEnvelope(t, warmPath)
	if warm.Cache.DiskHits == 0 {
		t.Fatalf("warm run served nothing from disk: %+v", warm.Cache)
	}
	if warm.Cache.StepsSolved >= cold.Cache.StepsSolved {
		t.Fatalf("warm run did not skip solver work: cold %d steps, warm %d",
			cold.Cache.StepsSolved, warm.Cache.StepsSolved)
	}
}

func readEnvelope(t *testing.T, path string) runner.Envelope {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env runner.Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("envelope %s: %v", path, err)
	}
	return env
}

// TestExperimentsSolverWorkersFlag: the solver has no worker count, so
// -solver-workers is an unknown flag that fails the run before anything
// is written, and the envelope carries no solver_workers field.
func TestExperimentsSolverWorkersFlag(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "stale.json")
	var out bytes.Buffer
	err := run([]string{"-id", "figure1", "-jobs", "1", "-solver-workers", "4", "-json", stale}, &out)
	if err == nil || !strings.Contains(err.Error(), "solver-workers") {
		t.Fatalf("run with -solver-workers: err = %v, want an unknown-flag error", err)
	}
	if _, statErr := os.Stat(stale); !os.IsNotExist(statErr) {
		t.Fatalf("rejected run wrote an envelope: %v", statErr)
	}
	path := filepath.Join(dir, "env.json")
	if err := run([]string{"-id", "figure1", "-jobs", "1", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("solver_workers")) {
		t.Fatal("envelope still carries solver_workers")
	}
}

// TestExperimentsTimeoutPartialEnvelope pins the -timeout contract with an
// already-expired deadline (deterministic: nothing gets to run): the
// command exits non-zero with a partial-envelope note, the envelope is
// still complete — one record per selected experiment — and every
// unfinished experiment is flagged cancelled.
func TestExperimentsTimeoutPartialEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "env.json")
	var buf bytes.Buffer
	err := run([]string{"-id", "figure1,codes", "-timeout", "1ns", "-json", path}, &buf)
	if err == nil {
		t.Fatal("expired -timeout did not fail the run")
	}
	if !strings.Contains(err.Error(), "envelope is partial") {
		t.Fatalf("missing partial-envelope note: %v", err)
	}
	env := readEnvelope(t, path)
	if len(env.Experiments) != 2 {
		t.Fatalf("partial envelope lost records: %+v", env)
	}
	if env.Cancelled != 2 || env.Failed != 2 {
		t.Fatalf("cancelled=%d failed=%d, want 2/2", env.Cancelled, env.Failed)
	}
	for _, r := range env.Experiments {
		if !r.Cancelled {
			t.Fatalf("%s not flagged cancelled: %+v", r.ID, r)
		}
		if r.Status != runner.StatusFailed {
			t.Fatalf("%s status %q", r.ID, r.Status)
		}
	}
	if !strings.Contains(buf.String(), "**FAILED**") {
		t.Fatalf("report missing cancellation markers:\n%s", buf.String())
	}
}

// TestExperimentsTimeoutGenerous pins the other side: a deadline far above
// the run's cost changes nothing.
func TestExperimentsTimeoutGenerous(t *testing.T) {
	var plain, timed bytes.Buffer
	if err := run([]string{"-id", "figure1", "-jobs", "1"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-id", "figure1", "-jobs", "1", "-timeout", "10m"}, &timed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), timed.Bytes()) {
		t.Fatal("generous -timeout changed the report")
	}
}

func TestExperimentsUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-id", "nope"}, &buf); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// TestExperimentsFaultEnv: a spec in CONGESTLB_FAULTS arms the fault
// layer for the run, an unset variable leaves it disarmed, and a
// malformed spec fails the run with an error naming the variable.
func TestExperimentsFaultEnv(t *testing.T) {
	for _, tc := range []struct {
		name, spec   string
		armed, fails bool
	}{
		{"unset", "", false, false},
		{"armed", "1:disk-read", true, false},
		{"malformed", "nonsense", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(congestlb.FaultEnv, tc.spec)
			if tc.spec == "" {
				if err := os.Unsetenv(congestlb.FaultEnv); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(func() { fault.Set(nil) })
			err := run([]string{"-list"}, io.Discard)
			if tc.fails {
				if err == nil || !strings.Contains(err.Error(), congestlb.FaultEnv) {
					t.Fatalf("err = %v, want an error naming %s", err, congestlb.FaultEnv)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if got := fault.Should(fault.DiskRead, "k"); got != tc.armed {
				t.Fatalf("disk-read fired = %v, want %v", got, tc.armed)
			}
		})
	}
}

func TestExperimentsToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var buf bytes.Buffer
	if err := run([]string{"-id", "figure1", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "figure1") {
		t.Fatal("file report missing content")
	}
}

// TestExperimentsProfileFlags: -cpuprofile/-memprofile write non-empty
// pprof files on a clean run AND when -timeout cancels the run — the
// profile of a stuck sweep is precisely the artefact the flags exist for.
func TestExperimentsProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-id", "figure1", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}

	// The timeout path: the run errors, the profiles still land.
	cpu2 := filepath.Join(dir, "cpu-timeout.pprof")
	mem2 := filepath.Join(dir, "mem-timeout.pprof")
	err := run([]string{"-id", "scaling,theorem5,upperbounds", "-timeout", "1ms",
		"-cpuprofile", cpu2, "-memprofile", mem2}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("1ms timeout did not cancel the run: %v", err)
	}
	for _, p := range []string{cpu2, mem2} {
		st, statErr := os.Stat(p)
		if statErr != nil {
			t.Fatalf("profile not written on timeout: %v", statErr)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty after timeout", p)
		}
	}
}
