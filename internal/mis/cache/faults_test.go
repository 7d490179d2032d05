package cache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"congestlb/internal/fault"
	"congestlb/internal/mis"
)

// armFaults installs a fault-injection plan for one test and restores the
// previous injector afterwards. Fault tests must not run in parallel:
// the injector is process-global.
func armFaults(t *testing.T, spec string) {
	t.Helper()
	inj, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Set(inj)
	t.Cleanup(func() { fault.Set(prev) })
}

// TestDiskReadRetryThenServe: transient read errors are retried with
// backoff, counted, and the entry is still served — a flaky disk costs
// retries, not solves. The *2 budget fails attempts 0 and 1; the third
// (and last) attempt succeeds.
func TestDiskReadRetryThenServe(t *testing.T) {
	dir := t.TempDir()
	g := buildGraph(t, 12, 0.3, 7)
	first := New(8)
	if err := first.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := first.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Armed only now, so the cold run's own lookup doesn't consume the
	// read budget.
	armFaults(t, "42:disk-read*2")
	second := New(8)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := second.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight {
		t.Fatalf("retried read served weight %d, want %d", got.Weight, want.Weight)
	}
	st := second.Stats()
	if st.DiskHits != 1 || st.StepsSolved != 0 {
		t.Fatalf("entry not served from disk after retries: %+v", st)
	}
	if st.DiskRetries != 2 {
		t.Fatalf("DiskRetries = %d, want 2 (the *2 budget)", st.DiskRetries)
	}
}

// TestDiskWriteRetryThenPersist: the same contract on the write path —
// injected write failures burn retries, the entry still lands, and a
// second cache over the directory serves it.
func TestDiskWriteRetryThenPersist(t *testing.T) {
	dir := t.TempDir()
	g := buildGraph(t, 12, 0.3, 7)
	armFaults(t, "42:disk-write*2")
	first := New(8)
	if err := first.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	st := first.Stats()
	if st.DiskWrites != 1 {
		t.Fatalf("entry not persisted after retries: %+v", st)
	}
	if st.DiskRetries != 2 {
		t.Fatalf("DiskRetries = %d, want 2 (the *2 budget)", st.DiskRetries)
	}

	second := New(8)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.DiskHits != 1 {
		t.Fatalf("retried write produced no servable entry: %+v", st)
	}
}

// TestDiskCorruptEntryQuarantined: an entry whose bytes rot on disk (the
// disk-corrupt point flips bits at read time) is moved to the
// quarantine/ sidecar with a reason suffix — preserved for inspection,
// never re-served, never silently deleted — and the solve falls back to
// branch-and-bound.
func TestDiskCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	g := buildGraph(t, 12, 0.3, 7)
	first := New(8)
	if err := first.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := first.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entry := diskEntryPath(t, dir)

	armFaults(t, "42:disk-corrupt*1")
	second := New(8)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := second.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight {
		t.Fatalf("post-quarantine solve weight %d, want %d", got.Weight, want.Weight)
	}
	st := second.Stats()
	if st.DiskHits != 0 || st.DiskMisses != 1 || st.StepsSolved == 0 {
		t.Fatalf("corrupt entry not treated as a miss with fresh solve: %+v", st)
	}
	if st.DiskQuarantined != 1 {
		t.Fatalf("DiskQuarantined = %d, want 1", st.DiskQuarantined)
	}
	// The main path holds a freshly re-written entry (the fallback solve
	// stores its result); a third cache must serve it cleanly.
	third := New(8)
	if err := third.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := third.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := third.Stats(); st.DiskHits != 1 {
		t.Fatalf("re-written entry not served: %+v", st)
	}
	qfiles, err := os.ReadDir(filepath.Join(dir, quarantineDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(qfiles) != 1 {
		t.Fatalf("quarantine holds %d file(s), want 1", len(qfiles))
	}
	name := qfiles[0].Name()
	if !strings.HasPrefix(name, filepath.Base(entry)+".") {
		t.Fatalf("quarantined file %q does not carry a reason suffix on %q", name, filepath.Base(entry))
	}
}

// TestDiskTmpOrphanSweep: attach-time hygiene. A tmp-* file stranded by a
// crashed writer is deleted once it is old enough; a fresh tmp-* file (a
// concurrent writer mid-rename) is left alone; the quarantine sidecar
// and real entries are untouched.
func TestDiskTmpOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "tmp-stranded")
	fresh := filepath.Join(dir, "tmp-inflight")
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := time.Now().Add(-2 * tmpOrphanAge)
	if err := os.Chtimes(old, stale, stale); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDirName), 0o755); err != nil {
		t.Fatal(err)
	}

	c := New(8)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Fatalf("stale tmp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh tmp file swept: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName)); err != nil {
		t.Fatalf("quarantine sidecar swept: %v", err)
	}
}

// TestDiskFaultsDisabledNoRetries: with no injector the retry loop runs
// exactly once per I/O and books nothing — the disabled-path guard.
func TestDiskFaultsDisabledNoRetries(t *testing.T) {
	prev := fault.Set(nil)
	t.Cleanup(func() { fault.Set(prev) })
	dir := t.TempDir()
	g := buildGraph(t, 12, 0.3, 7)
	c := New(8)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskRetries != 0 || st.DiskQuarantined != 0 {
		t.Fatalf("clean run booked fault traffic: %+v", st)
	}
}
