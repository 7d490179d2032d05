package cache

import (
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

// buildGraph is a seeded random graph for disk-tier tests.
func buildGraph(t *testing.T, n int, p float64, seed int64) *graphs.Graph {
	t.Helper()
	return randomGraph(n, p, 6, rand.New(rand.NewSource(seed)))
}

// TestDiskRoundTrip is the cross-process story in miniature: a cache with a
// disk tier solves once and persists; a brand-new cache over the same
// directory (a "second process") serves the solve from disk without any
// branch-and-bound.
func TestDiskRoundTrip(t *testing.T) {
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
	st := first.Stats()
	if st.DiskMisses != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
		t.Fatalf("cold run disk stats: %+v", st)
	}

	second := New(8)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := second.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Weight != want.Weight || !reflect.DeepEqual(got.Set, want.Set) {
		t.Fatalf("disk-served solution %+v differs from solved %+v", got, want)
	}
	st = second.Stats()
	if st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Fatalf("warm run disk stats: %+v", st)
	}
	if st.StepsSolved != 0 {
		t.Fatalf("warm run ran branch-and-bound: %+v", st)
	}
	if st.StepsSaved != want.Steps {
		t.Fatalf("warm run StepsSaved = %d, want the persisted %d", st.StepsSaved, want.Steps)
	}
}

// diskEntryPath returns the single entry file a one-solve cache wrote.
func diskEntryPath(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no entry file written")
	return ""
}

// TestDiskCorruptionFallsBackToSolve truncates and garbages the persisted
// entry: both must be discarded and re-solved, never trusted.
func TestDiskCorruptionFallsBackToSolve(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
	}{
		{name: "truncated", corrupt: func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		}},
		{name: "garbage", corrupt: func(path string) error {
			return os.WriteFile(path, []byte("{\"schema\":\"congestlb/solve-cache/v1\",\"weight\":999999}"), 0o644)
		}},
		{name: "wrong set", corrupt: func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Claim an absurd weight for the recorded set: Verify's weight
			// cross-check must reject it.
			return os.WriteFile(path, []byte(strings.Replace(string(data), "\"weight\":", "\"weight\":1", 1)), 0o644)
		}},
		{name: "below seed", corrupt: func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// An independent set with its true weight, but lighter than
			// the greedy seed every exact search starts from: one node.
			var e diskEntry
			if err := json.Unmarshal(data, &e); err != nil {
				return err
			}
			e.Set = e.Set[:1]
			e.Weight = buildGraph(t, 12, 0.3, 7).Weight(e.Set[0])
			if data, err = json.Marshal(e); err != nil {
				return err
			}
			return os.WriteFile(path, data, 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			if err := tc.corrupt(diskEntryPath(t, dir)); err != nil {
				t.Fatal(err)
			}

			second := New(8)
			if err := second.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			got, err := second.Exact(g, mis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Weight != want.Weight {
				t.Fatalf("post-corruption solve weight %d, want %d", got.Weight, want.Weight)
			}
			st := second.Stats()
			if st.DiskHits != 0 {
				t.Fatalf("corrupt entry served as a hit: %+v", st)
			}
			if st.DiskMisses != 1 || st.StepsSolved == 0 {
				t.Fatalf("corrupt entry did not fall back to a fresh solve: %+v", st)
			}
		})
	}
}

// TestDiskSizeBoundEvicts caps the tier low enough that distinct solves
// push each other out, oldest first.
func TestDiskSizeBoundEvicts(t *testing.T) {
	dir := t.TempDir()
	c := New(16)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	// ~2 entries worth of budget: entries here are ≈150-300 bytes.
	c.disk.files.bound = 600
	for seed := int64(0); seed < 5; seed++ {
		if _, err := c.Exact(buildGraph(t, 10+int(seed), 0.3, 100+seed), mis.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.DiskWrites != 5 {
		t.Fatalf("writes = %d, want 5 (%+v)", st.DiskWrites, st)
	}
	if st.DiskEvictions == 0 {
		t.Fatalf("size bound never evicted: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") {
			left++
		}
	}
	if uint64(left) != 5-st.DiskEvictions {
		t.Fatalf("%d entry files on disk, stats claim %d evicted of 5", left, st.DiskEvictions)
	}
}

// TestSolverGenerationRetiresEntries: an entry written under the current
// solver generation is served; under the next generation the same solve
// has another key, so the entry is never found. That is a plain disk
// miss, with nothing quarantined.
func TestSolverGenerationRetiresEntries(t *testing.T) {
	dir := t.TempDir()
	g := buildGraph(t, 12, 0.3, 7)
	c := New(8)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := c.Exact(g, mis.Options{})
	if err != nil {
		t.Fatal(err)
	}

	d, err := newDiskTier(dir)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := keyOf(g, mis.Options{}, solverGeneration)
	sol, ok, st := d.load(cur, g)
	if !ok || !reflect.DeepEqual(sol.Set, want.Set) || st != (Stats{DiskHits: 1, StepsSaved: want.Steps}) {
		t.Fatalf("current generation: served %v %+v, booked %+v; want %+v", ok, sol, st, want)
	}
	next, _ := keyOf(g, mis.Options{}, solverGeneration+1)
	if _, ok, st := d.load(next, g); ok || st != (Stats{DiskMisses: 1}) {
		t.Fatalf("next generation: served %v, booked %+v; want a plain disk miss", ok, st)
	}
}

// TestDiskForeignFilesIgnored drops unrelated files into the directory:
// the tier must neither index nor delete them.
func TestDiskForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(foreign, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	notHex := filepath.Join(dir, "zz-not-hex.json")
	if err := os.WriteFile(notHex, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(8)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exact(buildGraph(t, 10, 0.4, 3), mis.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{foreign, notHex} {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("foreign file %s disturbed: %v", path, err)
		}
	}
}

// TestDiskKeyMismatchRejected renames a valid entry to another key's name:
// the embedded key must unmask it.
func TestDiskKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	g := buildGraph(t, 12, 0.3, 7)
	c := New(8)
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exact(g, mis.Options{}); err != nil {
		t.Fatal(err)
	}
	// Impersonate the key of the same graph under a different step budget.
	otherKey, ok := KeyOf(g, mis.Options{MaxSteps: 123})
	if !ok {
		t.Fatal("key not computable")
	}
	src := diskEntryPath(t, dir)
	dst := filepath.Join(dir, hex.EncodeToString(otherKey[:])+".json")
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}

	second := New(8)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Exact(g, mis.Options{MaxSteps: 123}); err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.DiskHits != 0 {
		t.Fatalf("renamed entry impersonated another solve: %+v", st)
	}
	if st.DiskMisses != 1 || st.DiskWrites != 1 {
		t.Fatalf("impersonator not discarded and re-solved: %+v", st)
	}
	// The fresh solve rewrote the slot; the entry there now declares the
	// right key.
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatalf("re-solved entry missing: %v", err)
	}
	if !strings.Contains(string(data), hex.EncodeToString(otherKey[:])) {
		t.Fatalf("rewritten entry does not embed its own key:\n%s", data)
	}
}

// FuzzDiskLoad writes arbitrary bytes as the entry file of a 4-node
// path's key and loads it. load never panics, and exactly one of two
// things happens: it serves a sorted set that mis.Verify accepts with the
// served weight, at least the greedy seed's, booked as one disk hit, or
// the file has left its path and the delta books one quarantine and one
// disk miss. Every input
// reuses one tier directory, so an exec costs the entry's own I/O and
// not a directory created and removed around it.
func FuzzDiskLoad(f *testing.F) {
	g := pathGraph(4)
	key, _ := KeyOf(g, mis.Options{})
	d, err := newDiskTier(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := d.path(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sol, ok, st := d.load(key, g)
		if ok {
			if !sort.IntsAreSorted(sol.Set) {
				t.Fatalf("served set %v is not sorted", sol.Set)
			}
			if w, err := mis.Verify(g, sol.Set); err != nil || w != sol.Weight {
				t.Fatalf("served set %v with weight %d; Verify says %d, %v", sol.Set, sol.Weight, w, err)
			}
			if seed := mis.SeedIncumbent(g).Weight; sol.Weight < seed {
				t.Fatalf("served set %v of weight %d below the greedy seed's %d", sol.Set, sol.Weight, seed)
			}
			if want := (Stats{DiskHits: 1, StepsSaved: sol.Steps}); st != want {
				t.Fatalf("served entry booked %+v, want %+v", st, want)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected entry is still at its path (stat: %v)", err)
		}
		if want := (Stats{DiskMisses: 1, DiskQuarantined: 1}); st != want {
			t.Fatalf("rejected entry booked %+v, want %+v", st, want)
		}
	})
}
