// Persistent on-disk tier of the solve cache.
//
// Entries are content-addressed by the same SHA-256 canonical hash as the
// in-memory tier, one JSON file per solve named <hex(key)>.json. Files are
// written atomically (temp file + fsync + rename + parent-directory fsync)
// so a crashed or concurrent writer can never leave a half-entry that
// parses, and a completed store survives power loss; on load every entry
// is re-validated against the live graph (schema, key, independence,
// weight, and a weight no lower than the greedy seed of the search), so
// truncated or garbage files — however they got there — fall back to a
// fresh solve. Invalid entries are not deleted but moved into a
// `quarantine/` sidecar directory (suffixed with the rejection reason) so
// operators can inspect what corrupted them; transient read/write errors
// are retried with a short backoff before giving up. Both paths are
// counted in the Stats delta each load and store returns (DiskQuarantined
// / DiskRetries). The tier is bounded to diskBytes by the same lru type as
// the in-memory tiers (lru.go), each file sized in bytes: the attach-time
// index seed (oldest mtime first), every load and every store make an
// entry the most recently used, and the files the bound evicts are
// deleted. Orphaned tmp-* files a crashed writer left behind are swept on
// attach once they are old enough to be provably dead.
//
// The point of the tier is cross-process reuse: a second experiment-suite
// run, a CI re-run or a benchmark iteration with the same -cache-dir skips
// branch-and-bound entirely for every graph the previous process already
// solved.
package cache

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"congestlb/internal/fault"
	"congestlb/internal/graphs"
	"congestlb/internal/mis"
)

const (
	// diskAttempts bounds how many times a transient read/write error is
	// tried in total; diskBackoff is the sleep before the first retry,
	// doubling per attempt. The budget is deliberately tiny — the tier is
	// an optimisation, so after ~1.5 ms of bad luck the caller re-solves.
	diskAttempts = 3
	diskBackoff  = 500 * time.Microsecond

	// quarantineDirName is the sidecar directory (inside the tier
	// directory) that invalid entries are moved to instead of deleted.
	quarantineDirName = "quarantine"

	// tmpOrphanAge is how old a tmp-* file must be before the attach-time
	// sweep deletes it: anything younger may belong to a live writer in
	// another process racing the attach.
	tmpOrphanAge = time.Minute
)

// diskSchema identifies the entry format; bump on incompatible change (old
// entries then fail validation and are re-solved, never mis-read).
const diskSchema = "congestlb/solve-cache/v1"

// diskBytes is the disk tier's size bound. Entries are a few hundred
// bytes (a node-ID list plus counters), so this comfortably holds every
// distinct solve the experiment suite can produce.
const diskBytes = 64 << 20

// diskEntry is the JSON schema of one persisted solve.
type diskEntry struct {
	Schema string `json:"schema"`
	// Key is the hex canonical hash, duplicated inside the file so a
	// renamed or copied entry cannot impersonate another solve.
	Key    string          `json:"key"`
	Weight int64           `json:"weight"`
	Steps  int64           `json:"steps"`
	Set    []graphs.NodeID `json:"set"`
}

// diskTier is the bookkeeping over one directory. The lock guards only
// the recency index — file I/O, JSON codecs and witness verification all
// run outside it, so concurrent jobs missing on different keys do not
// serialise behind each other's disk reads (atomic rename already makes
// the files themselves safe) — and it is never taken while the owning
// Cache's lock is held.
type diskTier struct {
	dir string

	mu    sync.Mutex
	files *lru[struct{}] // sized in bytes
}

// newDiskTier attaches a directory, creating it if needed and indexing any
// entries a previous process left behind (recency seeded from mtime, and
// the oldest beyond the byte bound deleted).
func newDiskTier(dir string) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	d := &diskTier{dir: dir, files: newLRU[struct{}](diskBytes)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	type seen struct {
		key   Key
		size  int64
		mtime time.Time
	}
	var found []seen
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			// A crashed writer's orphan. Swept only once it is old enough
			// that no live writer (this process or another sharing the
			// directory) can still be about to rename it.
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) >= tmpOrphanAge {
				_ = os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".json"))
		if err != nil || len(raw) != len(Key{}) {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		var k Key
		copy(k[:], raw)
		found = append(found, seen{key: k, size: info.Size(), mtime: info.ModTime()})
	}
	// Oldest first so the LRU ends up newest-at-front.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found {
		d.use(f.key, f.size)
	}
	return d, nil
}

func (d *diskTier) path(key Key) string {
	return filepath.Join(d.dir, hex.EncodeToString(key[:])+".json")
}

// load returns the persisted solution for key if a valid entry exists,
// with the lookup's delta: a disk hit crediting the entry's steps as
// saved (and counting the entries its use evicted), or a disk miss, plus
// the retries and quarantines on the way.
// Anything that fails validation — wrong schema, key mismatch, a set that
// is not independent in g, whose weight disagrees, or that weighs less
// than mis.SeedIncumbent(g), where every exact search starts — is
// quarantined and reported as a miss, so corruption degrades to a
// re-solve. The check is not a proof of optimality: an independent set
// weighing between the greedy seed and the optimum still passes and is
// served as optimal. Transient read errors are retried (diskAttempts
// total) before degrading to a miss.
func (d *diskTier) load(key Key, g *graphs.Graph) (mis.Solution, bool, Stats) {
	st := Stats{DiskMisses: 1} // until an entry is served
	path := d.path(key)
	hexKey := hex.EncodeToString(key[:])
	fault.Stall(fault.DiskSlow, hexKey)
	var data []byte
	for attempt := 0; ; attempt++ {
		err := fault.Err(fault.DiskRead, hexKey, uint64(attempt))
		if err == nil {
			data, err = os.ReadFile(path)
		}
		if err == nil {
			break
		}
		if os.IsNotExist(err) {
			return mis.Solution{}, false, st // a plain miss, not a fault
		}
		if attempt+1 >= diskAttempts {
			return mis.Solution{}, false, st
		}
		st.DiskRetries++
		time.Sleep(diskBackoff << attempt)
	}
	data = fault.Corrupt(hexKey, data)
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil {
		d.quarantine(key, path, "parse", &st)
		return mis.Solution{}, false, st
	}
	if e.Schema != diskSchema {
		d.quarantine(key, path, "schema", &st)
		return mis.Solution{}, false, st
	}
	if e.Key != hexKey {
		d.quarantine(key, path, "impostor", &st)
		return mis.Solution{}, false, st
	}
	weight, err := mis.Verify(g, e.Set)
	if err != nil || weight != e.Weight || weight < mis.SeedIncumbent(g).Weight {
		d.quarantine(key, path, "witness", &st)
		return mis.Solution{}, false, st
	}
	st.DiskEvictions = d.use(key, int64(len(data)))
	// Refresh mtime so a future process's recency seed sees the use.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	set := append([]graphs.NodeID(nil), e.Set...)
	sort.Ints(set)
	st.DiskHits, st.DiskMisses, st.StepsSaved = 1, 0, e.Steps
	return mis.Solution{Set: set, Weight: e.Weight, Optimal: true, Steps: e.Steps}, true, st
}

// store persists an optimal solution atomically and crash-durably (temp
// file + fsync + rename + parent-directory fsync) and returns its delta:
// the write and the old entries the size bound evicted, plus the retries.
// Transient write errors are retried (diskAttempts total) before the
// store is abandoned — the cache keeps working either way, the entry just
// is not persisted, and the delta books only the retries.
func (d *diskTier) store(key Key, sol mis.Solution) Stats {
	var st Stats
	hexKey := hex.EncodeToString(key[:])
	e := diskEntry{
		Schema: diskSchema,
		Key:    hexKey,
		Weight: sol.Weight,
		Steps:  sol.Steps,
		Set:    sol.Set,
	}
	data, err := json.Marshal(e)
	if err != nil {
		return st
	}
	fault.Stall(fault.DiskSlow, hexKey)
	for attempt := 0; ; attempt++ {
		err = fault.Err(fault.DiskWrite, hexKey, uint64(attempt))
		if err == nil {
			err = d.writeEntry(d.path(key), data)
		}
		if err == nil {
			break
		}
		if attempt+1 >= diskAttempts {
			return st
		}
		st.DiskRetries++
		time.Sleep(diskBackoff << attempt)
	}
	st.DiskWrites, st.DiskEvictions = 1, d.use(key, int64(len(data)))
	return st
}

// writeEntry is the durable atomic write: data lands in a tmp file that
// is fsynced before the rename, and the parent directory is fsynced after
// it, so once store returns the entry survives a crash or power loss (on
// platforms whose directory fsync is a no-op this degrades to the old
// atomic-but-not-durable behaviour).
func (d *diskTier) writeEntry(path string, data []byte) error {
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	fsyncDir(d.dir)
	return nil
}

// fsyncDir makes a completed rename durable by syncing the directory.
// Errors are deliberately ignored: not every filesystem supports syncing
// directories, and the write itself already succeeded atomically.
func fsyncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = f.Sync()
	f.Close()
}

// use records key's entry, of size bytes, as the most recently used and
// deletes the entries the byte bound evicts (never key's own), returning
// how many.
func (d *diskTier) use(key Key, size int64) uint64 {
	d.mu.Lock()
	victims := d.files.put(key, struct{}{}, size)
	d.mu.Unlock()
	for _, k := range victims {
		_ = os.Remove(d.path(k))
	}
	return uint64(len(victims))
}

// quarantine moves an invalid entry into the quarantine sidecar directory
// — named <entry>.<reason> so operators can see why it was rejected — and
// drops it from the index. Entries are preserved, not deleted: a corrupt
// file is evidence of a bug or bad disk that deleting would destroy. If
// the move itself fails the file is removed (the one thing that must not
// happen is re-serving it).
func (d *diskTier) quarantine(key Key, path, reason string, st *Stats) {
	st.DiskQuarantined++
	qdir := filepath.Join(d.dir, quarantineDirName)
	moved := false
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		dst := filepath.Join(qdir, filepath.Base(path)+"."+reason)
		if err := os.Rename(path, dst); err == nil || os.IsNotExist(err) {
			moved = true
		}
	}
	if !moved {
		_ = os.Remove(path)
	}
	d.mu.Lock()
	d.files.remove(key)
	d.mu.Unlock()
}
