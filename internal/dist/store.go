package dist

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"tcphack/internal/campaign"
	"tcphack/internal/results"
)

// Store is the content-addressed memoization backend: completed grid
// points keyed by their fingerprint (results.PointFingerprint). A
// store is both the daemon's checkpoint and its cross-sweep cache, so
// implementations must make Put durable before returning, and Get must
// never return a wrong answer: an entry an implementation cannot
// verify (torn write, bit rot) is reported as a miss, not as data. The
// file-dir backend is the first implementation; the interface is
// deliberately narrow (get/put, no enumeration) so a sqlite backend
// can slot in without touching the planner or server. The daemon
// plans admissions and persists streamed rows outside its lock, so Get
// and Put may run concurrently with each other and with themselves,
// two Puts of one fingerprint included.
type Store interface {
	// Get returns the cached row for a fingerprint, nil on a miss.
	// Unverifiable (corrupt) entries are a miss, not an error; errors
	// mean the backend itself is unavailable.
	Get(fp string) (*campaign.Result, error)
	// Put persists one row under its fingerprint, overwriting any
	// previous entry (rows are deterministic, so overwrites are
	// idempotent).
	Put(fp string, r campaign.Result) error
}

// storeEntry is the on-disk form of one cached row: the row's JSON
// bytes guarded by a CRC-32 (IEEE) over exactly those bytes, plus the
// code version that produced them (Purge's eviction key; Get does not
// consult it — the version already salts the fingerprint).
type storeEntry struct {
	// CodeVersion is the producing build's results.CodeVersion salt.
	CodeVersion string `json:"code_version"`
	// CRC32 is crc32.ChecksumIEEE over Row.
	CRC32 uint32 `json:"crc32"`
	// Row is the campaign.Result's JSON, byte-exact as checksummed.
	Row json.RawMessage `json:"row"`
}

// corruptSuffix marks quarantined entries: a store file that failed
// its integrity check is renamed aside (never deleted in place — it is
// forensic evidence) and treated as a miss from then on.
const corruptSuffix = ".corrupt"

// DirStore is the file-dir Store: one JSON file per fingerprint under
// a root directory, each wrapped in a CRC-32 integrity envelope,
// written atomically (temp file + fsync + rename) so neither a daemon
// crash nor a host crash can leave a torn-but-named entry. Entries
// that fail the integrity check on Get — torn by a crash predating the
// fsync, bit-rotted, or written by a pre-envelope build — are
// quarantined (renamed *.corrupt) and reported as a miss, so the worst
// corruption can cause is re-simulation, never a wrong row.
type DirStore struct {
	dir string
	// Version is the code-version salt recorded in every entry this
	// store writes (Purge's eviction key). Empty uses
	// results.CodeVersion; the daemon sets it to its fingerprint salt.
	Version string

	corrupt atomic.Int64
	// putWrite overrides the temp-file write+sync for crash tests (nil
	// = write everything and fsync).
	putWrite func(f *os.File, data []byte) error
}

// NewDirStore opens (creating if needed) a file-dir store rooted at
// dir.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: creating store dir: %v", err)
	}
	return &DirStore{dir: dir}, nil
}

// path maps a fingerprint to its file, rejecting anything that could
// escape the store root (fingerprints are lowercase hex, but the store
// must not trust its callers' inputs).
func (s *DirStore) path(fp string) (string, error) {
	if fp == "" || strings.ContainsAny(fp, "/\\.") {
		return "", fmt.Errorf("dist: invalid fingerprint %q", fp)
	}
	return filepath.Join(s.dir, fp+".json"), nil
}

// version resolves the salt recorded in written entries.
func (s *DirStore) version() string {
	if s.Version != "" {
		return s.Version
	}
	return results.CodeVersion
}

// Get implements Store. A corrupt entry — unparseable envelope, CRC
// mismatch, or unparseable row — is quarantined and reported as a
// miss.
func (s *DirStore) Get(fp string) (*campaign.Result, error) {
	path, err := s.path(fp)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var env storeEntry
	if json.Unmarshal(data, &env) != nil || len(env.Row) == 0 ||
		crc32.ChecksumIEEE(env.Row) != env.CRC32 {
		return nil, s.quarantine(path)
	}
	var r campaign.Result
	if err := json.Unmarshal(env.Row, &r); err != nil {
		return nil, s.quarantine(path)
	}
	return &r, nil
}

// quarantine renames a corrupt entry aside so it reads as a miss from
// now on. The rename is best-effort: if it fails the file stays, but
// Get still reported a miss, so the entry is re-simulated either way.
func (s *DirStore) quarantine(path string) error {
	s.corrupt.Add(1)
	os.Rename(path, path+corruptSuffix)
	return nil
}

// CorruptCount reports how many entries this store has quarantined —
// the degradation metric the daemon folds into /metrics.
func (s *DirStore) CorruptCount() int64 {
	return s.corrupt.Load()
}

// Put implements Store. The entry is written to a temp file, fsynced,
// and renamed into place: the fsync guarantees a host crash after the
// rename can never expose a torn entry under its final name, and the
// CRC envelope catches the remaining window (crash between write and
// sync on filesystems that reorder the rename).
func (s *DirStore) Put(fp string, r campaign.Result) error {
	path, err := s.path(fp)
	if err != nil {
		return err
	}
	rowData, err := json.Marshal(r)
	if err != nil {
		return err
	}
	data, err := json.Marshal(storeEntry{
		CodeVersion: s.version(),
		CRC32:       crc32.ChecksumIEEE(rowData),
		Row:         rowData,
	})
	if err != nil {
		return err
	}
	return writeAtomic(path, data, s.putWrite)
}

// writeAtomic writes data to path through a temp file in path's
// directory, fsynced and then renamed into place, so a crash leaves
// the old file or the new one under path, never a torn one. write
// overrides the temp-file write+sync (nil = write everything and
// fsync). The temp file's name does not end in .json, so neither
// DirStore.Purge nor the daemon's resume takes a leftover one for an
// entry.
func writeAtomic(path string, data []byte, write func(f *os.File, data []byte) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if write == nil {
		write = func(f *os.File, data []byte) error {
			if _, err := f.Write(data); err != nil {
				return err
			}
			return f.Sync()
		}
	}
	if err := write(tmp, data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Purge garbage-collects the store (hackbench -store-gc): entries
// whose recorded CodeVersion differs from keepVersion (the version
// salts the fingerprint, so no current plan will ever probe them),
// entries too corrupt to read a version out of, and previously
// quarantined *.corrupt files are deleted (or only counted, with
// dryRun). It returns how many entries were affected.
func (s *DirStore) Purge(keepVersion string, dryRun bool) (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		stale := false
		switch {
		case strings.HasSuffix(name, corruptSuffix):
			stale = true
		case strings.HasSuffix(name, ".json"):
			data, err := os.ReadFile(filepath.Join(s.dir, name))
			if err != nil {
				return n, err
			}
			var env storeEntry
			if json.Unmarshal(data, &env) != nil || env.CodeVersion != keepVersion {
				stale = true
			}
		default:
			continue // temp files and strangers are not ours to judge
		}
		if !stale {
			continue
		}
		n++
		if !dryRun {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// MemStore is the in-memory Store: the memory-only daemon's backend
// (no resume across restarts) and the test double.
type MemStore struct {
	mu sync.Mutex
	m  map[string]campaign.Result
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: map[string]campaign.Result{}}
}

// Get implements Store.
func (s *MemStore) Get(fp string) (*campaign.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[fp]; ok {
		return &r, nil
	}
	return nil, nil
}

// Put implements Store.
func (s *MemStore) Put(fp string, r campaign.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[fp] = r
	return nil
}
