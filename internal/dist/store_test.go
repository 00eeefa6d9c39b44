package dist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcphack/internal/results"
)

// storeFiles lists a DirStore's directory entries (diagnostics).
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDirStoreQuarantinesCorruptEntry: an entry whose bytes rotted
// after the write must come back as a miss — never as data — and be
// renamed aside so the next Get does not re-read it.
func TestDirStoreQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	row := serialRows(t, testWire())[0]
	const fp = "feedfacefeedface"
	if err := store.Put(fp, row); err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptEntry(fp); err != nil {
		t.Fatal(err)
	}

	got, err := store.Get(fp)
	if err != nil || got != nil {
		t.Fatalf("corrupt entry Get = %v, %v; want miss", got, err)
	}
	if store.CorruptCount() != 1 {
		t.Errorf("CorruptCount = %d, want 1", store.CorruptCount())
	}
	found := false
	for _, name := range storeFiles(t, dir) {
		if strings.HasSuffix(name, corruptSuffix) {
			found = true
		}
		if name == fp+".json" {
			t.Errorf("corrupt entry still present under its real name")
		}
	}
	if !found {
		t.Errorf("no quarantined file in %v", storeFiles(t, dir))
	}
	// The quarantined entry stays a miss; re-putting heals it.
	if got, err := store.Get(fp); err != nil || got != nil {
		t.Fatalf("second Get = %v, %v; want miss", got, err)
	}
	if err := store.Put(fp, row); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(fp); err != nil || got == nil {
		t.Fatalf("healed Get = %v, %v; want hit", got, err)
	}
}

// TestDirStorePreEnvelopeEntryIsMiss: a bare-row file written by a
// build predating the CRC envelope must read as a miss (and be
// quarantined), not crash or serve unverifiable data.
func TestDirStorePreEnvelopeEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fp = "0123456789abcdef"
	if err := os.WriteFile(filepath.Join(dir, fp+".json"),
		[]byte(`{"campaign":"old","aggregate_mbps":1.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(fp); err != nil || got != nil {
		t.Fatalf("pre-envelope Get = %v, %v; want miss", got, err)
	}
	if store.CorruptCount() != 1 {
		t.Errorf("CorruptCount = %d, want 1", store.CorruptCount())
	}
}

// TestDirStoreTornWriteNeverServes: a Put whose write was cut short
// (host crash before the data hit the disk) must leave either no entry
// or an entry Get refuses to serve — the crash-consistency contract.
// The truncating writer stands in for the crash.
func TestDirStoreTornWriteNeverServes(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.putWrite = func(f *os.File, data []byte) error {
		_, err := f.Write(data[:len(data)/2]) // "crash": half the bytes, no fsync
		return err
	}
	row := serialRows(t, testWire())[0]
	const fp = "cafebabecafebabe"
	if err := store.Put(fp, row); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(fp); err != nil || got != nil {
		t.Fatalf("torn entry Get = %v, %v; want miss", got, err)
	}
	if store.CorruptCount() != 1 {
		t.Errorf("CorruptCount = %d, want 1", store.CorruptCount())
	}

	// Recovery: a healthy Put over the quarantined fingerprint serves.
	store.putWrite = nil
	if err := store.Put(fp, row); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(fp)
	if err != nil || got == nil {
		t.Fatalf("re-put Get = %v, %v; want hit", got, err)
	}
	if got.AggregateMbps != row.AggregateMbps {
		t.Errorf("re-put row lost data: %+v", got)
	}
}

// TestDirStorePurge: -store-gc semantics — stale code versions and
// quarantined files go, current entries stay, and dry-run only counts.
func TestDirStorePurge(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := serialRows(t, testWire())

	store.Version = "hack-sim-v1" // ancient build wrote these
	if err := store.Put("aaaaaaaaaaaaaaaa", rows[0]); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("bbbbbbbbbbbbbbbb", rows[1]); err != nil {
		t.Fatal(err)
	}
	store.Version = results.CodeVersion // current build wrote this
	if err := store.Put("cccccccccccccccc", rows[2]); err != nil {
		t.Fatal(err)
	}
	// Plus one quarantined entry and one unreadable stranger.
	if err := store.Put("dddddddddddddddd", rows[3]); err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptEntry("dddddddddddddddd"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("dddddddddddddddd"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "eeeeeeeeeeeeeeee.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Dry run counts 2 stale + 1 quarantined + 1 unreadable = 4,
	// deleting nothing.
	n, err := store.Purge(results.CodeVersion, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("dry-run purge = %d, want 4 (files: %v)", n, storeFiles(t, dir))
	}
	if got, err := store.Get("aaaaaaaaaaaaaaaa"); err != nil || got == nil {
		t.Fatalf("dry run deleted an entry: %v, %v", got, err)
	}

	n, err = store.Purge(results.CodeVersion, false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("purge = %d, want 4", n)
	}
	if got, err := store.Get("aaaaaaaaaaaaaaaa"); err != nil || got != nil {
		t.Fatalf("stale entry survived purge: %v, %v", got, err)
	}
	if got, err := store.Get("cccccccccccccccc"); err != nil || got == nil {
		t.Fatalf("current entry purged: %v, %v", got, err)
	}
	files := storeFiles(t, dir)
	if len(files) != 1 || files[0] != "cccccccccccccccc.json" {
		t.Errorf("post-purge files = %v, want only the current entry", files)
	}
}

// Len reports the number of cached rows.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
