package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// QuarantineList returns every quarantined artifact currently on disk under
// a state directory.
func QuarantineList(dir string) []string {
	var out []string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(path, string(filepath.Separator)+"quarantine"+string(filepath.Separator)) {
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// mustOpen opens a persister over a fresh temp dir.
func mustOpen(t *testing.T, opts Options) (*Persister, string) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, opts.Dir
}

// sameTable asserts two states encode to identical canonical bytes.
func sameTable(t *testing.T, want, got TableState) {
	t.Helper()
	wb, _ := EncodeTable(want)
	gb, _ := EncodeTable(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("tables differ:\n want %s\n got  %s", wb, gb)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	p, dir := mustOpen(t, Options{})
	for v := uint64(1); v <= 4; v++ {
		if err := p.Append(testState("news.example", v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Append(testState("shop.example", 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tables) != 2 {
		t.Fatalf("recovered %d tables, want 2", len(rec.Tables))
	}
	if len(rec.Quarantined) != 0 {
		t.Fatalf("clean shutdown quarantined %v", rec.Quarantined)
	}
	// Tables come back sorted by origin; each is the newest version.
	sameTable(t, testState("news.example", 4), rec.Tables[0])
	sameTable(t, testState("shop.example", 1), rec.Tables[1])
}

func TestRecoverMissingAndEmptyDir(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "never-created"), nil)
	if err != nil || len(rec.Tables) != 0 {
		t.Fatalf("missing dir: rec=%+v err=%v", rec, err)
	}
	rec, err = Recover(t.TempDir(), nil)
	if err != nil || len(rec.Tables) != 0 {
		t.Fatalf("empty dir: rec=%+v err=%v", rec, err)
	}
	rec, err = Recover("", nil)
	if err != nil || len(rec.Tables) != 0 {
		t.Fatalf("blank dir: rec=%+v err=%v", rec, err)
	}
}

// TestWALRotation drives appends past the rotation budget and checks the
// rotation cut a snapshot and reset the WAL to just its header.
func TestWALRotation(t *testing.T) {
	p, dir := mustOpen(t, Options{WALRotateBytes: 1}) // rotate after every append
	for v := uint64(1); v <= 3; v++ {
		if err := p.Append(testState("news.example", v)); err != nil {
			t.Fatal(err)
		}
	}
	odir := filepath.Join(dir, "news.example")
	snaps, _ := filepath.Glob(filepath.Join(odir, "snap-*.vsnap"))
	if len(snaps) == 0 {
		t.Fatal("rotation cut no snapshot")
	}
	b, err := os.ReadFile(filepath.Join(odir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != walHeaderLen {
		t.Fatalf("rotated WAL holds %d bytes, want bare %d-byte header", len(b), walHeaderLen)
	}
	p.Close()

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tables) != 1 {
		t.Fatalf("recovered %d tables", len(rec.Tables))
	}
	sameTable(t, testState("news.example", 3), rec.Tables[0])
}

func TestSnapshotPruneRetention(t *testing.T) {
	p, dir := mustOpen(t, Options{WALRotateBytes: 1})
	for v := uint64(1); v <= 6; v++ {
		if err := p.Append(testState("news.example", v)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "news.example", "snap-*.vsnap"))
	if len(snaps) != 2 {
		t.Fatalf("retention kept %d snapshots, want 2: %v", len(snaps), snaps)
	}
	// The survivors are the two newest versions.
	for _, s := range snaps {
		if !strings.HasSuffix(s, "0005.vsnap") && !strings.HasSuffix(s, "0006.vsnap") {
			t.Fatalf("retention kept the wrong snapshot %s", s)
		}
	}
}

func TestSnapshotAllFlushesAndResetsWAL(t *testing.T) {
	p, dir := mustOpen(t, Options{})
	states := []TableState{testState("a.example", 2), testState("b.example", 5)}
	for _, s := range states {
		if err := p.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := p.SnapshotAll(states)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d infos", len(infos))
	}
	for _, in := range infos {
		if in.Err != "" || in.Path == "" || in.Bytes == 0 {
			t.Fatalf("bad flush info %+v", in)
		}
		if fi, err := os.Stat(in.Path); err != nil || fi.Size() != in.Bytes {
			t.Fatalf("info %+v does not match disk (%v)", in, err)
		}
		wal, err := os.ReadFile(filepath.Join(filepath.Dir(in.Path), "wal.log"))
		if err != nil || len(wal) != walHeaderLen {
			t.Fatalf("WAL not reset after flush: %d bytes, err %v", len(wal), err)
		}
	}
	p.Close()

	rec, err := Recover(dir, nil)
	if err != nil || len(rec.Tables) != 2 {
		t.Fatalf("recover after flush: %d tables, err %v", len(rec.Tables), err)
	}
	sameTable(t, states[0], rec.Tables[0])
	sameTable(t, states[1], rec.Tables[1])
}

// TestRecoverQuarantinesCorruptSnapshot corrupts the newest snapshot and
// checks recovery falls back to its predecessor and moves the bad file to
// quarantine.
func TestRecoverQuarantinesCorruptSnapshot(t *testing.T) {
	p, dir := mustOpen(t, Options{WALRotateBytes: 1})
	for v := uint64(1); v <= 2; v++ {
		if err := p.Append(testState("news.example", v)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	odir := filepath.Join(dir, "news.example")
	snaps, _ := filepath.Glob(filepath.Join(odir, "snap-*.vsnap"))
	if len(snaps) != 2 {
		t.Fatalf("setup wrote %d snapshots", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	b, _ := os.ReadFile(newest)
	b[len(b)/2] ^= 0x41
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// And an orphaned temp file from a hypothetical interrupted snapshot.
	orphan := filepath.Join(odir, "snap-ffff.vsnap.tmp")
	os.WriteFile(orphan, []byte("partial"), 0o644)

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tables) != 1 {
		t.Fatalf("recovered %d tables", len(rec.Tables))
	}
	sameTable(t, testState("news.example", 1), rec.Tables[0])
	if len(rec.Quarantined) != 2 {
		t.Fatalf("quarantined %v, want the corrupt snapshot and the orphan", rec.Quarantined)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot still in place")
	}
	if got := QuarantineList(dir); len(got) != 2 {
		t.Fatalf("QuarantineList found %v", got)
	}
}

// TestRecoverTornWALTail truncates a WAL mid-record and checks recovery
// keeps the whole records, quarantines the tail bytes, and counts it.
func TestRecoverTornWALTail(t *testing.T) {
	p, dir := mustOpen(t, Options{})
	for v := uint64(1); v <= 3; v++ {
		if err := p.Append(testState("news.example", v)); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	walPath := filepath.Join(dir, "news.example", "wal.log")
	b, _ := os.ReadFile(walPath)
	if err := os.WriteFile(walPath, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornTails != 1 || len(rec.Tables) != 1 {
		t.Fatalf("rec=%+v", rec)
	}
	sameTable(t, testState("news.example", 2), rec.Tables[0])
	if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0], "wal-tail-") {
		t.Fatalf("torn tail not quarantined: %v", rec.Quarantined)
	}
}

// TestCrashedPersisterRefusesWork injects a crash at the first append and
// checks every later operation fails with ErrCrashed — the kill -9 analog.
func TestCrashedPersisterRefusesWork(t *testing.T) {
	p, _ := mustOpen(t, Options{
		Crash: func(point string) (bool, int) { return point == "wal-append", 3 },
	})
	if err := p.Append(testState("news.example", 1)); err != ErrCrashed {
		t.Fatalf("crashed append returned %v", err)
	}
	if err := p.Append(testState("news.example", 2)); err != ErrCrashed {
		t.Fatalf("post-crash append returned %v", err)
	}
	if _, err := p.SnapshotAll([]TableState{testState("news.example", 2)}); err != ErrCrashed {
		t.Fatalf("post-crash snapshot returned %v", err)
	}
}

// TestNilPersisterIsSafe: the memory-only store passes a nil persister
// everywhere; every method must be a cheap no-op.
func TestNilPersisterIsSafe(t *testing.T) {
	var p *Persister
	if err := p.Append(testState("x", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SnapshotAll(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.Instrument(nil, nil)
}
