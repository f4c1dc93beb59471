package persist

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Recovery is the outcome of one cold-start pass over a state directory.
type Recovery struct {
	// Tables are the recovered table states, one per origin with any valid
	// state, sorted by origin.
	Tables []TableState
	// Quarantined lists the artifacts moved to quarantine: corrupt
	// snapshots, orphaned temp files, torn WAL tails. Kept, never deleted —
	// the forensics a crash leaves behind.
	Quarantined []string
	// Snapshots counts snapshot files that validated; WALRecords counts WAL
	// records replayed; TornTails counts WALs whose suffix was quarantined
	// (the expected artifact of a crash mid-append).
	Snapshots  int
	WALRecords int
	TornTails  int
	// Elapsed is the wall time recovery took — the cold-start cost the
	// telemetry plane reports.
	Elapsed time.Duration
}

// Recover rebuilds every origin's newest consistent table from a state
// directory: per origin, the newest snapshot that validates, then any WAL
// records with higher versions on top. Corrupt or torn artifacts are
// quarantined (moved aside, recorded), never fatal — recovery's contract is
// that it always returns the best valid state and never loads a corrupt
// table. A missing or empty directory recovers nothing and is not an error.
func Recover(dir string, log *slog.Logger) (*Recovery, error) {
	start := time.Now()
	rec := &Recovery{}
	if dir == "" {
		return rec, nil
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return rec, nil
	}
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if t, ok := recoverOrigin(filepath.Join(dir, e.Name()), rec, log); ok {
			rec.Tables = append(rec.Tables, t)
		}
	}
	sort.Slice(rec.Tables, func(i, j int) bool {
		return rec.Tables[i].Origin < rec.Tables[j].Origin
	})
	rec.Elapsed = time.Since(start)
	if log != nil {
		log.Info("recovered", "tables", len(rec.Tables),
			"snapshots", rec.Snapshots, "wal_records", rec.WALRecords,
			"quarantined", len(rec.Quarantined),
			"ms", rec.Elapsed.Milliseconds())
	}
	return rec, nil
}

// recoverOrigin rebuilds one origin directory.
func recoverOrigin(dir string, rec *Recovery, log *slog.Logger) (TableState, bool) {
	var (
		cur   TableState
		found bool
	)

	// Orphaned temp files are snapshots a crash interrupted before rename;
	// they were never visible, quarantine them unread.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, tmp := range tmps {
			quarantine(dir, tmp, "orphan", rec, log)
		}
	}

	// Newest snapshot that validates wins; corrupt ones are quarantined and
	// the scan falls back to the predecessor.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.vsnap"))
	sort.Sort(sort.Reverse(sort.StringSlice(snaps))) // zero-padded hex: newest first
	for _, name := range snaps {
		b, err := os.ReadFile(name)
		if err != nil {
			quarantine(dir, name, "unreadable", rec, log)
			continue
		}
		t, err := DecodeSnapshot(b)
		if err != nil {
			quarantine(dir, name, "corrupt", rec, log)
			continue
		}
		cur, found = t, true
		rec.Snapshots++
		break
	}

	// Replay the WAL on top: every valid record with a higher version
	// advances the table; the suffix past the first bad record is
	// quarantined (a torn tail is the normal signature of a crash
	// mid-append, not an emergency).
	walPath := filepath.Join(dir, "wal.log")
	if b, err := os.ReadFile(walPath); err == nil && len(b) > 0 {
		recs, off, torn := ScanWAL(b)
		for _, t := range recs {
			rec.WALRecords++
			if !found || t.Version > cur.Version {
				cur, found = t, true
			}
		}
		if torn {
			rec.TornTails++
			saveQuarantine(dir, fmt.Sprintf("wal-tail-%d.bin", off), b[off:], rec, log)
		}
	}
	return cur, found
}

// quarantine moves a bad artifact into the origin's quarantine directory.
func quarantine(dir, path, reason string, rec *Recovery, log *slog.Logger) {
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, reason+"-"+filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		return
	}
	rec.Quarantined = append(rec.Quarantined, dst)
	if log != nil {
		log.Warn("quarantined", "artifact", dst, "reason", reason)
	}
}

// saveQuarantine writes raw bytes (a torn WAL tail) into quarantine.
func saveQuarantine(dir, name string, b []byte, rec *Recovery, log *slog.Logger) {
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	dst := filepath.Join(qdir, name)
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		return
	}
	rec.Quarantined = append(rec.Quarantined, dst)
	if log != nil {
		log.Warn("quarantined", "artifact", dst, "reason", "torn-tail",
			"bytes", len(b))
	}
}
