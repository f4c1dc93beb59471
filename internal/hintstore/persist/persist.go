package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vroom/internal/telemetry"
)

// Persist metric families.
const (
	metricWALAppends  = "vroom_persist_wal_appends_total"
	metricWALFsyncMs  = "vroom_persist_wal_fsync_ms"
	metricRotations   = "vroom_persist_wal_rotations_total"
	metricSnapshots   = "vroom_persist_snapshots_total"
	metricSnapBytes   = "vroom_persist_snapshot_bytes"
	metricRecoveryMs  = "vroom_persist_recovery_ms"
	metricRecovered   = "vroom_persist_recovered_tables"
	metricQuarantined = "vroom_persist_quarantined_total"
)

// FsyncPolicy selects how hard the layer pushes bytes to stable storage.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways syncs the WAL after every append and every snapshot step
	// (temp file and directory) — the durability default: an acknowledged
	// retrain survives kill -9.
	FsyncAlways FsyncPolicy = iota
	// FsyncNone leaves flushing to the OS page cache. Appends are cheap but
	// the newest records may be lost on a machine crash; recovery still
	// never loads a corrupt table, it just recovers an older version.
	FsyncNone
)

func (f FsyncPolicy) String() string {
	if f == FsyncNone {
		return "none"
	}
	return "always"
}

// CrashFn is the injection hook the torture harness installs: it is
// consulted at every named write boundary, and a true verdict simulates
// kill -9 right there — the in-progress write is cut to torn bytes and the
// persister refuses all further work with ErrCrashed. Production leaves it
// nil. faults.Plan.CrashPoint satisfies this signature.
type CrashFn func(point string) (crash bool, tornBytes int)

// ErrCrashed reports an operation refused because an injected crashpoint
// already "killed" this persister. Everything after it fails the same way,
// exactly as writes after a real SIGKILL would never happen.
var ErrCrashed = errors.New("persist: injected crash")

// Options sizes the durable layer. The zero value of any field selects its
// default; a zero Dir disables persistence entirely at the store layer.
type Options struct {
	// Dir is the state directory; one subdirectory per origin is created
	// under it.
	Dir string
	// SnapshotEvery is the interval between periodic full snapshots of all
	// tables (default 30s). The hint store's snapshot loop reads it.
	SnapshotEvery time.Duration
	// WALRotateBytes rotates an origin's WAL into a fresh snapshot once it
	// grows past this size (default 1 MiB), bounding replay work.
	WALRotateBytes int64
	// Fsync selects the durability/throughput trade (default FsyncAlways).
	Fsync FsyncPolicy
	// Crash, when non-nil, is the torture harness's kill switch.
	Crash CrashFn
	// Log, when non-nil, receives structured persistence events.
	Log *slog.Logger
}

func (o Options) snapshotEvery() time.Duration {
	if o.SnapshotEvery > 0 {
		return o.SnapshotEvery
	}
	return 30 * time.Second
}

// SnapshotInterval exposes the resolved periodic-snapshot interval.
func (o Options) SnapshotInterval() time.Duration { return o.snapshotEvery() }

func (o Options) rotateBytes() int64 {
	if o.WALRotateBytes > 0 {
		return o.WALRotateBytes
	}
	return 1 << 20
}

// keepSnapshots is how many newest snapshots each origin retains: the
// newest may be the one a crash tore, so recovery wants a predecessor to
// fall back to.
const keepSnapshots = 2

// SnapInfo describes one origin's outcome in a full snapshot flush.
type SnapInfo struct {
	Origin string
	// Path and Bytes describe the snapshot file written ("" / 0 on error).
	Path  string
	Bytes int64
	// Err carries the per-origin failure, empty on success. A string, not
	// an error, so it rides checkpoint structs and logs verbatim.
	Err string
}

// originLog is one origin's open WAL handle.
type originLog struct {
	dir      string
	wal      *os.File
	walBytes int64
}

// Persister owns the write side of the durable layer. All methods are safe
// for concurrent use; writes serialize on one mutex (persistence is off the
// lookup path — only retrain publishes and snapshot ticks land here). A nil
// *Persister is valid and persists nothing, so the store needs no guards.
type Persister struct {
	opts Options

	mu      sync.Mutex
	dead    bool
	origins map[string]*originLog

	mAppends   *telemetry.Counter
	mRotations *telemetry.Counter
	mSnaps     *telemetry.Counter
	mSnapBytes *telemetry.Gauge
	mFsyncMs   *telemetry.Histogram
}

// Open readies the state directory and returns a running persister.
func Open(opts Options) (*Persister, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Persister{opts: opts, origins: make(map[string]*originLog)}, nil
}

// Instrument attaches the persist metric families to reg, stamping the
// one-shot recovery figures from rec (nil rec means a cold start with no
// prior state). Nil reg costs nothing.
func (p *Persister) Instrument(reg *telemetry.Registry, rec *Recovery) {
	if p == nil || reg == nil {
		return
	}
	reg.Describe(metricWALAppends, "WAL records appended (retrain publishes).")
	reg.Describe(metricWALFsyncMs, "WAL fsync latency in milliseconds.")
	reg.Describe(metricRotations, "WAL rotations into a fresh snapshot.")
	reg.Describe(metricSnapshots, "Snapshot files written.")
	reg.Describe(metricSnapBytes, "Bytes written by the most recent full snapshot flush.")
	reg.Describe(metricRecoveryMs, "Cold-start recovery time in milliseconds (snapshot load + WAL replay).")
	reg.Describe(metricRecovered, "Tables restored from disk at cold start.")
	reg.Describe(metricQuarantined, "Corrupt or torn artifacts quarantined by recovery.")
	p.mu.Lock()
	p.mAppends = reg.Counter(metricWALAppends)
	p.mRotations = reg.Counter(metricRotations)
	p.mSnaps = reg.Counter(metricSnapshots)
	p.mSnapBytes = reg.Gauge(metricSnapBytes)
	p.mFsyncMs = reg.Histogram(metricWALFsyncMs)
	p.mu.Unlock()
	if rec != nil {
		reg.Gauge(metricRecoveryMs).Set(rec.Elapsed.Milliseconds())
		reg.Gauge(metricRecovered).Set(int64(len(rec.Tables)))
		reg.Counter(metricQuarantined).Add(int64(len(rec.Quarantined)))
	} else {
		reg.Gauge(metricRecoveryMs).Set(0)
		reg.Gauge(metricRecovered).Set(0)
	}
}

// originDir maps an origin name onto a filesystem-safe directory.
func originDir(origin string) string {
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-':
			return r
		}
		return '_'
	}, origin)
	if safe == "" {
		safe = "_"
	}
	return safe
}

// crash consults the injection hook at a named boundary. On a crash verdict
// the persister is dead from here on.
func (p *Persister) crash(point string) (tornBytes int, crashed bool) {
	if p.opts.Crash == nil {
		return 0, false
	}
	crash, torn := p.opts.Crash(point)
	if !crash {
		return 0, false
	}
	p.dead = true
	if p.opts.Log != nil {
		p.opts.Log.Info("crashpoint", "point", point, "torn", torn)
	}
	return torn, true
}

// maybeSync fsyncs f under FsyncAlways, recording the latency.
func (p *Persister) maybeSync(f *os.File) error {
	if p.opts.Fsync == FsyncNone {
		return nil
	}
	start := time.Now()
	err := f.Sync()
	if p.mFsyncMs != nil {
		p.mFsyncMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	return err
}

// openOrigin returns the origin's WAL handle, creating the directory and a
// fresh WAL on first use. The WAL is always truncated at first open in this
// process: everything worth keeping was either recovered and immediately
// re-snapshotted (NewDurable's recovery checkpoint) or never existed, so a
// stale or torn tail from the previous process must not be appended after.
func (p *Persister) openOrigin(origin string) (*originLog, error) {
	if ol := p.origins[origin]; ol != nil {
		return ol, nil
	}
	dir := filepath.Join(p.opts.Dir, originDir(origin))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, "wal.log"),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := walFileHeader()
	if _, err := wal.Write(hdr); err != nil {
		wal.Close()
		return nil, err
	}
	ol := &originLog{dir: dir, wal: wal, walBytes: int64(len(hdr))}
	p.origins[origin] = ol
	return ol, nil
}

// Append writes one retrain publish to the origin's WAL, rotating into a
// fresh snapshot when the WAL outgrows its budget. The record is a complete
// table state, so rotation needs nothing but the bytes just appended.
func (p *Persister) Append(t TableState) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return ErrCrashed
	}
	ol, err := p.openOrigin(t.Origin)
	if err != nil {
		return err
	}
	rec, err := EncodeWALRecord(t)
	if err != nil {
		return err
	}
	if torn, crashed := p.crash("wal-append"); crashed {
		if torn > len(rec) {
			torn = len(rec)
		}
		ol.wal.Write(rec[:torn])
		ol.wal.Sync()
		return ErrCrashed
	}
	if _, err := ol.wal.Write(rec); err != nil {
		return err
	}
	ol.walBytes += int64(len(rec))
	if _, crashed := p.crash("wal-sync"); crashed {
		// Died between write and fsync: the record may or may not reach the
		// platter. Our simulation keeps it (recovery handles both — a whole
		// record is valid, a missing one just recovers the prior version).
		return ErrCrashed
	}
	if err := p.maybeSync(ol.wal); err != nil {
		return err
	}
	if p.mAppends != nil {
		p.mAppends.Inc()
	}
	if ol.walBytes > p.opts.rotateBytes() {
		if p.mRotations != nil {
			p.mRotations.Inc()
		}
		if _, err := p.snapshotLocked(ol.dir, t); err != nil {
			return err
		}
		if _, crashed := p.crash("wal-rotate"); crashed {
			// Snapshot written, WAL not yet reset: recovery takes the max
			// version across both, so this window is merely redundant bytes.
			return ErrCrashed
		}
		if err := p.resetWALLocked(t.Origin, ol); err != nil {
			return err
		}
	}
	return nil
}

// resetWALLocked truncates an origin's WAL back to its header after a
// snapshot made its records redundant.
func (p *Persister) resetWALLocked(origin string, ol *originLog) error {
	ol.wal.Close()
	wal, err := os.OpenFile(filepath.Join(ol.dir, "wal.log"),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		delete(p.origins, origin)
		return err
	}
	hdr := walFileHeader()
	if _, err := wal.Write(hdr); err != nil {
		wal.Close()
		delete(p.origins, origin)
		return err
	}
	ol.wal, ol.walBytes = wal, int64(len(hdr))
	if _, crashed := p.crash("wal-reset"); crashed {
		return ErrCrashed
	}
	return p.maybeSync(wal)
}

// snapshotLocked writes one origin's snapshot file via temp + fsync +
// atomic rename + dir fsync, then prunes snapshots beyond the retention
// budget. It returns the final path. It takes the directory, not an open
// WAL handle, so a snapshot can be written before the origin's WAL is
// first opened (first open truncates — the snapshot must be durable
// before any WAL bytes are discarded).
func (p *Persister) snapshotLocked(dir string, t TableState) (SnapInfo, error) {
	info := SnapInfo{Origin: t.Origin}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return info, err
	}
	b, err := EncodeSnapshot(t)
	if err != nil {
		return info, err
	}
	final := filepath.Join(dir, fmt.Sprintf("snap-%016x.vsnap", t.Version))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return info, err
	}
	if torn, crashed := p.crash("snap-temp"); crashed {
		if torn > len(b) {
			torn = len(b)
		}
		f.Write(b[:torn])
		f.Close()
		return info, ErrCrashed
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return info, err
	}
	if _, crashed := p.crash("snap-sync"); crashed {
		f.Close()
		return info, ErrCrashed
	}
	if err := p.maybeSync(f); err != nil {
		f.Close()
		return info, err
	}
	if err := f.Close(); err != nil {
		return info, err
	}
	if _, crashed := p.crash("snap-rename"); crashed {
		// Temp file left behind; recovery quarantines it and keeps serving
		// the previous snapshot.
		return info, ErrCrashed
	}
	if err := os.Rename(tmp, final); err != nil {
		return info, err
	}
	if _, crashed := p.crash("snap-dirsync"); crashed {
		return info, ErrCrashed
	}
	if p.opts.Fsync == FsyncAlways {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	if p.mSnaps != nil {
		p.mSnaps.Inc()
	}
	info.Path, info.Bytes = final, int64(len(b))
	if _, crashed := p.crash("snap-gc"); crashed {
		return info, ErrCrashed
	}
	p.pruneSnapshotsLocked(dir)
	if p.opts.Log != nil {
		p.opts.Log.Debug("snapshot", "origin", t.Origin, "version", t.Version,
			"bytes", len(b), "path", final)
	}
	return info, nil
}

// pruneSnapshotsLocked deletes all but the newest keepSnapshots snapshot
// files. Deletion failures are ignored: stale snapshots cost bytes, not
// correctness (recovery prefers higher versions).
func (p *Persister) pruneSnapshotsLocked(dir string) {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.vsnap"))
	if err != nil || len(names) <= keepSnapshots {
		return
	}
	sort.Strings(names) // version is zero-padded hex: lexicographic == numeric
	for _, name := range names[:len(names)-keepSnapshots] {
		os.Remove(name)
	}
}

// SnapshotAll flushes a full snapshot of every given table and resets each
// origin's WAL (the snapshot supersedes its records). Per-origin failures
// land in the returned infos; the error is the first failure, so a caller
// that only cares whether the flush was clean can test err alone. An
// injected crash aborts the flush mid-way — exactly the torture case.
func (p *Persister) SnapshotAll(tables []TableState) ([]SnapInfo, error) {
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return nil, ErrCrashed
	}
	var (
		infos      []SnapInfo
		firstErr   error
		totalBytes int64
	)
	for _, t := range tables {
		// Snapshot first, WAL second: the first openOrigin in a process
		// truncates the WAL, so the snapshot superseding its records must be
		// durable (renamed into place) before that truncation can happen. A
		// crash between the two costs only redundant bytes, never a version.
		info, err := p.snapshotLocked(filepath.Join(p.opts.Dir, originDir(t.Origin)), t)
		if err == nil {
			var ol *originLog
			if ol, err = p.openOrigin(t.Origin); err == nil {
				err = p.resetWALLocked(t.Origin, ol)
			}
		}
		info.Origin = t.Origin
		if err != nil {
			info.Err = err.Error()
			if firstErr == nil {
				firstErr = err
			}
		}
		totalBytes += info.Bytes
		infos = append(infos, info)
		if errors.Is(err, ErrCrashed) {
			break // the process is "dead": nothing later would have run
		}
	}
	if p.mSnapBytes != nil {
		p.mSnapBytes.Set(totalBytes)
	}
	return infos, firstErr
}

// Close releases the WAL handles. The persister is unusable afterwards.
func (p *Persister) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for origin, ol := range p.origins {
		if err := ol.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(p.origins, origin)
	}
	p.dead = true
	return firstErr
}
