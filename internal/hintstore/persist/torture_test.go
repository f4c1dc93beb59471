package persist

import (
	"errors"
	"testing"

	"vroom/internal/faults"
)

// TestCrashTorture is the headline durability harness: hundreds of seeded
// crashes injected at randomized persist boundaries (wal-append, wal-sync,
// wal-rotate, wal-reset, snap-temp, snap-sync, snap-rename, snap-dirsync,
// snap-gc — including torn partial writes), each followed by a full
// recovery. The invariants, checked after every single crash:
//
//   - zero corrupt loads: every recovered table is byte-identical to the
//     never-crashed control's state at the same version (the control is the
//     deterministic testState generator — what a process that never died
//     would have persisted for that version);
//   - monotone versions: recovery never goes backwards — once version v of
//     an origin was recovered, no later recovery may yield an older one;
//   - no lost origins: an origin seen once is seen by every later recovery.
//
// One iteration = one process lifetime: recover, write the recovery
// checkpoint (exactly as hintstore.NewDurable does), then append retrain
// publishes until the injected crash kills it. The state directory persists
// across iterations, so recovery is always over real crash wreckage,
// including wreckage from recovering previous wreckage.
func TestCrashTorture(t *testing.T) {
	const wantCrashes = 300
	dir := t.TempDir()
	origins := []string{"alpha.example", "beta.example", "gamma.example"}
	next := map[string]uint64{}          // next version each origin publishes
	lastRecovered := map[string]uint64{} // monotonicity watermark
	crashes, cleanRuns := 0, 0

	for iter := 0; crashes < wantCrashes; iter++ {
		if iter > 50*wantCrashes {
			t.Fatalf("only %d crashes after %d iterations; raise CrashRate", crashes, iter)
		}

		// --- recovery: the part under test ---
		rec, err := Recover(dir, nil)
		if err != nil {
			t.Fatalf("iter %d: recovery must never fail, got %v", iter, err)
		}
		if len(rec.Tables) < len(lastRecovered) {
			t.Fatalf("iter %d: recovery lost origins: got %d, had %d",
				iter, len(rec.Tables), len(lastRecovered))
		}
		for _, ts := range rec.Tables {
			sameTable(t, testState(ts.Origin, ts.Version), ts) // zero corrupt loads
			if ts.Version < lastRecovered[ts.Origin] {
				t.Fatalf("iter %d: %s recovered at version %d after already reaching %d",
					iter, ts.Origin, ts.Version, lastRecovered[ts.Origin])
			}
			lastRecovered[ts.Origin] = ts.Version
		}

		// --- one crash-doomed process lifetime ---
		plan := faults.New(int64(10_000+iter), faults.Config{
			CrashRate:    0.06, // a few percent per boundary: crashes land all over
			CrashMaxTorn: 600,  // torn partial writes up to most of a record
		})
		p, err := Open(Options{
			Dir:            dir,
			WALRotateBytes: 2500, // a few records per WAL: rotations happen often
			Crash:          plan.CrashPoint,
		})
		if err != nil {
			t.Fatal(err)
		}
		crashed := false
		// Recovery checkpoint, exactly as NewDurable issues it.
		if _, err := p.SnapshotAll(rec.Tables); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("iter %d: checkpoint failed for a real reason: %v", iter, err)
			}
			crashed = true
		}
		for i := 0; i < 12 && !crashed; i++ {
			origin := origins[i%len(origins)]
			if next[origin] == 0 {
				next[origin] = 1
			}
			v := next[origin]
			switch err := p.Append(testState(origin, v)); {
			case errors.Is(err, ErrCrashed):
				crashed = true
			case err != nil:
				t.Fatalf("iter %d: append %s v%d: %v", iter, origin, v, err)
			default:
				next[origin] = v + 1
			}
		}
		if crashed {
			crashes++
			// The dead persister must refuse everything, like a dead process.
			if err := p.Append(testState(origins[0], 1)); !errors.Is(err, ErrCrashed) {
				t.Fatalf("iter %d: post-crash append returned %v", iter, err)
			}
		} else {
			cleanRuns++
			if err := p.Close(); err != nil {
				t.Fatalf("iter %d: clean close: %v", iter, err)
			}
		}
	}

	// Final clean recovery: every origin is present at its highest durable
	// version with control-identical bytes, and no corruption survived the
	// whole campaign unquarantined.
	rec, err := Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tables) != len(origins) {
		t.Fatalf("final recovery found %d origins, want %d", len(rec.Tables), len(origins))
	}
	for _, ts := range rec.Tables {
		sameTable(t, testState(ts.Origin, ts.Version), ts)
		// next[origin] itself may be durable: an append that "crashed" at the
		// wal-sync boundary still wrote its record whole (it just wasn't
		// acknowledged), so the bound is the last attempted version.
		if ts.Version > next[ts.Origin] {
			t.Fatalf("%s recovered version %d beyond anything attempted (%d)", ts.Origin, ts.Version, next[ts.Origin])
		}
	}
	t.Logf("torture: %d crashes over %d clean runs; final versions %v; %d quarantined artifacts on disk",
		crashes, cleanRuns, lastRecovered, len(QuarantineList(dir)))
}
