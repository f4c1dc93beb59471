package loadgen

import (
	"os"
	"testing"
	"time"

	"vroom/internal/obs"
)

// TestStormFlightDumps arms the per-load flight recorder over a faulted,
// gate-squeezed storm and pins the dump contract: bad-ending loads leave a
// parseable vroom-events artifact on disk, clean loads leave nothing, and
// the shared storm recording still receives every event (Fork tees, it
// does not steal), h1 exchanges included.
func TestStormFlightDumps(t *testing.T) {
	w := newStormWorld(t, 40*time.Millisecond, 4)
	dir := t.TempDir()

	storm := &obs.LiveRecording{Start: time.Now()}
	cfg := w.config(60, 16)
	cfg.Trace = obs.NewWall(storm)
	cfg.Propagate = true
	cfg.FlightDir = dir

	res := Run(cfg)
	if res.Hung != 0 {
		t.Fatalf("%d load(s) hung", res.Hung)
	}

	bad := 0
	for _, s := range res.Samples {
		if s.Failed > 0 || s.Degraded > 0 || s.DeadlineHit {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("faulted storm produced no bad endings; the dump path went unexercised")
	}
	if len(res.FlightDumps) == 0 {
		t.Fatalf("%d bad endings but no flight dump written", bad)
	}

	// Result and samples must agree, dumps must sit in FlightDir, and only
	// bad endings may dump.
	fromSamples := 0
	for _, s := range res.Samples {
		if s.FlightDump == "" {
			continue
		}
		fromSamples++
		if s.Failed == 0 && s.Degraded == 0 && !s.DeadlineHit && !s.Hung {
			t.Errorf("clean %s load dumped %s", s.Class, s.FlightDump)
		}
	}
	if fromSamples != len(res.FlightDumps) {
		t.Errorf("samples carry %d dump paths, result lists %d", fromSamples, len(res.FlightDumps))
	}

	// Every artifact parses as vroom-events and holds real span traffic.
	for _, path := range res.FlightDumps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("dump missing: %v", err)
		}
		rec, err := obs.ReadEvents(f)
		f.Close()
		if err != nil {
			t.Fatalf("dump %s is not vroom-events: %v", path, err)
		}
		if len(rec.Events) == 0 {
			t.Errorf("dump %s is empty", path)
		}
	}

	// The tee'd storm recording saw the same loads the recorders did,
	// h1-class loads included: their pools trace exchange spans on the
	// net track through the load's tracer.
	snap := storm.Snapshot()
	if len(snap.Events) == 0 {
		t.Fatal("shared storm recording is empty; Fork stole instead of teeing")
	}
	exchange := false
	for _, ev := range snap.Events {
		if ev.Kind == obs.KindBegin && ev.Track == obs.TrackNet && ev.Name == "exchange" {
			exchange = true
			break
		}
	}
	if !exchange {
		t.Error("storm recording holds no h1 exchange span; h1 pools run untraced")
	}
}
