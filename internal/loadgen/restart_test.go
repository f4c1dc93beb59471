package loadgen

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vroom/internal/core"
	"vroom/internal/hintstore"
	"vroom/internal/hintstore/persist"
	"vroom/internal/netem"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// TestStormKillAndRestart is the kill-and-restart storm: mid-storm, the
// serving process is killed without any drain (no final flush — only the
// WAL and periodic snapshots are on disk) and a new one cold-starts over
// the same state directory while loads keep arriving. The invariants: zero
// hung loads across the outage, the restarted server serves restored
// tables immediately (responses tagged stale-restore), and the store
// reports itself recovering until a tenant re-registers.
func TestStormKillAndRestart(t *testing.T) {
	stateDir := t.TempDir()
	device := webpage.PhoneSmall
	var (
		archives []*replay.Archive
		sites    []*webpage.Site
		roots    []urlutil.URL
	)
	for i, name := range []string{"killnews", "killsports"} {
		site := webpage.NewSite(name, webpage.Top100, int64(200+i))
		a := replay.FromSnapshot(site.Snapshot(stormEpoch, webpage.Profile{Device: device, UserID: 5}, 1))
		u, err := urlutil.Parse(a.RootURL)
		if err != nil {
			t.Fatal(err)
		}
		archives = append(archives, a)
		sites = append(sites, site)
		roots = append(roots, u)
	}
	merged := replay.Merge(archives...)

	// start boots one server "process" over the shared state directory. The
	// first life registers and trains its tenants; the restarted life
	// registers nothing, so everything it serves comes off disk.
	var curLink atomic.Pointer[netem.Listener]
	start := func(register bool) (*wire.Server, *hintstore.Store, *telemetry.Registry) {
		store, rec, err := hintstore.NewDurable(hintstore.Config{
			TTL:      40 * time.Millisecond, // restored tables are instantly stale
			MaxStale: time.Hour,
			Workers:  2,
			Persist:  persist.Options{Dir: stateDir, SnapshotEvery: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if register {
			for i, site := range sites {
				if err := store.Register(roots[i].Host, device,
					hintstore.SiteTrainer(site, stormEpoch, device, core.DefaultResolverConfig())); err != nil {
					t.Fatal(err)
				}
			}
		} else if len(rec.Tables) != len(sites) {
			t.Errorf("restart recovered %d tables, want %d", len(rec.Tables), len(sites))
		}
		srv := wire.NewServer(merged, nil, device, wire.ServerConfig{SendHints: true, Push: true})
		srv.Store = store
		reg := telemetry.NewRegistry()
		srv.Instrument(nil, reg)
		link := netem.Listen(netem.LinkConfig{
			Delay:               time.Millisecond,
			DownlinkBytesPerSec: 50e6,
			UplinkBytesPerSec:   50e6,
		})
		go srv.H2().Serve(link)
		curLink.Store(link)
		return srv, store, reg
	}

	srv, store, _ := start(true)
	var srv2 *wire.Server
	var store2 *hintstore.Store
	t.Cleanup(func() {
		if srv2 != nil {
			srv2.H2().Close()
			store2.Drain(time.Second)
		}
		curLink.Load().Close()
	})

	loads := 200
	if testing.Short() {
		loads = 80
	}
	cfg := Config{
		Roots:       roots,
		Loads:       loads,
		Concurrency: 32,
		Seed:        42,
		Dial: func(string) (net.Conn, error) {
			return curLink.Load().Dial()
		},
		RestartAfter: loads / 4,
		Restart: func() error {
			// kill -9: no drain, no flush — the old process just stops.
			old := curLink.Load()
			srv.H2().Close()
			old.Close()
			store.Drain(0) // release the dead process's workers (test hygiene; a real kill needs nothing)
			srv2, store2, _ = start(false)
			return nil
		},
	}
	res := Run(cfg)

	if res.Hung != 0 {
		t.Fatalf("%d load(s) hung across the kill and restart", res.Hung)
	}
	if res.Restarts != 1 || res.RestartErr != "" {
		t.Fatalf("restarts=%d err=%q", res.Restarts, res.RestartErr)
	}
	if res.DegradedModes[wire.DegradedStaleRestore] == 0 {
		t.Fatalf("no response was tagged stale-restore after the restart; modes=%v", res.DegradedModes)
	}
	if store2 == nil || !store2.Recovering() {
		t.Fatal("restarted store (no tenant re-registered) must report recovering")
	}
	if n := store2.Tenants(); n != len(sites) {
		t.Fatalf("restarted store serves %d tenants, want %d", n, len(sites))
	}

	// The restarted life's drain flushes its own final snapshots, restored
	// flag intact.
	cps := store2.Drain(time.Second)
	srv2.H2().Close()
	srv2, store2 = nil, nil
	if len(cps) != len(sites) {
		t.Fatalf("drain checkpointed %d shards, want %d", len(cps), len(sites))
	}
	for _, cp := range cps {
		if !cp.Restored {
			t.Errorf("shard %s lost its restored flag without any retrain", cp.Origin)
		}
		if cp.SnapshotPath == "" || cp.FlushErr != "" {
			t.Errorf("shard %s final flush: %+v", cp.Origin, cp)
		}
		if cp.Lookups == 0 {
			t.Errorf("restored shard %s served no lookups", cp.Origin)
		}
	}
}
