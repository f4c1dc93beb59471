package loadgen

import (
	"net"
	"runtime"
	"testing"
	"time"

	"vroom/internal/core"
	"vroom/internal/faults"
	"vroom/internal/hintstore"
	"vroom/internal/netem"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

var stormEpoch = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

// stormWorld is an in-process resolver-as-a-service deployment: two tenant
// sites behind one wire server with a multi-tenant hint store, admission
// gate, seeded server faults, and a netem link.
type stormWorld struct {
	srv   *wire.Server
	store *hintstore.Store
	gate  *overload.Gate
	reg   *telemetry.Registry
	roots []urlutil.URL
	link  *netem.Listener
	shim  *netem.FaultShim
}

func newStormWorld(t *testing.T, ttl time.Duration, maxConcurrent int) *stormWorld {
	t.Helper()
	device := webpage.PhoneSmall
	var (
		archives []*replay.Archive
		tenants  []*webpage.Site
	)
	for i, name := range []string{"stormnews", "stormsports"} {
		site := webpage.NewSite(name, webpage.Top100, int64(100+i))
		archives = append(archives, replay.FromSnapshot(
			site.Snapshot(stormEpoch, webpage.Profile{Device: device, UserID: 5}, 1)))
		tenants = append(tenants, site)
	}
	merged := replay.Merge(archives...)

	store := hintstore.New(hintstore.Config{
		// A tiny TTL with a huge stale window forces the
		// stale-while-revalidate path (and its background retrains) to fire
		// continuously during the storm without ever shedding hints at the
		// store layer — the gate ladder owns shed-hints in this world.
		TTL:      ttl,
		MaxStale: time.Hour,
		Workers:  2,
	})
	for i, site := range tenants {
		u, err := urlutil.Parse(archives[i].RootURL)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Register(u.Host, device, hintstore.SiteTrainer(site, stormEpoch, device, core.DefaultResolverConfig())); err != nil {
			t.Fatal(err)
		}
	}
	if !store.Ready() {
		t.Fatal("store not ready after registering every tenant")
	}

	gate := overload.NewGate(overload.Config{
		MaxConcurrent: maxConcurrent,
		MaxQueue:      maxConcurrent,
		MaxWait:       250 * time.Millisecond,
	})

	srv := wire.NewServer(merged, nil, device, wire.ServerConfig{SendHints: true, Push: true})
	srv.Store = store
	srv.Gate = gate
	// Hint-quality accounting runs through the whole storm so the -race run
	// exercises the accountant's settlement path at full concurrency.
	srv.Acct = wire.NewAccountant(wire.AccountingConfig{Store: store, Window: 2 * time.Second})
	reg := telemetry.NewRegistry()
	srv.Instrument(nil, reg)

	var roots []urlutil.URL
	for _, a := range archives {
		u, err := urlutil.Parse(a.RootURL)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, u)
	}
	serverPlan := faults.New(7, faults.Config{
		BrownoutFrac:     0.2,
		BrownoutMaxDelay: 20 * time.Millisecond,
		ErrorRate:        0.05,
		StaleHintRate:    0.15,
		RedirectFrac:     0.5,
	})
	for _, u := range roots {
		serverPlan.ExemptURL(u)
	}
	srv.Faults = serverPlan

	clientPlan := faults.New(13, faults.Config{
		ErrorRate:    0.04,
		TruncateRate: 0.04,
	})
	for _, u := range roots {
		clientPlan.ExemptURL(u)
	}

	link := netem.Listen(netem.LinkConfig{
		Delay:               time.Millisecond,
		DownlinkBytesPerSec: 50e6,
		UplinkBytesPerSec:   50e6,
	})
	go srv.H2().Serve(link)
	t.Cleanup(func() {
		srv.H2().Close()
		link.Close()
		store.Drain(time.Second)
	})

	return &stormWorld{srv: srv, store: store, gate: gate, reg: reg,
		roots: roots, link: link, shim: netem.NewFaultShim(clientPlan)}
}

func (w *stormWorld) config(loads, concurrency int) Config {
	return Config{
		Roots:       w.roots,
		Loads:       loads,
		Concurrency: concurrency,
		Seed:        42,
		Dial:        func(origin string) (net.Conn, error) { return w.shim.Dial(origin, w.link.Dial) },
	}
}

// TestStormChaosAcceptance is the acceptance storm: ≥1000 concurrent loads
// (200 under -short) against a faulted two-tenant server with a small
// admission gate and a hint store whose tables go stale mid-storm. It pins
// the robustness invariants: zero hung loads, every degradation tagged,
// stale-while-revalidate actually retraining and swapping tables, and a
// post-storm drain checkpointing every shard.
func TestStormChaosAcceptance(t *testing.T) {
	loads := 1000
	if testing.Short() {
		loads = 200
	}
	w := newStormWorld(t, 40*time.Millisecond, 16)

	// A stall watchdog guards the whole storm: if no load finishes for the
	// timeout it dumps every goroutine stack before the test deadline would
	// kill the run with no evidence. The baseline feeds the post-storm
	// goroutine-leak check.
	baseline := runtime.NumGoroutine()
	wd := telemetry.NewWatchdog("storm-acceptance", 3*time.Minute, nil, func() {
		t.Error("storm stalled: no progress within the watchdog timeout (stacks dumped above)")
	})
	defer wd.Stop()

	res := Run(w.config(loads, 64))

	if wd.Stop() {
		t.Fatal("stall watchdog fired during the storm")
	}
	// Every load goroutine, per-load watchdog, and client connection the
	// generator spawned must be gone; only the world's own long-lived
	// goroutines (store workers, accept loop, draining server conns) remain.
	if err := telemetry.CheckGoroutineLeak(baseline, 32, 10*time.Second); err != nil {
		t.Errorf("storm leaked goroutines: %v", err)
	}

	if res.Hung != 0 {
		t.Fatalf("%d load(s) hung past deadline+grace", res.Hung)
	}
	if res.Loads != loads || len(res.Samples) != loads {
		t.Fatalf("ran %d/%d loads", len(res.Samples), loads)
	}
	if res.Fetches == 0 {
		t.Fatal("storm fetched nothing")
	}

	// Degradation must be visible, and tagged per mode: the short TTL
	// guarantees stale-hints, the small gate guarantees load-shedding of
	// optional work.
	if res.DegradedModes[wire.DegradedStaleHints] == 0 {
		t.Errorf("no stale-hints responses observed; modes=%v", res.DegradedModes)
	}
	if res.DegradedModes[wire.DegradedShedPush] == 0 && res.DegradedModes[wire.DegradedShedHints] == 0 {
		t.Errorf("gate never shed push or hints; modes=%v", res.DegradedModes)
	}
	if res.DegradedResps == 0 {
		t.Error("no response carried a degradation tag")
	}

	// Stale lookups must have driven real background retrains and RCU swaps
	// (the -race run vouches the swaps were never torn).
	if n := w.reg.Counter("vroom_store_retrains_total").Value(); n == 0 {
		t.Error("no background retrain completed during the storm")
	}
	if n := w.reg.Counter("vroom_store_lookups_total", telemetry.L("source", "stale")).Value(); n == 0 {
		t.Error("no lookup was served stale")
	}

	// The hint-quality accountant ran through the whole storm: its aggregate
	// books must be non-empty and balanced (settlements never outrun
	// emissions; windows still open at storm end are simply unsettled).
	var emitted, used, unused int64
	for _, q := range w.store.QualityAll() {
		emitted += q.HintsEmitted
		used += q.HintsUsed
		unused += q.HintsUnused
	}
	if emitted == 0 || used == 0 {
		t.Errorf("accounting ledgers empty after storm: emitted=%d used=%d", emitted, used)
	}
	if used+unused > emitted {
		t.Errorf("accounting books unbalanced: used %d + unused %d > emitted %d", used, unused, emitted)
	}

	// The server's books must balance: everything admitted was counted, and
	// shedding showed up either as 503s or transport refusals that the
	// clients retried.
	if n := w.reg.Counter("vroom_server_requests_total", telemetry.L("proto", "h2")).Value(); n == 0 {
		t.Fatal("server served nothing")
	}
	if n := w.reg.Counter("vroom_server_degraded_total", telemetry.L("mode", wire.DegradedStaleHints)).Value(); n == 0 {
		t.Error("server books missing stale-hints")
	}

	// Post-storm drain: bounded, and every shard checkpointed with a version
	// history proving retrains published.
	start := time.Now()
	cps := w.store.Drain(5 * time.Second)
	if el := time.Since(start); el > 6*time.Second {
		t.Fatalf("drain took %v, want under 6s", el)
	}
	if len(cps) != 2 {
		t.Fatalf("drain checkpointed %d shards, want 2", len(cps))
	}
	for _, cp := range cps {
		if cp.Version < 2 {
			t.Errorf("shard %s still at version %d; retrains never published", cp.Origin, cp.Version)
		}
		if cp.Lookups == 0 {
			t.Errorf("shard %s served no lookups", cp.Origin)
		}
	}
}

// TestStormDrainMidStorm SIGTERM-shapes the server while a storm is in
// flight: Drain must return within its budget, checkpoint every shard, and
// the storm must still complete with zero hung loads — requests after the
// drain fail fast and retryably rather than stalling.
func TestStormDrainMidStorm(t *testing.T) {
	loads := 300
	if testing.Short() {
		loads = 100
	}
	w := newStormWorld(t, 40*time.Millisecond, 16)

	done := make(chan *Result, 1)
	go func() { done <- Run(w.config(loads, 48)) }()

	time.Sleep(400 * time.Millisecond)
	start := time.Now()
	cps := w.srv.Drain(3 * time.Second)
	drainTime := time.Since(start)
	if drainTime > 5*time.Second {
		t.Fatalf("mid-storm drain took %v, want under 5s", drainTime)
	}
	if len(cps) != 2 {
		t.Fatalf("mid-storm drain checkpointed %d shards, want 2", len(cps))
	}

	var res *Result
	select {
	case res = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("storm did not finish after mid-storm drain")
	}
	if res.Hung != 0 {
		t.Fatalf("%d load(s) hung across the drain", res.Hung)
	}
	if res.Loads != loads {
		t.Fatalf("ran %d/%d loads", res.Loads, loads)
	}
}
