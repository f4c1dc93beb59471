// vroom-server replays recorded pages over real HTTP/2 with Vroom's
// dependency hints and server push, Mahimahi-style: a single listener
// serves every authority in the archive. Hints and push are always on; the
// live baseline-vs-Vroom comparison is examples/livewire.
//
// Usage:
//
//	vroom-server -archive page.json -listen :8443
//	vroom-server -site dailynews00 -listen :8443   # generate + serve
//	vroom-server -sites dailynews00,socialites01 -listen :8443   # multi-tenant
//	vroom-server -site dailynews00 -faults severe -fault-seed 7   # broken world
//
// Hints are served by a multi-tenant hint store: one shard per origin, each
// holding an immutable, atomically-swapped hint table that background
// workers retrain as it ages (-hint-ttl, the paper's hourly churn). Stale
// tables serve tagged stale-while-revalidate; only far past the TTL
// (-max-stale) are hints shed — never the response itself.
//
// The serving path runs behind admission control (-max-concurrent,
// -max-queue, -max-wait): requests beyond capacity queue LIFO and shed with
// a retryable 503, and an admitting-but-loaded gate degrades push first,
// hints second. Degraded responses carry a vroom-degraded header naming
// every mode applied.
//
// On SIGTERM/SIGINT the server drains gracefully: admission stops, the
// listener closes, every HTTP/2 connection gets a GOAWAY, in-flight streams
// have 3s to finish, background retraining is cancelled, and each hint
// shard's final table version is checkpointed to the log.
//
// With -state-dir trained hint tables are durable: every retrain publish
// appends to a per-origin CRC-framed write-ahead log, fsynced on every
// append; periodic snapshots compact it (-snapshot-every, -wal-rotate); the
// SIGTERM drain writes one final snapshot per origin — each checkpoint logs
// its snapshot path and bytes, and a failed final flush exits nonzero. On
// restart the store recovers the newest valid snapshot plus WAL tail,
// quarantining corrupt or torn files, and serves the restored tables
// immediately tagged "vroom-degraded: stale-restore" while background
// retraining refreshes them; /readyz reports "recovering" until it has.
//
// With -telemetry-addr the server also runs a plain net/http sidecar
// exposing /metrics (Prometheus text), /healthz (liveness), /readyz
// (readiness: every tenant trained and not draining), and the standard
// /debug/pprof/ endpoints. With -trace the serving path additionally
// records wall-clock spans (admission wait, hint lookup, degradation
// decisions, pushes) adopting any trace context clients propagate in the
// vroom-trace header; /trace on the sidecar serves the recording as
// vroom-events JSON for a client to merge with its own. The sidecar is
// observability-only — replay traffic never touches it.
//
// The serving path keeps per-tenant hint-quality ledgers: each served hint
// opens a bounded prediction window (-accounting-window) that settles used
// when the client requests the hinted URL and unused when it expires,
// with unpredicted subresource fetches counted as misses and redundant
// pushes as wasted bytes. The ledgers surface as bounded-cardinality
// vroom_hint_quality_* series on /metrics (vroom-audit turns them into a
// per-origin efficacy report) and persist with -state-dir snapshots. -runtime-metrics-every samples Go
// runtime vitals (heap, goroutines, GC pause, scheduler latency) into the
// same registry.
//
// All operational output is structured (log/slog): -log-format selects
// text or json, -log-level the threshold. Message values are single words
// (msg=trained, msg=checkpoint, msg=drained) so pipelines can grep
// structurally in either format.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"vroom/internal/core"
	"vroom/internal/faults"
	"vroom/internal/hintstore"
	"vroom/internal/hintstore/persist"
	"vroom/internal/logutil"
	"vroom/internal/obs"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// drainBudget is how long in-flight streams get to finish on SIGTERM.
const drainBudget = 3 * time.Second

// tenant is one origin to be registered in the hint store.
type tenant struct {
	origin  string
	root    urlutil.URL
	body    string
	trainer hintstore.Trainer
}

func main() {
	var (
		archivePath = flag.String("archive", "", "replay archive (JSON) to serve")
		siteName    = flag.String("site", "", "generate and serve this site instead (popular* is Top100, sport* Sports, any other name News)")
		sitesRaw    = flag.String("sites", "", "comma-separated site names to generate and serve multi-tenant")
		seed        = flag.Int64("seed", 2017, "generator seed when using -site/-sites")
		listen      = flag.String("listen", "127.0.0.1:8443", "listen address (h2c)")
		think       = flag.Duration("think", 10*time.Millisecond, "per-request server think time")
		proto       = flag.String("proto", "h2", "wire protocol: h2 or h1")
		faultsRaw   = flag.String("faults", "none", "server-side fault regime: none, mild, or severe")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault plan (same seed => same injected faults)")
		telAddr     = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /readyz, /trace, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
		traceOn     = flag.Bool("trace", false, "record serving-path spans (adopting propagated vroom-trace contexts); scrape them at /trace on -telemetry-addr")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		logLevel    = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")

		hintTTL  = flag.Duration("hint-ttl", time.Hour, "hint-table freshness window before a background retrain")
		maxStale = flag.Duration("max-stale", 0, "age past which hints are shed instead of served stale (default 4x -hint-ttl)")

		stateDir  = flag.String("state-dir", "", "persist trained hint tables here (snapshot+WAL per origin); on restart the store serves restored tables immediately, tagged stale-restore")
		snapEvery = flag.Duration("snapshot-every", 30*time.Second, "periodic full-snapshot interval under -state-dir")
		walRotate = flag.Int64("wal-rotate", 1<<20, "WAL size in bytes past which a snapshot is cut and the WAL reset")

		maxConc  = flag.Int("max-concurrent", 64, "requests admitted at once (0 disables admission control)")
		maxQueue = flag.Int("max-queue", 0, "admission queue depth (default 2x -max-concurrent)")
		maxWait  = flag.Duration("max-wait", time.Second, "longest a request waits for admission before shedding")

		acctWindow = flag.Duration("accounting-window", 0, "how long an emitted hint may wait for its request before settling unused (default 5s)")
		rtEvery    = flag.Duration("runtime-metrics-every", 5*time.Second, "Go-runtime vitals sampling interval for /metrics (0 disables); needs -telemetry-addr")
	)
	flag.Parse()

	log, err := logutil.New(os.Stdout, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	device := webpage.PhoneSmall

	archive, tenants, fallback, err := buildWorld(*archivePath, *siteName, *sitesRaw, *seed, at, device)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	regime, err := faults.ParseRegime(*faultsRaw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Train every tenant synchronously before accepting traffic, logging the
	// warmup cost: readiness (the /readyz endpoint) is exactly "every shard
	// has a published table". Under -state-dir the store first recovers
	// whatever the previous process persisted — restored origins skip the
	// synchronous warmup and serve their disk tables immediately (tagged
	// stale-restore) while background retraining refreshes them.
	storeCfg := hintstore.Config{TTL: *hintTTL, MaxStale: *maxStale, Log: log}
	var store *hintstore.Store
	if *stateDir != "" {
		storeCfg.Persist = persist.Options{
			Dir: *stateDir, SnapshotEvery: *snapEvery, WALRotateBytes: *walRotate,
		}
		var rec *persist.Recovery
		store, rec, err = hintstore.NewDurable(storeCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		log.Info("recovered", "dir", *stateDir, "tables", len(rec.Tables),
			"snapshots", rec.Snapshots, "wal_records", rec.WALRecords,
			"quarantined", len(rec.Quarantined), "torn_tails", rec.TornTails,
			"ms", rec.Elapsed.Milliseconds())
	} else {
		store = hintstore.New(storeCfg)
	}
	trainStart := time.Now()
	for _, tn := range tenants {
		t0 := time.Now()
		if err := store.Register(tn.origin, device, tn.trainer); err != nil {
			fmt.Fprintf(os.Stderr, "train %s: %v\n", tn.origin, err)
			os.Exit(1)
		}
		hs, res := store.Lookup(tn.root, tn.body)
		log.Info("trained", "origin", tn.origin, "hints", len(hs),
			"version", res.Version, "ms", int(time.Since(t0).Milliseconds()))
	}
	log.Info("store-ready", "tenants", store.Tenants(),
		"ms", int(time.Since(trainStart).Milliseconds()), "ttl", hintTTL.String())

	var gate *overload.Gate
	if *maxConc > 0 {
		gate = overload.NewGate(overload.Config{
			MaxConcurrent: *maxConc, MaxQueue: *maxQueue, MaxWait: *maxWait, Log: log,
		})
	}

	srv := wire.NewServer(archive, fallback, device, wire.ServerConfig{
		SendHints: true, Push: true, ThinkTime: *think,
	})
	srv.Store = store
	srv.Gate = gate
	srv.Log = log
	srv.Acct = wire.NewAccountant(wire.AccountingConfig{Store: store, Window: *acctWindow})
	if regime != faults.RegimeNone {
		plan := faults.New(*faultSeed, faults.RegimeConfig(regime))
		// The root document must stay loadable or every run is a trivial
		// total failure.
		if root, perr := urlutil.Parse(archive.RootURL); perr == nil {
			plan.ExemptURL(root)
		}
		srv.Faults = plan
	}

	// The serving-path tracer: -trace records every request's admission,
	// hint, degradation, and push spans into one live recording; clients
	// that propagate a vroom-trace context get their IDs adopted, so the
	// /trace scrape merges cleanly under their own timeline.
	var live *obs.LiveRecording
	var tr *obs.Tracer
	if *traceOn {
		live = &obs.LiveRecording{Start: time.Now()}
		tr = obs.NewWall(live)
	}

	var draining atomic.Bool
	if *telAddr == "" {
		srv.Instrument(tr, nil)
	} else {
		reg := telemetry.NewRegistry()
		srv.Instrument(tr, reg)
		// Runtime vitals ride the same registry: a scrape answers "is the
		// process healthy", not just "is the protocol".
		rc := telemetry.NewRuntimeCollector(reg, *rtEvery)
		if *rtEvery > 0 {
			rc.Start()
			defer rc.Stop()
		}
		// net/http/pprof registers its handlers on the default mux; put
		// /metrics and the health endpoints there too so one listener serves
		// the whole plane.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		http.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		http.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
			if draining.Load() || !store.Ready() {
				http.Error(w, "not ready", http.StatusServiceUnavailable)
				return
			}
			// Serving, but some tenant is still on a disk-restored table that
			// background retraining has not refreshed: available-degraded, a
			// distinct state so operators and CI can tell stale-restore
			// serving from full freshness.
			if store.Recovering() {
				fmt.Fprintln(w, "recovering")
				return
			}
			fmt.Fprintln(w, "ready")
		})
		http.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			if live == nil {
				http.Error(w, "tracing disabled (run with -trace)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			obs.WriteEvents(w, live.Snapshot())
		})
		tl, err := net.Listen("tcp", *telAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		log.Info("telemetry", "addr", tl.Addr().String(), "trace", *traceOn)
		go http.Serve(tl, nil)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Info("serving", "resources", archive.Len(), "root", archive.RootURL,
		"addr", l.Addr().String(), "proto", *proto,
		"faults", regime.String(), "gate", *maxConc)

	serveErr := make(chan error, 1)
	go func() {
		if *proto == "h1" {
			serveErr <- srv.H1().Serve(l)
		} else {
			serveErr <- srv.H2().Serve(l)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err = <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case s := <-sig:
		log.Info("draining", "signal", s.String(), "budget", drainBudget.String())
		draining.Store(true)
		l.Close()
		cps := srv.Drain(drainBudget)
		flushFailed := false
		for _, cp := range cps {
			args := []any{"origin", cp.Origin, "version", cp.Version,
				"trained", cp.TrainedAt.Format(time.RFC3339),
				"lookups", cp.Lookups, "retrains", cp.Retrains}
			if *stateDir != "" {
				args = append(args, "snapshot", cp.SnapshotPath, "bytes", cp.SnapshotBytes)
			}
			if cp.FlushErr != "" {
				flushFailed = true
				args = append(args, "flush_err", cp.FlushErr)
				log.Error("checkpoint", args...)
				continue
			}
			log.Info("checkpoint", args...)
		}
		if flushFailed {
			// A drain whose final flush lost state must not look clean to the
			// supervisor: the next cold start will serve older tables.
			log.Error("drained", "flush", "failed")
			os.Exit(1)
		}
		log.Info("drained")
	}
}

// buildWorld assembles the archive to replay, the hint-store tenants, and
// the fallback resolver for origins outside the store.
func buildWorld(archivePath, siteName, sitesRaw string, seed int64,
	at time.Time, device webpage.DeviceClass) (*replay.Archive, []tenant, *core.Resolver, error) {
	names := splitNames(sitesRaw)
	if siteName != "" {
		names = append([]string{siteName}, names...)
	}
	switch {
	case archivePath != "":
		archive, err := replay.LoadFile(archivePath)
		if err != nil {
			return nil, nil, nil, err
		}
		// Without the generating site we cannot train offline; online
		// analysis of the archived bodies still provides hints. The archive's
		// origin gets a static store tenant so the serving path is uniform.
		resolver := core.NewResolver(core.ResolverConfig{UseOnline: true})
		root, err := urlutil.Parse(archive.RootURL)
		if err != nil {
			return nil, nil, nil, err
		}
		body := ""
		if rec, ok := archive.Lookup(archive.RootURL); ok {
			body = rec.Body
		}
		tn := tenant{origin: root.Host, root: root, body: body,
			trainer: hintstore.StaticTrainer(resolver)}
		return archive, []tenant{tn}, resolver, nil

	case len(names) > 0:
		var (
			archives []*replay.Archive
			tenants  []tenant
		)
		for i, name := range names {
			site := webpage.NamedSite(name, seed+int64(i))
			a := replay.FromSnapshot(site.Snapshot(at, webpage.Profile{Device: device, UserID: 11}, 1))
			root, err := urlutil.Parse(a.RootURL)
			if err != nil {
				return nil, nil, nil, err
			}
			body := ""
			if rec, ok := a.Lookup(a.RootURL); ok {
				body = rec.Body
			}
			archives = append(archives, a)
			tenants = append(tenants, tenant{
				origin: root.Host, root: root, body: body,
				trainer: hintstore.SiteTrainer(site, at, device, core.DefaultResolverConfig()),
			})
		}
		return replay.Merge(archives...), tenants, nil, nil

	default:
		return nil, nil, nil, fmt.Errorf("need -archive, -site, or -sites")
	}
}

func splitNames(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if name := s[start:i]; name != "" {
				out = append(out, name)
			}
			start = i + 1
		}
	}
	return out
}
