// vroom-load storms a vroom-server with many concurrent simulated clients
// and asserts the robustness invariants the overload plane promises: no load
// ever hangs, shed responses stay retryable, and degradation is always
// tagged. It is the acceptance harness for the resolver-as-a-service work —
// CI runs it against a faulted server and fails on a hung load or on a
// missing shed/stale signal.
//
// Usage:
//
//	vroom-load -server 127.0.0.1:8443 -root https://www.dailynews00.com/ \
//	    -loads 500 -concurrency 64 -faults severe -fault-seed 7 \
//	    -scrape http://127.0.0.1:9090/metrics -json-out load.json
//
// With -faults, every client dial passes through a seeded netem fault shim,
// so the storm exercises the server's recovery paths, not just its happy
// path. -scrape reads the server's /metrics after the storm and folds
// serving-side figures (QPS, hint-lookup p50/p99, shed rate) and the
// hint-efficacy block (per-origin precision/recall, wasted push bytes)
// into the vroom-bench/v1 artifact written by -json-out. With
// -scrape-every the scrape runs periodically through the whole storm
// (each failure retried once, two in a row marked as a gap rather than
// failing the run) and -scrape-out persists the series as a
// vroom-scrapes/v1 file for offline vroom-audit.
//
// Distributed tracing:
//
//	vroom-load -root ... -trace-out storm.json -trace-propagate \
//	    -trace-scrape http://127.0.0.1:9090/trace -flight-dir flight/
//
// -trace-out records every load's client-side spans into one storm
// recording, exported as a validated Perfetto file. -trace-propagate mints
// a per-load trace ID sent in the vroom-trace header; with -trace-scrape
// the server's recording (it must run with -trace) is fetched after the
// storm, its tracks prefixed "srv:", and merged under the clients' — the
// run fails unless at least one fetch's flow joins both sides.
// -flight-dir arms a bounded per-load flight recorder whose ring is dumped
// there as a vroom-events artifact only for loads that end degraded,
// failed, past deadline, or hung.
//
// Exit status: 0 on success; 1 when a load hung, when -require-degraded
// tokens were not all observed, when the scrape was unreachable, or when
// the merged trace failed validation (or joined no cross-process flow).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"vroom/internal/audit"
	"vroom/internal/benchfmt"
	"vroom/internal/faults"
	"vroom/internal/loadgen"
	"vroom/internal/netem"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
)

func main() {
	var (
		server      = flag.String("server", "127.0.0.1:8443", "vroom-server address")
		rootRaw     = flag.String("root", "", "root page URL (as recorded in the archive)")
		loads       = flag.Int("loads", 200, "total page loads")
		concurrency = flag.Int("concurrency", 32, "loads in flight at once")
		seed        = flag.Int64("seed", 1, "seed for the client-class draw")
		faultsRaw   = flag.String("faults", "none", "wire fault regime injected on client dials: none, mild, or severe")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault plan")
		grace       = flag.Duration("grace", 30*time.Second, "hang-watchdog grace beyond each class's load deadline")
		jsonOut     = flag.String("json-out", "", "write a vroom-bench/v1 artifact to this path")
		scrapeURL   = flag.String("scrape", "", "server /metrics URL to scrape after the storm")
		scrapeEvery = flag.Duration("scrape-every", 0, "also scrape -scrape periodically during the storm (0 = final scrape only)")
		scrapeOut   = flag.String("scrape-out", "", "write the scrape series (vroom-scrapes/v1) here for offline vroom-audit")
		requireRaw  = flag.String("require-degraded", "", "comma-separated degradation tokens that must be observed (e.g. stale-hints,shed-push)")
		traceOut    = flag.String("trace-out", "", "write a validated Perfetto trace of the storm to this path")
		traceScrape = flag.String("trace-scrape", "", "server /trace URL; its recording is merged (tracks prefixed srv:) into -trace-out")
		propagate   = flag.Bool("trace-propagate", false, "mint per-load trace IDs and send them in the vroom-trace header")
		flightDir   = flag.String("flight-dir", "", "dump per-load flight-recorder rings here for loads that end degraded, failed, late, or hung")
		flightEvts  = flag.Int("flight-events", 0, "flight-ring capacity per track (default 256)")
	)
	flag.Parse()
	if *rootRaw == "" {
		fmt.Fprintln(os.Stderr, "need -root")
		os.Exit(2)
	}
	root, err := urlutil.Parse(*rootRaw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	regime, err := faults.ParseRegime(*faultsRaw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	dial := func(origin string) (net.Conn, error) { return net.Dial("tcp", *server) }
	if regime != faults.RegimeNone {
		plan := faults.New(*faultSeed, faults.RegimeConfig(regime))
		plan.ExemptURL(root)
		shim := netem.NewFaultShim(plan)
		raw := dial
		dial = func(origin string) (net.Conn, error) {
			return shim.Dial(origin, func() (net.Conn, error) { return raw(origin) })
		}
	}

	var storm *obs.LiveRecording
	var tr *obs.Tracer
	if *traceOut != "" {
		storm = &obs.LiveRecording{Start: time.Now()}
		tr = obs.NewWall(storm)
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// A periodic scraper runs for the storm's whole life so the artifact can
	// say how much of the run it actually observed: each failed scrape is
	// retried once, two failures in a row become a marked gap, never a
	// crashed storm.
	var series *loadgen.ScrapeSeries
	if *scrapeURL != "" && *scrapeEvery > 0 {
		series = loadgen.StartScrapes(*scrapeURL, *scrapeEvery)
	}

	reg := telemetry.NewRegistry()
	res := loadgen.Run(loadgen.Config{
		Roots:        []urlutil.URL{root},
		Loads:        *loads,
		Concurrency:  *concurrency,
		Seed:         *seed,
		Dial:         dial,
		Metrics:      reg,
		HangGrace:    *grace,
		Trace:        tr,
		Propagate:    *propagate,
		FlightDir:    *flightDir,
		FlightEvents: *flightEvts,
	})

	printSummary(res)
	if *flightDir != "" {
		fmt.Printf("flight: %d dump(s) in %s\n", len(res.FlightDumps), *flightDir)
	}

	failed := false
	if res.Hung > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d load(s) hung past deadline+grace\n", res.Hung)
		failed = true
	}
	for _, tok := range splitTokens(*requireRaw) {
		if res.DegradedModes[tok] == 0 {
			fmt.Fprintf(os.Stderr, "FAIL: required degradation mode %q never observed\n", tok)
			failed = true
		}
	}

	if storm != nil {
		if err := exportTrace(*traceOut, *traceScrape, *propagate, storm); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: trace: %v\n", err)
			failed = true
		}
	}

	var srvStats *benchfmt.ServerStats
	if *scrapeURL != "" {
		if series == nil {
			// No periodic cadence asked for: take one final scrape through
			// the same retry-once path a mid-storm scrape gets.
			series = loadgen.StartScrapes(*scrapeURL, 0)
		}
		points := series.Stop()
		if gaps := loadgen.Gaps(points); gaps > 0 {
			fmt.Printf("scrape: %d/%d point(s) gapped (server unreachable past one retry)\n",
				gaps, len(points))
		}
		sc := loadgen.Last(points)
		if sc == nil {
			fmt.Fprintf(os.Stderr, "FAIL: scrape: every attempt failed: %s\n", points[len(points)-1].Err)
			failed = true
		} else {
			srvStats = serverStats(sc, res.Elapsed)
			rep := audit.Summarize(points)
			rep.FoldInto(srvStats)
			fmt.Printf("server: %d requests (%.1f qps), %d shed (%.1f%%), hint lookup p50=%.2fms p99=%.2fms, degraded %.1f%%\n",
				srvStats.Requests, srvStats.QPS, srvStats.Shed, 100*srvStats.ShedRate,
				srvStats.HintLookupP50, srvStats.HintLookupP99, 100*srvStats.DegradedRate)
			if srvStats.HintsEmitted > 0 {
				fmt.Printf("efficacy: %d hints emitted, precision %.3f recall %.3f, %d origin(s), wasted push %dB\n",
					srvStats.HintsEmitted, srvStats.HintPrecision, srvStats.HintRecall,
					len(srvStats.Origins), srvStats.WastedPushBytes)
			}
		}
		if *scrapeOut != "" {
			if err := loadgen.SaveSeries(*scrapeOut, *scrapeURL, points); err != nil {
				fmt.Fprintf(os.Stderr, "FAIL: scrape-out: %v\n", err)
				failed = true
			} else {
				fmt.Printf("scrapes: %s (%d point(s))\n", *scrapeOut, len(points))
			}
		}
	} else if *scrapeOut != "" {
		fmt.Fprintln(os.Stderr, "FAIL: -scrape-out needs -scrape")
		failed = true
	}

	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, res, srvStats, regime, *seed, *concurrency); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		} else {
			fmt.Printf("artifact: %s\n", *jsonOut)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printSummary(res *loadgen.Result) {
	fmt.Printf("storm: %d loads in %.1fs (%d hung, %d deadline-hit)\n",
		res.Loads, res.Elapsed.Seconds(), res.Hung, res.DeadlineHit)
	fmt.Printf("fetches: %d (%d failed, %d retries), %d pushed, %d degraded responses\n",
		res.Fetches, res.FailedFetches, res.Retries, res.Pushed, res.DegradedResps)
	if len(res.DegradedModes) > 0 {
		modes := make([]string, 0, len(res.DegradedModes))
		for m := range res.DegradedModes {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		parts := make([]string, 0, len(modes))
		for _, m := range modes {
			parts = append(parts, fmt.Sprintf("%s=%d", m, res.DegradedModes[m]))
		}
		fmt.Printf("degradation: %s\n", strings.Join(parts, " "))
	}
	for _, s := range classSeries(res) {
		fmt.Printf("  %-20s n=%-4d p50=%7.1fms p95=%7.1fms\n", s.Label, s.N, s.P50, s.P95)
	}
}

// classSeries distills the per-class load times (ms), sorted by class.
func classSeries(res *loadgen.Result) []benchfmt.Series {
	classes := make([]string, 0, len(res.ByClass))
	for cl := range res.ByClass {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	var out []benchfmt.Series
	for _, cl := range classes {
		d := telemetry.NewDist()
		for _, ms := range res.ByClass[cl] {
			d.Add(ms)
		}
		out = append(out, benchfmt.SeriesOf(cl, d))
	}
	return out
}

// exportTrace merges the storm's client recording with the server's /trace
// scrape (when given) and writes one validated Perfetto file. With
// propagation on and a server recording in hand, at least one fetch flow
// must join both processes or the export fails — the cross-process gate CI
// pins.
func exportTrace(path, scrape string, propagate bool, storm *obs.LiveRecording) error {
	merged := storm.Snapshot()
	if scrape != "" {
		srvRec, err := scrapeTrace(scrape)
		if err != nil {
			return err
		}
		merged = obs.Merge(merged, obs.PrefixTracks(srvRec, "srv:"))
		if propagate {
			n := obs.FlowJoinCount(merged, "srv:")
			if n == 0 {
				return fmt.Errorf("no fetch flow joined client and server spans")
			}
			fmt.Printf("trace: %d cross-process flow join(s)\n", n)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePerfetto(f, merged); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := obs.CheckPerfetto(data); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d events)\n", path, len(merged.Events))
	return nil
}

// scrapeTrace fetches a /trace endpoint and parses its vroom-events body.
func scrapeTrace(url string) (*obs.Recording, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return obs.ReadEvents(resp.Body)
}

// serverStats distills a final /metrics scrape into the serving-side
// figures for the artifact. elapsed is the storm's wall time, used for QPS.
func serverStats(sc *loadgen.Scrape, elapsed time.Duration) *benchfmt.ServerStats {
	reqs := sc.Sum("vroom_server_requests_total", nil)
	shed := sc.Sum("vroom_server_shed_total", nil)
	degraded := sc.Sum("vroom_server_degraded_total", nil)
	st := &benchfmt.ServerStats{
		Requests:      int64(reqs),
		Shed:          int64(shed),
		HintLookupP50: sc.HistogramQuantile("vroom_store_hint_lookup_ms", 50),
		HintLookupP99: sc.HistogramQuantile("vroom_store_hint_lookup_ms", 99),
		// The durable-state block: all zero when the server runs without
		// -state-dir, and omitted from the JSON accordingly.
		RecoveryMs:      sc.Sum("vroom_persist_recovery_ms", nil),
		RecoveredTables: int64(sc.Sum("vroom_persist_recovered_tables", nil)),
		Quarantined:     int64(sc.Sum("vroom_persist_quarantined_total", nil)),
		WALFsyncP99:     sc.HistogramQuantile("vroom_persist_wal_fsync_ms", 99),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		st.QPS = reqs / secs
	}
	if reqs+shed > 0 {
		st.ShedRate = shed / (reqs + shed)
	}
	if reqs > 0 {
		st.DegradedRate = degraded / reqs
		st.StaleRestoreRate = sc.Sum("vroom_server_degraded_total",
			map[string]string{"mode": "stale-restore"}) / reqs
	}
	return st
}

// writeArtifact distills the storm into a vroom-bench/v1 file: one figure of
// per-class load times plus the serving-side block when a scrape succeeded.
func writeArtifact(path string, res *loadgen.Result, srv *benchfmt.ServerStats,
	regime faults.Regime, seed int64, workers int) error {
	fig := benchfmt.Figure{
		ID:        "load-storm-plt",
		Title:     "Storm PLT by client class (s)",
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
		Server:    srv,
		Notes: []string{
			fmt.Sprintf("%d loads, %d hung, %d deadline-hit, %d fetch retries",
				res.Loads, res.Hung, res.DeadlineHit, res.Retries),
		},
	}
	fig.Series = classSeries(res)
	return benchfmt.Save(path, &benchfmt.File{
		Scale:     "load",
		Seed:      seed,
		Faults:    regime.String(),
		Workers:   workers,
		ElapsedMs: float64(res.Elapsed) / float64(time.Millisecond),
		Figures:   []benchfmt.Figure{fig},
	})
}

func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}
