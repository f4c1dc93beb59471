// vroom-load storms a vroom-server with many concurrent simulated clients
// and asserts the robustness invariants the overload plane promises: no load
// ever hangs, shed responses stay retryable, and degradation is always
// tagged. It is the acceptance harness for the resolver-as-a-service work —
// CI runs it against a faulted server and fails on a hung load or on a
// missing shed/stale signal — and the one live-load tool: a single load is
// -loads 1 -concurrency 1.
//
// Usage:
//
//	vroom-load -server 127.0.0.1:8443 -root https://www.dailynews00.com/ \
//	    -loads 500 -concurrency 64 -faults severe -fault-seed 7 \
//	    -scrape http://127.0.0.1:9090/metrics -json-out load.json
//
// With -faults, every client dial passes through a seeded netem fault shim,
// so the storm exercises the server's recovery paths, not just its happy
// path. -scrape reads the server's /metrics after the storm and adds the
// serving figures (QPS, shed share, hint-lookup p50/p99, degradation modes,
// cold-start recovery) and the hint-efficacy block (per-origin
// precision/recall, wasted push bytes) to the storm report. -json-out
// writes that report as a vroom-audit/v1 file: the storm block, the scrape
// totals and per-origin rows, and the trace and flight blocks when those
// are recorded. With -scrape-every the scrape runs periodically through
// the whole storm (each failure retried once, two in a row marked as a gap
// rather than failing the run) and -scrape-out persists the series as a
// vroom-scrapes/v1 file for offline vroom-audit. -metrics-out writes the
// clients' shared metric registry (counters, gauges, latency histograms
// with exemplars) as JSON.
//
// Distributed tracing:
//
//	vroom-load -root ... -trace-out storm.json -trace-propagate \
//	    -trace-scrape http://127.0.0.1:9090/trace -flight-dir flight/
//
// -trace-out records every load's client-side spans (and, under -faults,
// the shim's injected-fault instants) into one storm recording, exported as
// a validated Perfetto file. -trace-propagate mints a per-load trace ID
// sent in the vroom-trace header; with -trace-scrape the server's recording
// (it must run with -trace) is fetched after the storm, its tracks prefixed
// "srv:", and merged under the clients' — the run fails unless at least
// one fetch's flow joins both sides. -flight-dir arms a bounded per-load
// flight recorder whose ring is dumped there as a vroom-events artifact
// only for loads that end degraded, failed, past deadline, or hung.
//
// Exit status: 0 on success; 1 when a load hung (ran 30s past its class's
// load deadline), when -require-degraded tokens were not all observed, when
// the scrape was unreachable, when the merged trace failed validation (or
// joined no cross-process flow), or when an output file could not be
// written.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"vroom/internal/audit"
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
		jsonOut     = flag.String("json-out", "", "write the storm report (vroom-audit/v1) to this path")
		scrapeURL   = flag.String("scrape", "", "server /metrics URL to scrape after the storm")
		scrapeEvery = flag.Duration("scrape-every", 0, "also scrape -scrape periodically during the storm (0 = final scrape only)")
		scrapeOut   = flag.String("scrape-out", "", "write the scrape series (vroom-scrapes/v1) here for offline vroom-audit")
		requireRaw  = flag.String("require-degraded", "", "comma-separated degradation tokens that must be observed (e.g. stale-hints,shed-push)")
		traceOut    = flag.String("trace-out", "", "write a validated Perfetto trace of the storm to this path")
		traceScrape = flag.String("trace-scrape", "", "server /trace URL; its recording is merged (tracks prefixed srv:) into -trace-out")
		propagate   = flag.Bool("trace-propagate", false, "mint per-load trace IDs and send them in the vroom-trace header")
		flightDir   = flag.String("flight-dir", "", "dump per-load flight-recorder rings here for loads that end degraded, failed, late, or hung")
		metricsOut  = flag.String("metrics-out", "", "write the client metric registry as JSON to this path after the storm")
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
	var reg *telemetry.Registry
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
	}

	dial := func(origin string) (net.Conn, error) { return net.Dial("tcp", *server) }
	if regime != faults.RegimeNone {
		plan := faults.New(*faultSeed, faults.RegimeConfig(regime))
		plan.ExemptURL(root)
		shim := netem.NewFaultShim(plan)
		shim.Trace = tr
		raw := dial
		dial = func(origin string) (net.Conn, error) {
			return shim.Dial(origin, func() (net.Conn, error) { return raw(origin) })
		}
	}

	// A periodic scraper runs for the storm's whole life so the report can
	// say how much of the run it actually observed: each failed scrape is
	// retried once, two failures in a row become a marked gap, never a
	// crashed storm.
	var series *loadgen.ScrapeSeries
	if *scrapeURL != "" && *scrapeEvery > 0 {
		series = loadgen.StartScrapes(*scrapeURL, *scrapeEvery)
	}

	res := loadgen.Run(loadgen.Config{
		Roots:       []urlutil.URL{root},
		Loads:       *loads,
		Concurrency: *concurrency,
		Seed:        *seed,
		Dial:        dial,
		Metrics:     reg,
		Trace:       tr,
		Propagate:   *propagate,
		FlightDir:   *flightDir,
	})

	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
		failed = true
	}

	var points []loadgen.ScrapePoint
	if *scrapeURL != "" {
		if series == nil {
			// No periodic cadence asked for: take one final scrape through
			// the same retry-once path a mid-storm scrape gets.
			series = loadgen.StartScrapes(*scrapeURL, 0)
		}
		points = series.Stop()
		if gaps := loadgen.Gaps(points); gaps > 0 {
			fmt.Printf("scrape: %d/%d point(s) gapped (server unreachable past one retry)\n",
				gaps, len(points))
		}
		if loadgen.Last(points) == nil {
			fail("scrape: every attempt failed: %s", points[len(points)-1].Err)
		}
		if *scrapeOut != "" {
			if err := loadgen.SaveSeries(*scrapeOut, *scrapeURL, points); err != nil {
				fail("scrape-out: %v", err)
			} else {
				fmt.Printf("scrapes: %s (%d point(s))\n", *scrapeOut, len(points))
			}
		}
	} else if *scrapeOut != "" {
		fail("-scrape-out needs -scrape")
	}

	rep := audit.Summarize(points)
	rep.AddStorm(res)
	if storm != nil {
		merged, err := exportTrace(*traceOut, *traceScrape, *propagate, storm)
		if err != nil {
			fail("trace: %v", err)
		}
		rep.AddTrace(merged)
	}
	if *flightDir != "" {
		rep.AddFlight(res.FlightDumps)
	}
	rep.Render(os.Stdout, 20)

	if res.Hung > 0 {
		fail("%d load(s) hung past deadline+grace", res.Hung)
	}
	for _, tok := range splitTokens(*requireRaw) {
		if res.DegradedModes[tok] == 0 {
			fail("required degradation mode %q never observed", tok)
		}
	}
	if reg != nil {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			fail("metrics-out: %v", err)
		} else {
			fmt.Printf("metrics: %s\n", *metricsOut)
		}
	}
	if *jsonOut != "" {
		if err := rep.Save(*jsonOut); err != nil {
			fail("json-out: %v", err)
		} else {
			fmt.Printf("report: %s\n", *jsonOut)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// exportTrace merges the storm's client recording with the server's /trace
// scrape (when given) and writes one validated Perfetto file, returning the
// merged recording. With propagation on and a server recording in hand, at
// least one fetch flow must join both processes or the export fails — the
// cross-process gate CI pins; the merged recording is still returned so the
// report can show what did join.
func exportTrace(path, scrape string, propagate bool, storm *obs.LiveRecording) (*obs.Recording, error) {
	merged := storm.Snapshot()
	if scrape != "" {
		srvRec, err := scrapeTrace(scrape)
		if err != nil {
			return merged, err
		}
		merged = obs.Merge(merged, obs.PrefixTracks(srvRec, audit.ServerTrackPrefix))
	}
	f, err := os.Create(path)
	if err != nil {
		return merged, err
	}
	if err := obs.WritePerfetto(f, merged); err != nil {
		f.Close()
		return merged, err
	}
	if err := f.Close(); err != nil {
		return merged, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return merged, err
	}
	if err := obs.CheckPerfetto(data); err != nil {
		return merged, err
	}
	fmt.Printf("trace: %s (%d events)\n", path, len(merged.Events))
	if scrape != "" && propagate {
		n := obs.FlowJoinCount(merged, audit.ServerTrackPrefix)
		if n == 0 {
			return merged, fmt.Errorf("no fetch flow joined client and server spans")
		}
		fmt.Printf("trace: %d cross-process flow join(s)\n", n)
	}
	return merged, nil
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

// writeMetrics dumps the registry as JSON.
func writeMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
