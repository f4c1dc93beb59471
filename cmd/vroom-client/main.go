// vroom-client loads a page from a vroom-server over real HTTP/2, using
// either Vroom's staged request scheduler or baseline fetch-on-discovery,
// and reports per-resource timings.
//
// Usage:
//
//	vroom-client -server 127.0.0.1:8443 -root https://www.dailynews00.com/ [-staged=false]
//	vroom-client -root ... -faults severe -fault-seed 7   # inject wire faults
//
// With -faults the client's dials pass through a seeded netem fault shim
// that injects origin outages, brownout first-byte delays, and per-connection
// resets/stalls/truncation. The load still completes: failed fetches are
// reported with a typed error kind and retry count instead of aborting the
// page.
//
// Observability:
//
//	vroom-client -root ... -trace load.json       # Perfetto trace of the load
//	vroom-client -root ... -metrics-out m.json    # metrics registry dump
//
// -trace records wall-clock spans for every phase of the load (dials,
// retries, backoff waits, header/body transfer, pushes, injected faults)
// into a Chrome trace-event file that chrome://tracing or ui.perfetto.dev
// opens directly. -metrics-out dumps the client's metric registry
// (counters, gauges, latency histograms) as JSON after the load.
//
// With -trace-propagate the client mints a per-load trace ID and sends it
// (plus a per-fetch span ID) in the vroom-trace request header; a server
// running with -trace adopts it. -trace-scrape then fetches the server's
// /trace recording after the load and merges it (tracks prefixed "srv:")
// into the -trace file, joined to the client's fetches by flow events.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"vroom/internal/browser"
	"vroom/internal/faults"
	"vroom/internal/h1"
	"vroom/internal/netem"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/wire"
)

func main() {
	var (
		server     = flag.String("server", "127.0.0.1:8443", "vroom-server address")
		rootRaw    = flag.String("root", "", "root page URL (as recorded in the archive)")
		staged     = flag.Bool("staged", true, "use Vroom's staged scheduler")
		proto      = flag.String("proto", "h2", "wire protocol: h2 or h1")
		verbose    = flag.Bool("v", false, "print every fetch")
		faultsRaw  = flag.String("faults", "none", "wire fault regime injected on dials: none, mild, or severe")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the fault plan (same seed => same injected faults)")
		dialTO     = flag.Duration("dial-timeout", 10*time.Second, "per-connection dial timeout")
		headerTO   = flag.Duration("header-timeout", 5*time.Second, "per-request response-header timeout")
		stallTO    = flag.Duration("stall-timeout", 5*time.Second, "per-request body-progress stall timeout")
		deadline   = flag.Duration("deadline", 2*time.Minute, "whole-load deadline; a partial report is returned on expiry")
		retries    = flag.Int("retries", 3, "max attempts per fetch (1 disables retries)")
		traceOut   = flag.String("trace", "", "write a Perfetto (Chrome trace-event) trace of the load to this path")
		propagate  = flag.Bool("trace-propagate", false, "send a per-load trace context in the vroom-trace header")
		traceScr   = flag.String("trace-scrape", "", "server /trace URL; its recording is merged (tracks prefixed srv:) into -trace")
		metricsOut = flag.String("metrics-out", "", "write the client metric registry as JSON to this path after the load")
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

	var (
		tr  *obs.Tracer
		rec *obs.LiveRecording
		reg *telemetry.Registry
	)
	if *traceOut != "" {
		rec = &obs.LiveRecording{Start: time.Now()}
		tr = obs.NewWall(rec)
	}
	if *metricsOut != "" {
		reg = telemetry.NewRegistry()
	}

	dial := func() (net.Conn, error) { return net.Dial("tcp", *server) }
	originDial := func(origin string) (net.Conn, error) { return dial() }
	if regime != faults.RegimeNone {
		plan := faults.New(*faultSeed, faults.RegimeConfig(regime))
		plan.ExemptURL(root)
		shim := netem.NewFaultShim(plan)
		shim.Trace = tr
		originDial = func(origin string) (net.Conn, error) { return shim.Dial(origin, dial) }
	}

	c := &wire.Client{
		Staged:        *staged,
		DialTimeout:   *dialTO,
		HeaderTimeout: *headerTO,
		StallTimeout:  *stallTO,
		LoadDeadline:  *deadline,
		Retry:         browser.RetryPolicy{MaxAttempts: *retries},
		Trace:         tr,
		Propagate:     *propagate,
		Metrics:       reg,
	}
	if *proto == "h1" {
		c.DialOrigin = func(origin string) (wire.OriginConn, error) {
			u, err := urlutil.Parse(origin + "/")
			if err != nil {
				return nil, err
			}
			return &h1.Pool{Authority: u.Host, Trace: tr, Metrics: reg,
				Dial: func() (net.Conn, error) { return originDial(origin) }}, nil
		}
	} else {
		c.Dial = originDial
	}
	rep, err := c.LoadPage(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if rec != nil {
		snap := rec.Snapshot()
		if *traceScr != "" {
			srvRec, err := scrapeTrace(*traceScr)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			snap = obs.Merge(snap, obs.PrefixTracks(srvRec, "srv:"))
		}
		if err := writeTrace(*traceOut, snap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: %s (%d events)\n", *traceOut, len(snap.Events))
	}
	if reg != nil {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %s\n", *metricsOut)
	}

	sort.Slice(rep.Fetches, func(i, j int) bool { return rep.Fetches[i].Done.Before(rep.Fetches[j].Done) })
	if *verbose {
		for _, f := range rep.Fetches {
			mark := " "
			if f.Pushed {
				mark = "P"
			}
			if f.Failed() {
				mark = "!"
			}
			fmt.Printf("%s %-4s %7dB %8.1fms  %s\n", mark, f.Priority, f.Bytes,
				f.Done.Sub(rep.Started).Seconds()*1000, f.URL)
		}
	}
	for _, f := range rep.Fetches {
		if f.Failed() {
			fmt.Printf("failed %-15s retries=%d  %s  (%s)\n", f.ErrKind, f.Retries, f.URL, f.Err)
		}
	}
	fmt.Printf("loaded %s: %d resources (%d failed, %d retries), %d pushed, %.1f KB, %.0f ms (staged=%v)\n",
		rep.Root, len(rep.Fetches), rep.Failed, rep.Retries, rep.Pushed, float64(rep.Bytes)/1024,
		rep.Total().Seconds()*1000, *staged)
	if rep.DeadlineHit {
		fmt.Printf("load deadline %v hit: report is partial\n", *deadline)
	}
}

// writeTrace exports the recorded load as a Perfetto file, validating the
// JSON before it lands so a broken trace never reaches chrome://tracing.
func writeTrace(path string, snap *obs.Recording) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePerfetto(f, snap); err != nil {
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
	return obs.CheckPerfetto(data)
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
		return nil, fmt.Errorf("trace scrape %s: status %d", url, resp.StatusCode)
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
