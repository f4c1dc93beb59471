// Package loadgen drives a vroom replay server with many concurrent
// simulated clients — the storm the overload plane exists for. A run fans
// cfg.Loads page loads over a bounded worker pool; each load is one
// wire.Client drawn deterministically (by seed) from a weighted set of
// heterogeneous client classes: device class, staged vs greedy scheduling,
// protocol, and patience (timeouts) all vary, the way a real mobile
// population's do.
//
// The generator's job is to measure robustness, not just throughput, so
// every load runs under a hang watchdog: a LoadPage call that fails to
// return within its own deadline plus a grace period is counted as hung —
// the invariant the acceptance test pins to zero — rather than blocking the
// run.
package loadgen

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"vroom/internal/browser"
	"vroom/internal/h1"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// ClientClass is one stratum of the simulated client population.
type ClientClass struct {
	Name   string
	Device webpage.DeviceClass
	// Weight is the class's relative share of loads.
	Weight int
	// Staged selects Vroom's staged scheduler; false is greedy baseline.
	Staged bool
	// Proto is "h2" or "h1".
	Proto string
	// Patience: per-request header/stall budgets and the whole-load
	// deadline. Small phones on bad networks give up sooner.
	HeaderTimeout time.Duration
	StallTimeout  time.Duration
	LoadDeadline  time.Duration
}

// DefaultClasses is a mobile-web-shaped population: mostly small phones on
// h2 with staged scheduling, a slice of larger devices, a greedy cohort,
// and an h1 long tail.
func DefaultClasses() []ClientClass {
	return []ClientClass{
		{Name: "phone-small-staged", Device: webpage.PhoneSmall, Weight: 5, Staged: true, Proto: "h2",
			HeaderTimeout: 500 * time.Millisecond, StallTimeout: 500 * time.Millisecond, LoadDeadline: 20 * time.Second},
		{Name: "phone-large-staged", Device: webpage.PhoneLarge, Weight: 3, Staged: true, Proto: "h2",
			HeaderTimeout: time.Second, StallTimeout: time.Second, LoadDeadline: 30 * time.Second},
		{Name: "phone-small-greedy", Device: webpage.PhoneSmall, Weight: 2, Staged: false, Proto: "h2",
			HeaderTimeout: 500 * time.Millisecond, StallTimeout: 500 * time.Millisecond, LoadDeadline: 20 * time.Second},
		{Name: "tablet-h1", Device: webpage.Tablet, Weight: 1, Staged: false, Proto: "h1",
			HeaderTimeout: time.Second, StallTimeout: time.Second, LoadDeadline: 30 * time.Second},
	}
}

// Config shapes one storm.
type Config struct {
	// Roots are the pages the clients load (at least one): each load draws
	// one of them, uniformly by seed, so several make a multi-tenant
	// population.
	Roots []urlutil.URL
	// Loads is the total number of page loads (default 100).
	Loads int
	// Concurrency bounds loads in flight at once (default 32).
	Concurrency int
	// Seed makes the draw from DefaultClasses (and nothing else — the
	// server and wire own their fates) deterministic.
	Seed int64
	// Dial opens a transport to an origin; every client shares it.
	Dial func(origin string) (net.Conn, error)
	// Metrics, when set, aggregates client-side wire metrics across all
	// loads.
	Metrics *telemetry.Registry
	// Trace, when set, records every load's spans into one shared storm
	// recording (it must come from obs.NewWall — loads emit concurrently).
	Trace *obs.Tracer
	// Propagate mints a per-load trace ID on each client and sends it in
	// the request header, so server-side spans stitch to the client's.
	Propagate bool
	// FlightDir, when set, arms a per-load flight recorder: each load keeps
	// a bounded ring of its most recent events, dumped to this directory as
	// a vroom-events artifact only when the load ends degraded, failed,
	// past deadline, or hung.
	FlightDir string
	// RestartAfter and Restart arm the kill-and-restart storm mode: once
	// RestartAfter loads have completed, Restart runs exactly once while the
	// remaining workers keep storming through the outage. The hook plays
	// kill -9 plus cold restart — it must leave the dial target serving
	// again before it returns — and loads in flight ride their per-fetch
	// retry policy across the gap. Zero or nil disables the mode.
	RestartAfter int
	Restart      func() error
}

func (c Config) loads() int {
	if c.Loads > 0 {
		return c.Loads
	}
	return 100
}

func (c Config) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return 32
}

// hangGrace pads each class's LoadDeadline for the hang watchdog. LoadPage
// guarantees return by its deadline; the grace absorbs scheduler noise, so
// any firing is a real hang.
const hangGrace = 30 * time.Second

// Sample is one completed (or hung) load.
type Sample struct {
	Class       string
	Ms          float64
	Fetches     int
	Failed      int
	Degraded    int
	Pushed      int
	DeadlineHit bool
	Hung        bool
	// FlightDump is the path of the flight-recorder artifact this load
	// dumped, empty when the load ended clean (or FlightDir was unset).
	FlightDump string

	// modes and retries ride unexported so Run can fold them into the
	// aggregate without a second report walk.
	modes   map[string]int
	retries int
}

// Result aggregates a storm.
type Result struct {
	Loads int
	// Hung counts loads that failed to return by deadline+grace — the
	// zero-invariant.
	Hung int
	// DeadlineHit counts loads that returned partial reports at their own
	// deadline (a degraded outcome, not a hang).
	DeadlineHit   int
	Fetches       int
	FailedFetches int
	Retries       int
	Pushed        int
	DegradedResps int
	// DegradedModes counts server degradation tokens seen across all
	// responses (stale-hints, shed-hints, shed-push, shed-request).
	DegradedModes map[string]int
	// ByClass holds per-class load wall times in milliseconds.
	ByClass map[string][]float64
	// FlightDumps lists the flight-recorder artifacts written by loads that
	// ended degraded, failed, past deadline, or hung.
	FlightDumps []string
	// Restarts counts Restart-hook firings (0 or 1); RestartMs is the
	// wall-clock outage the hook took; RestartErr carries its failure.
	Restarts   int
	RestartMs  float64
	RestartErr string
	Samples    []Sample
	Elapsed    time.Duration
}

// Run executes the storm and blocks until every load returns or trips the
// hang watchdog.
func Run(cfg Config) *Result {
	classes := DefaultClasses()
	totalWeight := 0
	for _, cl := range classes {
		totalWeight += cl.Weight
	}
	if totalWeight == 0 {
		totalWeight = 1
	}
	roots := cfg.Roots
	pick := func(i int) (ClientClass, urlutil.URL) {
		r := rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x5851f42d4c957f2d))
		root := roots[r.Intn(len(roots))]
		n := r.Intn(totalWeight)
		for _, cl := range classes {
			if n < cl.Weight {
				return cl, root
			}
			n -= cl.Weight
		}
		return classes[0], root
	}

	res := &Result{
		Loads:         cfg.loads(),
		DegradedModes: make(map[string]int),
		ByClass:       make(map[string][]float64),
		Samples:       make([]Sample, cfg.loads()),
	}
	start := time.Now()
	jobs := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var completed int
	var restartFired bool
	for w := 0; w < cfg.concurrency(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cl, root := pick(i)
				s := runOne(cfg, i, cl, root)
				mu.Lock()
				res.Samples[i] = s
				if s.Hung {
					res.Hung++
				} else {
					res.ByClass[s.Class] = append(res.ByClass[s.Class], s.Ms)
				}
				if s.DeadlineHit {
					res.DeadlineHit++
				}
				if s.FlightDump != "" {
					res.FlightDumps = append(res.FlightDumps, s.FlightDump)
				}
				res.Fetches += s.Fetches
				res.FailedFetches += s.Failed
				res.Pushed += s.Pushed
				res.DegradedResps += s.Degraded
				completed++
				fire := cfg.Restart != nil && cfg.RestartAfter > 0 &&
					!restartFired && completed >= cfg.RestartAfter
				if fire {
					restartFired = true // claimed; the hook runs unlocked below
				}
				mu.Unlock()
				if fire {
					t0 := time.Now()
					err := cfg.Restart()
					mu.Lock()
					res.Restarts++
					res.RestartMs = float64(time.Since(t0)) / float64(time.Millisecond)
					if err != nil {
						res.RestartErr = err.Error()
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < cfg.loads(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Fold per-load mode counts after the fact (runOne stashes them on the
	// sample via the report walk below to keep the hot path lock-free).
	mu.Lock()
	for i := range res.Samples {
		for mode, n := range res.Samples[i].modes {
			res.DegradedModes[mode] += n
		}
		res.Retries += res.Samples[i].retries
	}
	res.Elapsed = time.Since(start)
	mu.Unlock()
	return res
}

// stormRetry is every client's per-fetch retry policy: three attempts with
// fast backoff, enough to ride out shed 503s and a restart.
var stormRetry = browser.RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}

// runOne performs a single page load for one class under the hang watchdog.
func runOne(cfg Config, idx int, cl ClientClass, root urlutil.URL) Sample {
	c := &wire.Client{
		Staged:        cl.Staged,
		DialTimeout:   2 * time.Second,
		HeaderTimeout: cl.HeaderTimeout,
		StallTimeout:  cl.StallTimeout,
		LoadDeadline:  cl.LoadDeadline,
		Retry:         stormRetry,
		Metrics:       cfg.Metrics,
		Trace:         cfg.Trace,
		Propagate:     cfg.Propagate,
	}
	// Arm the flight recorder: a bounded black box that rides along and is
	// dumped only when the load ends badly. Forking keeps the shared storm
	// recording (when any) and the ring fed by one tracer with one span-ID
	// space; without a storm tracer the ring is the only sink.
	var flight *obs.FlightRecorder
	if cfg.FlightDir != "" {
		flight = obs.NewFlightRecorder(obs.DefaultFlightEvents)
		if cfg.Trace != nil {
			c.Trace = cfg.Trace.Fork(flight)
		} else {
			c.Trace = obs.NewWall(flight)
		}
	}
	if cl.Proto == "h1" {
		c.DialOrigin = func(origin string) (wire.OriginConn, error) {
			u, err := urlutil.Parse(origin + "/")
			if err != nil {
				return nil, err
			}
			return &h1.Pool{Authority: u.Host, Trace: c.Trace, Metrics: cfg.Metrics,
				Dial: func() (net.Conn, error) { return cfg.Dial(origin) }}, nil
		}
	} else {
		c.Dial = cfg.Dial
	}

	type outcome struct{ rep *wire.Report }
	done := make(chan outcome, 1)
	started := time.Now()
	go func() {
		rep, err := c.LoadPage(root)
		if err != nil {
			rep = &wire.Report{Started: started, Finished: time.Now()}
		}
		done <- outcome{rep}
	}()

	watchdog := time.NewTimer(cl.LoadDeadline + hangGrace)
	defer watchdog.Stop()
	select {
	case o := <-done:
		s := Sample{
			Class:       cl.Name,
			Ms:          float64(o.rep.Total()) / float64(time.Millisecond),
			Fetches:     len(o.rep.Fetches),
			Failed:      o.rep.Failed,
			Degraded:    o.rep.Degraded,
			Pushed:      o.rep.Pushed,
			DeadlineHit: o.rep.DeadlineHit,
		}
		s.modes = make(map[string]int)
		for _, f := range o.rep.Fetches {
			seen := false
			if f.Degraded != "" {
				for _, mode := range strings.Split(f.Degraded, ",") {
					mode = strings.TrimSpace(mode)
					s.modes[mode]++
					seen = seen || mode == wire.DegradedShedRequest
				}
			}
			// Admission 503s whose response lost the degraded header (an
			// injected fault, a mid-write cut) still mean shed-request
			// pressure; count them unless the record already carries the
			// token — Degraded now unions all attempts, so a tagged retry
			// must not be counted twice.
			if f.Status == 503 && f.Failed() && !seen {
				s.modes[wire.DegradedShedRequest]++
			}
		}
		s.retries = o.rep.Retries
		if flight != nil && (s.Failed > 0 || s.Degraded > 0 || s.DeadlineHit) {
			s.FlightDump = dumpFlight(cfg, flight, idx, cl.Name, started)
		}
		return s
	case <-watchdog.C:
		// The load goroutine leaked past its own deadline: the exact bug
		// this generator exists to catch. Leave it behind and report.
		s := Sample{Class: cl.Name, Hung: true,
			Ms: float64(time.Since(started)) / float64(time.Millisecond)}
		if flight != nil {
			// The leaked goroutine may still be emitting; Snapshot is safe
			// against live writers, and a hung load's black box is exactly
			// the artifact worth keeping.
			s.FlightDump = dumpFlight(cfg, flight, idx, cl.Name, started)
		}
		return s
	}
}

// dumpFlight writes one load's flight-ring snapshot as a vroom-events
// artifact and returns its path ("" when there is nothing to dump or the
// write fails — a dump must never fail the storm).
func dumpFlight(cfg Config, flight *obs.FlightRecorder, idx int, class string, started time.Time) string {
	events, dropped := flight.Snapshot()
	if len(events) == 0 {
		return ""
	}
	if dropped > 0 {
		// Make ring eviction visible in the artifact itself.
		events = append(events, obs.Event{Kind: obs.KindInstant, Track: "flight",
			Name: "events-dropped", At: events[len(events)-1].At,
			Args: []obs.Arg{{Key: "count", Val: strconv.FormatUint(dropped, 10)}}})
	}
	path := filepath.Join(cfg.FlightDir, fmt.Sprintf("flight-%04d-%s.json", idx, class))
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	if err := obs.WriteEvents(f, &obs.Recording{Start: started, Events: events}); err != nil {
		return ""
	}
	return path
}
