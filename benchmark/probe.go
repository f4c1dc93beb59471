package main

import (
	"runtime"
	"time"

	"vroom/internal/core"
	"vroom/internal/hints"
	"vroom/internal/replay"
	"vroom/internal/webpage"
)

// probeRepeats is how often each probe repeats its measurement; the minimum
// is reported, the reading least disturbed by the machine.
const probeRepeats = 5

// prober runs the per-layer probes: each times calls into one layer's
// exported functions from a single goroutine (unless the probe says
// otherwise) and stores the result under the layer metric's name.
type prober struct {
	// slice is the time one repeat of one probe aims to fill.
	slice  time.Duration
	values map[string]float64
	fix    *fixture
}

// stopwatch lets a probe exclude its own per-iteration set-up from the time.
type stopwatch struct {
	running time.Time
	total   time.Duration
}

func (s *stopwatch) pause()  { s.total += time.Since(s.running) }
func (s *stopwatch) resume() { s.running = time.Now() }

// measure calibrates an iteration count that fills the prober's slice, runs
// fn with it probeRepeats times and returns the minimum time and allocation
// count per iteration. Allocations count the whole call, paused parts too.
func (p *prober) measure(fn func(n int, sw *stopwatch)) (nsPerIter, allocs float64) {
	run := func(n int) (time.Duration, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sw := &stopwatch{}
		sw.resume()
		fn(n, sw)
		sw.pause()
		runtime.ReadMemStats(&after)
		return sw.total, after.Mallocs - before.Mallocs
	}
	n := 1
	for {
		d, _ := run(n)
		if d >= p.slice/2 || n >= 1<<24 {
			break
		}
		grow := 100.0
		if d > 0 {
			grow = float64(p.slice) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 2 {
			grow = 2
		}
		n = int(float64(n) * grow)
	}
	best, bestAllocs := time.Duration(-1), uint64(0)
	for r := 0; r < probeRepeats; r++ {
		d, m := run(n)
		if best < 0 || d < best {
			best = d
		}
		if r == 0 || m < bestAllocs {
			bestAllocs = m
		}
	}
	return float64(best) / float64(n), float64(bestAllocs) / float64(n)
}

// simple adapts a probe body without set-up to measure.
func simple(body func()) func(int, *stopwatch) {
	return func(n int, _ *stopwatch) {
		for i := 0; i < n; i++ {
			body()
		}
	}
}

func (p *prober) set(name string, v float64) { p.values[name] = v }

// per converts nanoseconds to the given unit.
func per(ns float64, unit time.Duration) float64 { return ns / float64(unit) }

// time measures body and stores its time per call, in unit, under name and,
// when allocName is not empty, its allocations per call.
func (p *prober) time(name string, unit time.Duration, allocName string, body func()) {
	d, a := p.measure(simple(body))
	p.set(name, per(d, unit))
	if allocName != "" {
		p.set(allocName, a)
	}
}

// fixture is the input every probe shares: one News tenant (the heaviest
// category: ≈130 hints on a ≈70 KB document), its trained resolver and the
// hints it serves.
type fixture struct {
	tn       *tenant
	snapshot *webpage.Snapshot
	resolver *core.Resolver
	hints    []hints.Hint
	headers  map[string][]string // hints.Format(hints)
}

func newFixture() *fixture {
	site := webpage.NewSite("probe000000", webpage.News, skeletonSeed)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: device, UserID: 11}, 1)
	a := replay.FromSnapshot(sn)
	rec, _ := a.Lookup(a.RootURL)
	r := core.NewResolver(core.DefaultResolverConfig())
	r.Train(site, recordTime, device)
	f := &fixture{
		tn:       &tenant{site: site, root: site.RootURL(), body: rec.Body, archive: a},
		snapshot: sn,
		resolver: r,
	}
	f.hints = r.HintsFor(f.tn.root, f.tn.body, device)
	f.headers = hints.Format(f.hints)
	return f
}

// runProbes runs every probe within roughly budget and returns the layer
// metrics they produced.
func runProbes(budget time.Duration) map[string]float64 {
	groups := []func(*prober){
		probeH2, probeH1, probeNetem, probeOverload, probeHintstore, probePersist,
		probeHints, probeCore, probeWebpage, probeReplay, probeWire, probeTelemetry,
		probeEvent, probeNetsim, probeRunner,
	}
	// About 75 measurements, each a calibration (≈1.5 slices) and
	// probeRepeats repeats.
	p := &prober{slice: budget / (75 * (probeRepeats + 2)), values: make(map[string]float64), fix: newFixture()}
	for _, g := range groups {
		g(p)
	}
	return p.values
}
