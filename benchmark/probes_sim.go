package main

import (
	"fmt"
	"time"

	"vroom/internal/browser"
	"vroom/internal/event"
	"vroom/internal/netsim"
	"vroom/internal/runner"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

func probeEvent(p *prober) {
	// One schedule and one step on a queue that holds 1000 pending events.
	eng := event.New(recordTime)
	noop := func() {}
	for i := 0; i < 1000; i++ {
		eng.ScheduleAfter(time.Duration(i+1)*time.Millisecond, "pending", noop)
	}
	p.time("event.schedule_step_ns", time.Nanosecond, "event.schedule_step_allocs", func() {
		eng.ScheduleAfter(time.Second, "probe", noop)
		eng.Step()
	})
}

func probeNetsim(p *prober) {
	// k concurrent 100 KB responses from k origins, run until the network is
	// idle: every arrival and completion re-divides the link max-min, so the
	// time per flow grows with the flow count.
	for _, k := range []int{8, 64} {
		urls := make([]urlutil.URL, k)
		for i := range urls {
			urls[i] = urlutil.URL{Scheme: "https", Host: fmt.Sprintf("o%02d.example.com", i), Path: "/r"}
		}
		d, _ := p.measure(simple(func() {
			eng := event.New(recordTime)
			n := netsim.New(eng, netsim.LTEDefaults(netsim.HTTP2))
			for _, u := range urls {
				n.Do(u, func(rt *netsim.RoundTrip) { rt.Respond(100<<10, 0, nil) })
			}
			_, err := eng.Run(0)
			must(err)
			if !n.Idle() {
				fatal("probe: netsim not idle after %d flows", k)
			}
		}))
		p.set(fmt.Sprintf("netsim.fetch_%dflows_us", k), per(d, time.Microsecond)/float64(k))
	}
}

func probeRunner(p *prober) {
	site := p.fix.tn.site
	profile := webpage.Profile{Device: device, UserID: 11}
	load := func(pol runner.Policy, opts runner.Options) func() {
		opts.Time, opts.Profile, opts.Nonce = recordTime, profile, 1
		return func() {
			res, err := runner.Run(site, pol, opts)
			must(err)
			if res.NumFetched < res.NumRequired {
				fatal("probe: %s load fetched %d of %d", pol, res.NumFetched, res.NumRequired)
			}
		}
	}
	// Cold: no shared caches, so the load trains its resolver and
	// materializes its snapshots itself.
	p.time("runner.run_vroom_cold_ms", time.Millisecond, "", load(runner.Vroom, runner.Options{}))
	caches := runner.NewCaches()
	p.time("runner.run_vroom_cached_ms", time.Millisecond, "runner.run_vroom_allocs", load(runner.Vroom, runner.Options{Caches: caches}))
	p.time("runner.run_h2_cached_ms", time.Millisecond, "", load(runner.H2, runner.Options{Caches: caches}))
	p.time("runner.run_http1_cached_ms", time.Millisecond, "", load(runner.HTTP1, runner.Options{Caches: caches}))
	// A repeat visit: the browser cache a first load filled answers every
	// cacheable resource.
	cache := browser.NewCache()
	p.time("browser.warm_cache_load_ms", time.Millisecond, "", load(runner.H2, runner.Options{Caches: caches, Cache: cache}))
}
