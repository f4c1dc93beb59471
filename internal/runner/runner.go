// Package runner assembles the full simulated stack — corpus snapshot,
// network, server farm, resolver, browser, scheduler — and executes single
// page loads. Each policy the paper evaluates is a preset: one row of a
// table that places it on every axis (protocol, serving order, link,
// main-thread processing, resolver and whether it is trained, server
// behaviour, compliance scope, client scheduler), so a new cell of the
// grid is one more row.
package runner

import (
	"fmt"
	"time"

	"vroom/internal/browser"
	"vroom/internal/core"
	"vroom/internal/event"
	"vroom/internal/faults"
	"vroom/internal/hintstore"
	"vroom/internal/netsim"
	"vroom/internal/obs"
	"vroom/internal/polaris"
	"vroom/internal/server"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// Policy names a complete client+server configuration.
type Policy string

// Policies. See DESIGN.md §4 for the figure each appears in.
const (
	HTTP1            Policy = "http1"              // status quo
	H2               Policy = "h2"                 // HTTP/2 baseline
	H2PushAllStatic  Policy = "h2-push-all-static" // Fig 3: first party pushes all static
	Vroom            Policy = "vroom"              // the full system
	VroomFirstParty  Policy = "vroom-first-party"  // incremental adoption
	PushAllFetchASAP Policy = "push-all-fetch-asap"
	PushHighNoHints  Policy = "push-high-no-hints"
	PushAllNoHints   Policy = "push-all-no-hints"
	DepsFromPrevLoad Policy = "deps-from-prev-load"
	OfflineOnly      Policy = "vroom-offline-only"
	OnlineOnly       Policy = "vroom-online-only"
	Polaris          Policy = "polaris"
	CPUOnly          Policy = "cpu-only"     // zero network: CPU-bottleneck bound
	NetworkOnly      Policy = "network-only" // zero CPU: network-bottleneck bound
	// Ablations (DESIGN.md §5).
	VroomNoSerialize Policy = "vroom-no-serialize" // servers interleave responses
	VroomIframeDeps  Policy = "vroom-iframe-deps"  // hint iframe-derived deps too
)

// scheduler is the client's fetch scheduler.
type scheduler int

const (
	asap         scheduler = iota // fetch each resource on discovery
	asapHints                     // asap, and fetch every hinted URL too
	h1Throttled                   // HTTP/1.1-era: delayable requests wait behind critical ones
	staged                        // Vroom's stage gate (§5)
	polarisGraph                  // Polaris's offline dependency graph
	crawlList                     // every resource known upfront, fetched in document order (§2)
)

// spec places one policy on each axis.
type spec struct {
	h1           bool // HTTP/1.1, not HTTP/2
	serialize    bool // compliant servers answer in request order (§5.1)
	zeroNet      bool // no latency, unbounded rate: §2's CPU bound
	noProcessing bool // fetch, never evaluate: §2's network bound
	resolver     core.ResolverConfig
	trained      bool          // run the resolver's offline loads first
	server       server.Policy // Compliant stays nil: firstParty sets it
	firstParty   bool          // only the site's registrable domain complies
	sched        scheduler
}

// Resolvers (§4.1.2, Figs 17 and 21, §5) and servers the presets share.
var (
	fullRes     = core.DefaultResolverConfig()
	prevLoadRes = core.ResolverConfig{OfflineLoads: fullRes.OfflineLoads, Interval: fullRes.Interval, UseOffline: true, SingleLoad: true}
	offlineRes  = core.ResolverConfig{OfflineLoads: fullRes.OfflineLoads, Interval: fullRes.Interval, UseOffline: true}
	onlineRes   = core.ResolverConfig{OfflineLoads: fullRes.OfflineLoads, Interval: fullRes.Interval, UseOnline: true}
	iframeRes   = core.ResolverConfig{OfflineLoads: fullRes.OfflineLoads, Interval: fullRes.Interval, UseOffline: true, UseOnline: true, IncludeIframeDescendants: true}
	vroomSrv    = server.Policy{SendHints: true, Push: server.PushHighPriorityLocal, OnlineAnalysis: true, CacheAware: true}
	offlineSrv  = server.Policy{SendHints: true, Push: server.PushHighPriorityLocal, CacheAware: true}
)

// presets is every runnable policy, in AllPolicies order.
var presets = [...]struct {
	id Policy
	spec
}{
	{HTTP1, spec{h1: true, resolver: fullRes, sched: h1Throttled}},
	{H2, spec{resolver: fullRes, sched: asap}},
	{H2PushAllStatic, spec{resolver: fullRes, trained: true, server: server.Policy{Push: server.PushAllLocal}, firstParty: true, sched: asap}},
	{Vroom, spec{serialize: true, resolver: fullRes, trained: true, server: vroomSrv, sched: staged}},
	{VroomFirstParty, spec{serialize: true, resolver: fullRes, trained: true, server: vroomSrv, firstParty: true, sched: staged}},
	{PushAllFetchASAP, spec{resolver: fullRes, trained: true, server: server.Policy{SendHints: true, Push: server.PushAllLocal, OnlineAnalysis: true}, sched: asapHints}},
	{PushHighNoHints, spec{resolver: fullRes, trained: true, server: server.Policy{Push: server.PushHighPriorityLocal, OnlineAnalysis: true}, sched: asap}},
	{PushAllNoHints, spec{resolver: fullRes, trained: true, server: server.Policy{Push: server.PushAllLocal, OnlineAnalysis: true}, sched: asap}},
	{DepsFromPrevLoad, spec{serialize: true, resolver: prevLoadRes, trained: true, server: offlineSrv, sched: staged}},
	{OfflineOnly, spec{serialize: true, resolver: offlineRes, trained: true, server: offlineSrv, sched: staged}},
	{OnlineOnly, spec{serialize: true, resolver: onlineRes, server: vroomSrv, sched: staged}},
	{Polaris, spec{resolver: fullRes, sched: polarisGraph}},
	{CPUOnly, spec{zeroNet: true, resolver: fullRes, sched: asap}},
	{NetworkOnly, spec{noProcessing: true, resolver: fullRes, sched: crawlList}},
	{VroomNoSerialize, spec{resolver: fullRes, trained: true, server: vroomSrv, sched: staged}},
	{VroomIframeDeps, spec{serialize: true, resolver: iframeRes, trained: true, server: vroomSrv, sched: staged}},
}

// AllPolicies lists every runnable policy.
func AllPolicies() []Policy {
	out := make([]Policy, len(presets))
	for i := range presets {
		out[i] = presets[i].id
	}
	return out
}

// preset returns pol's row of presets, or nil when pol is not one of
// AllPolicies.
func (pol Policy) preset() *spec {
	for i := range presets {
		if presets[i].id == pol {
			return &presets[i].spec
		}
	}
	return nil
}

// Options configure one load.
type Options struct {
	// Time is the wall-clock instant of the load (drives content churn).
	Time time.Time
	// Profile is the client device/user.
	Profile webpage.Profile
	// Nonce distinguishes back-to-back loads.
	Nonce uint64
	// Cache carries the browser cache across loads (nil = cold).
	Cache *browser.Cache
	// Net overrides the link (nil = LTE); the policy still sets the
	// protocol, the serving order and cpu-only's zero network.
	Net *netsim.Config
	// EventLimit bounds simulation events (0 = default 5M).
	EventLimit uint64
	// Faults injects a fault plan into the network and server layers and
	// arms the browser's timeout/retry machinery. The root document is
	// exempted so every load has content to degrade around. Nil models the
	// perfect world. Plans carry per-load mutable state (attempt counters,
	// origin health): build a fresh Plan per Run, reusing only the seed.
	Faults *faults.Plan
	// Trace, when set, records the load's full structured trace (netsim
	// streams, main-thread tasks, scheduler holds, server decisions) into
	// the recording. Nil disables tracing — the zero-overhead path.
	Trace *obs.Recording
	// Caches, when set, shares the deterministic offline work across loads:
	// resolver training, snapshot materialization (measured and archive),
	// and Polaris graphs. Results are identical with or without it; nil
	// rebuilds everything per load. Safe for concurrent Runs.
	Caches *Caches
	// Quality, when set, accumulates the load's hint-efficacy accounting
	// (emissions, used/unused/missed, push bytes) into the store's
	// per-tenant ledgers, mirroring what the wire accountant does for the
	// served path. Nil disables.
	Quality *hintstore.Store
}

func (o *Options) fill() {
	if o.Time.IsZero() {
		o.Time = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	}
	if o.EventLimit == 0 {
		o.EventLimit = 5_000_000
	}
}

// Run executes one page load of site under the given policy. A policy
// outside AllPolicies is an error.
func Run(site *webpage.Site, pol Policy, opts Options) (browser.Result, error) {
	sp := pol.preset()
	if sp == nil {
		return browser.Result{}, fmt.Errorf("runner: unknown policy %q", pol)
	}
	opts.fill()
	eng := event.New(opts.Time)
	sn := opts.Caches.Snapshot(site, opts.Time, opts.Profile, opts.Nonce)

	// Shield the root document: a load with no root has nothing to
	// degrade around.
	opts.Faults.ExemptURL(site.RootURL())

	var tracer *obs.Tracer
	if opts.Trace != nil {
		opts.Trace.Start = opts.Time
		tracer = obs.New(eng.Now, opts.Trace)
	}

	ncfg := sp.network(opts)
	ncfg.Faults = opts.Faults
	ncfg.Tracer = tracer
	net := netsim.New(eng, ncfg)

	resolver := sp.newResolver(site, opts)
	resolver.Trace = tracer
	srvPolicy := sp.server
	if sp.firstParty {
		first := site.FirstPartyDomain()
		srvPolicy.Compliant = func(host string) bool { return urlutil.RegistrableDomain(host) == first }
	}
	farm := server.NewFarm(net, sn, resolver, srvPolicy, server.DefaultConfig())
	farm.Faults = opts.Faults
	farm.Trace = tracer
	farm.Quality = opts.Quality
	// Old fingerprinted assets remain fetchable, as on real CDNs; stale
	// hints and stale Polaris graph entries hit these.
	for _, back := range []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
		at := opts.Time.Add(-back)
		farm.Archive = append(farm.Archive, opts.Caches.Snapshot(site, at, opts.Profile, uint64(at.UnixNano())))
	}

	bcfg := browser.Config{Cache: opts.Cache, Trace: tracer, NoProcessing: sp.noProcessing}
	if opts.Faults != nil {
		// Defaults documented in DESIGN.md's failure model: a 5s attempt
		// timeout (rescues stalled transfers well before PLT scales), three
		// attempts with 250ms..4s exponential backoff, and client-observed
		// failures feeding the server's push-suppression health state.
		bcfg.FetchTimeout = 5 * time.Second
		bcfg.Retry = browser.DefaultRetryPolicy()
		plan := opts.Faults
		bcfg.OnFetchFailure = func(u urlutil.URL, reason string) {
			plan.MarkFailing(u.Origin())
		}
	}

	load := browser.NewLoad(eng, farm, bcfg, sp.newScheduler(site, opts, sn), site.RootURL())
	farm.Attach(load, opts.Cache)

	load.Start()
	if _, err := eng.Run(opts.EventLimit); err != nil {
		return browser.Result{}, fmt.Errorf("runner: %s on %s: %w", pol, site.Name, err)
	}
	if !load.Finished() {
		return browser.Result{}, fmt.Errorf("runner: %s on %s: load did not finish (%s)", pol, site.Name, load)
	}
	res := load.Result()
	farm.SettleQuality()
	return res, nil
}

// network builds the preset's link, opts.Net or LTE, at the preset's
// protocol and serving order, then swaps in the zero network if asked.
func (sp *spec) network(opts Options) netsim.Config {
	var cfg netsim.Config
	if opts.Net != nil {
		cfg = *opts.Net
	} else {
		cfg = netsim.LTEDefaults(netsim.HTTP2)
		// Cellular capacity varies on sub-second timescales; replay a
		// deterministic per-load trace (Mahimahi-style) by default.
		cfg.Trace = netsim.DefaultLTETrace(int64(opts.Nonce) + 1)
	}
	cfg.Protocol = netsim.HTTP2
	if sp.h1 {
		cfg.Protocol = netsim.HTTP1
	}
	cfg.SerializeResponses = sp.serialize
	if sp.zeroNet {
		cfg.DownlinkBytesPerSec = 1e15
		cfg.BaseRTT = 0
		cfg.DNSDelay = 0
		cfg.TLSRoundTrips = 0
		cfg.ExtraRTT = func(string) time.Duration { return 0 }
		cfg.DisableSlowStart = true
		cfg.Trace = nil
	}
	return cfg
}

// newResolver builds the preset's resolver. A trained one comes from
// opts.Caches when set, cloned so the per-load Trace never lands on the
// shared instance.
func (sp *spec) newResolver(site *webpage.Site, opts Options) *core.Resolver {
	if sp.trained && opts.Caches != nil {
		return opts.Caches.TrainedResolver(site, opts.Time, opts.Profile.Device, sp.resolver).Clone()
	}
	r := core.NewResolver(sp.resolver)
	if sp.trained {
		r.Train(site, opts.Time, opts.Profile.Device)
	}
	return r
}

// newScheduler builds the preset's client scheduler.
func (sp *spec) newScheduler(site *webpage.Site, opts Options, sn *webpage.Snapshot) browser.Scheduler {
	switch sp.sched {
	case asapHints:
		return &browser.FetchASAP{FollowHints: true}
	case h1Throttled:
		return &browser.FetchASAP{ThrottleDelayable: true}
	case staged:
		return core.NewStagedScheduler()
	case polarisGraph:
		if opts.Caches != nil {
			return polaris.New(opts.Caches.PolarisGraph(site, opts.Time, opts.Profile, time.Hour))
		}
		return polaris.New(polaris.TrainGraph(site, opts.Time, opts.Profile, time.Hour))
	case crawlList:
		set := webpage.CrawlURLSet(sn)
		urls := make([]urlutil.URL, 0, len(set))
		for _, r := range sn.Ordered() {
			if set[r.URL.String()] {
				urls = append(urls, r.URL)
			}
		}
		return &browser.ListScheduler{URLs: urls}
	}
	return &browser.FetchASAP{} // asap
}
