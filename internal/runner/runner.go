// Package runner assembles the full simulated stack — corpus snapshot,
// network, server farm, resolver, browser, scheduler — for each named
// policy the paper evaluates, and executes single page loads.
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

// policies is every runnable policy, in AllPolicies order.
var policies = [...]Policy{
	HTTP1, H2, H2PushAllStatic, Vroom, VroomFirstParty, PushAllFetchASAP,
	PushHighNoHints, PushAllNoHints, DepsFromPrevLoad, OfflineOnly,
	OnlineOnly, Polaris, CPUOnly, NetworkOnly, VroomNoSerialize, VroomIframeDeps,
}

// AllPolicies lists every runnable policy.
func AllPolicies() []Policy { return append([]Policy(nil), policies[:]...) }

// known reports whether pol is one of AllPolicies.
func (pol Policy) known() bool {
	for _, p := range policies {
		if p == pol {
			return true
		}
	}
	return false
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
	// Net overrides the network config (zero = LTE defaults for the
	// policy's protocol).
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
	if !pol.known() {
		return browser.Result{}, fmt.Errorf("runner: unknown policy %q", pol)
	}
	opts.fill()
	eng := event.New(opts.Time)
	sn := opts.snapshot(site, opts.Time, opts.Profile, opts.Nonce)

	// Shield the root document: a load with no root has nothing to
	// degrade around.
	opts.Faults.ExemptURL(site.RootURL())

	var tracer *obs.Tracer
	if opts.Trace != nil {
		opts.Trace.Start = opts.Time
		tracer = obs.New(eng.Now, opts.Trace)
	}

	ncfg := networkConfig(pol, opts)
	ncfg.Faults = opts.Faults
	ncfg.Tracer = tracer
	net := netsim.New(eng, ncfg)

	resolver, srvPolicy := serverSide(site, pol, opts)
	resolver.Trace = tracer
	farm := server.NewFarm(net, sn, resolver, srvPolicy, server.DefaultConfig())
	farm.Faults = opts.Faults
	farm.Trace = tracer
	farm.Quality = opts.Quality
	// Old fingerprinted assets remain fetchable, as on real CDNs; stale
	// hints and stale Polaris graph entries hit these.
	for _, back := range []time.Duration{time.Hour, 2 * time.Hour, 3 * time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
		at := opts.Time.Add(-back)
		farm.Archive = append(farm.Archive, opts.snapshot(site, at, opts.Profile, uint64(at.UnixNano())))
	}

	bcfg := browser.Config{Cache: opts.Cache, Trace: tracer}
	if pol == NetworkOnly {
		bcfg.NoProcessing = true
	}
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

	sched := clientScheduler(site, pol, opts, sn)
	load := browser.NewLoad(eng, farm, bcfg, sched, site.RootURL())
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

// networkConfig picks protocol and link behaviour for a policy.
func networkConfig(pol Policy, opts Options) netsim.Config {
	var cfg netsim.Config
	if opts.Net != nil {
		cfg = *opts.Net
	} else {
		proto := netsim.HTTP2
		if pol == HTTP1 {
			proto = netsim.HTTP1
		}
		cfg = netsim.LTEDefaults(proto)
		// Cellular capacity varies on sub-second timescales; replay a
		// deterministic per-load trace (Mahimahi-style) by default.
		cfg.Trace = netsim.DefaultLTETrace(int64(opts.Nonce) + 1)
	}
	switch pol {
	case Vroom, VroomFirstParty, DepsFromPrevLoad, OfflineOnly, OnlineOnly, VroomIframeDeps:
		// Vroom-compliant servers answer in request order (§5.1).
		cfg.SerializeResponses = true
	case CPUOnly:
		cfg.Protocol = netsim.HTTP2
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

// serverSide builds the resolver and server policy for a policy.
func serverSide(site *webpage.Site, pol Policy, opts Options) (*core.Resolver, server.Policy) {
	switch pol {
	case Vroom, VroomNoSerialize:
		return trainedResolver(site, core.DefaultResolverConfig(), opts), server.VroomPolicy()
	case VroomIframeDeps:
		cfg := core.DefaultResolverConfig()
		cfg.IncludeIframeDescendants = true
		return trainedResolver(site, cfg, opts), server.VroomPolicy()
	case VroomFirstParty:
		p := server.VroomPolicy()
		first := site.FirstPartyDomain()
		p.Compliant = func(host string) bool { return urlutil.RegistrableDomain(host) == first }
		return trainedResolver(site, core.DefaultResolverConfig(), opts), p
	case DepsFromPrevLoad:
		cfg := core.DefaultResolverConfig()
		cfg.SingleLoad = true
		cfg.UseOnline = false
		p := server.VroomPolicy()
		p.OnlineAnalysis = false
		return trainedResolver(site, cfg, opts), p
	case OfflineOnly:
		cfg := core.DefaultResolverConfig()
		cfg.UseOnline = false
		p := server.VroomPolicy()
		p.OnlineAnalysis = false
		return trainedResolver(site, cfg, opts), p
	case OnlineOnly:
		cfg := core.DefaultResolverConfig()
		cfg.UseOffline = false
		return core.NewResolver(cfg), server.VroomPolicy()
	case H2PushAllStatic:
		first := site.FirstPartyDomain()
		return trainedResolver(site, core.DefaultResolverConfig(), opts), server.Policy{
			Push:      server.PushAllLocal,
			Compliant: func(host string) bool { return urlutil.RegistrableDomain(host) == first },
		}
	case PushAllFetchASAP:
		return trainedResolver(site, core.DefaultResolverConfig(), opts),
			server.Policy{SendHints: true, Push: server.PushAllLocal, OnlineAnalysis: true}
	case PushHighNoHints:
		return trainedResolver(site, core.DefaultResolverConfig(), opts),
			server.Policy{Push: server.PushHighPriorityLocal, OnlineAnalysis: true}
	case PushAllNoHints:
		return trainedResolver(site, core.DefaultResolverConfig(), opts),
			server.Policy{Push: server.PushAllLocal, OnlineAnalysis: true}
	default: // HTTP1, H2, Polaris, CPUOnly, NetworkOnly
		return core.NewResolver(core.DefaultResolverConfig()), server.Policy{}
	}
}

// clientScheduler builds the client-side scheduler for a policy.
func clientScheduler(site *webpage.Site, pol Policy, opts Options, sn *webpage.Snapshot) browser.Scheduler {
	switch pol {
	case Vroom, VroomFirstParty, DepsFromPrevLoad, OfflineOnly, OnlineOnly, VroomNoSerialize, VroomIframeDeps:
		return core.NewStagedScheduler()
	case PushAllFetchASAP:
		return &browser.FetchASAP{FollowHints: true}
	case Polaris:
		if opts.Caches != nil {
			return polaris.New(opts.Caches.PolarisGraph(site, opts.Time, opts.Profile, time.Hour))
		}
		g := polaris.TrainGraph(site, opts.Time, opts.Profile, time.Hour)
		return polaris.New(g)
	case NetworkOnly:
		// Every resource known upfront, fetched but not evaluated (§2).
		set := webpage.CrawlURLSet(sn)
		urls := make([]urlutil.URL, 0, len(set))
		for _, r := range sn.Ordered() {
			if set[r.URL.String()] {
				urls = append(urls, r.URL)
			}
		}
		return &browser.ListScheduler{URLs: urls}
	case HTTP1:
		// HTTP/1.1-era browsers throttle delayable requests while
		// critical ones are outstanding.
		return &browser.FetchASAP{ThrottleDelayable: true}
	default:
		return &browser.FetchASAP{}
	}
}
