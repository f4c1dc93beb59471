// Package experiments reproduces every table and figure in the paper's
// evaluation (§2, §4, §6). Each FigXX function runs the relevant policies
// over a generated corpus and returns the series the paper plots, plus a
// formatted text rendering. Run runs several figures on one session, so a
// load they share is simulated once. cmd/vroom-bench and the repository
// benchmarks drive these.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/browser"
	"vroom/internal/faults"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// Options scale and seed an experiment run.
type Options struct {
	Seed int64
	// Per-category site counts. The paper uses the top 50 News + top 50
	// Sports sites and the Alexa top 100.
	NewsSites, SportsSites, Top100Sites int
	// Time is the instant of the measured loads.
	Time time.Time
	// Profile is the client (Nexus-6-class phone by default).
	Profile webpage.Profile
	// LoadsPerSite takes the median over this many back-to-back loads
	// (the paper uses 3).
	LoadsPerSite int
	// FaultRegime subjects every measured load to seeded fault injection
	// (cmd/vroom-bench -faults). The plans derive from Seed, so results
	// stay reproducible. RegimeNone (the zero value) is the perfect world.
	FaultRegime faults.Regime
	// Workers bounds the number of sites loaded concurrently. Results are
	// gathered in corpus order and every load is seeded independently of
	// its worker, so any worker count produces byte-identical tables;
	// <= 1 runs serially.
	Workers int

	// s is the run's session. fill() starts one when unset, so a figure
	// called alone has its own, and every Options copy made from it shares
	// it; Run shares one across all its figures.
	s *session
}

// DefaultOptions reproduces the paper's scale.
func DefaultOptions() Options {
	return Options{
		Seed: 2017, NewsSites: 50, SportsSites: 50, Top100Sites: 100,
		Time:         time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC),
		Profile:      webpage.Profile{Device: webpage.PhoneSmall, UserID: 11},
		LoadsPerSite: 3,
	}
}

// QuickOptions is a scaled-down configuration for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.NewsSites, o.SportsSites, o.Top100Sites = 3, 3, 6
	o.LoadsPerSite = 1
	return o
}

func (o Options) fill() Options {
	if o.Time.IsZero() {
		o.Time = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	}
	if o.LoadsPerSite <= 0 {
		o.LoadsPerSite = 1
	}
	if o.s == nil {
		o.s = newSession(o)
	}
	return o
}

// session is what the figures of one run share: each corpus, generated
// once; one runner.Caches; and the load memo. The memo holds only pure
// loads — no warm browser cache, link override, tracer or quality sink —
// so a load one figure ran serves every other figure that asks for it.
type session struct {
	// newsAndSports is the paper's main workload; top100 the Alexa-style
	// corpus.
	newsAndSports, top100 func() []*webpage.Site
	caches                *runner.Caches

	mu    sync.Mutex
	loads map[loadKey]*loadEntry
	// requested counts every load a figure asked for, ran those simulated:
	// memo misses, plus the loads the memo cannot hold.
	requested, ran atomic.Int64
}

func newSession(o Options) *session {
	return &session{
		newsAndSports: sync.OnceValue(func() []*webpage.Site {
			return webpage.Generate(webpage.CorpusConfig{Seed: o.Seed, NumNews: o.NewsSites, NumSports: o.SportsSites}).Sites
		}),
		top100: sync.OnceValue(func() []*webpage.Site {
			return webpage.Generate(webpage.CorpusConfig{Seed: o.Seed + 1, NumTop100: o.Top100Sites}).Sites
		}),
		caches: runner.NewCaches(),
		loads:  map[loadKey]*loadEntry{},
	}
}

// ranUnmemoized counts n loads a figure ran itself, outside the memo.
func (s *session) ranUnmemoized(n int64) {
	s.requested.Add(n)
	s.ran.Add(n)
}

// loadKey is the whole input of one pure load. The corpus seed, which also
// seeds the fault plans, is the session's.
type loadKey struct {
	site    *webpage.Site
	pol     runner.Policy
	at      int64 // UnixNano
	profile webpage.Profile
	nonce   uint64
	regime  faults.Regime
}

// loadEntry is one memoized load: its result, and its fault plan's
// injection counts for ext03's report.
type loadEntry struct {
	once     sync.Once
	res      browser.Result
	injected []faults.Stat
	err      error
}

// load returns site's nonce-th load under pol at o's time, profile and
// fault regime. Only the first request simulates it; concurrent requests
// wait for that one.
func (o Options) load(site *webpage.Site, pol runner.Policy, nonce uint64) *loadEntry {
	s := o.s
	k := loadKey{site: site, pol: pol, at: o.Time.UnixNano(), profile: o.Profile, nonce: nonce, regime: o.FaultRegime}
	s.requested.Add(1)
	s.mu.Lock()
	l, ok := s.loads[k]
	if !ok {
		l = new(loadEntry)
		s.loads[k] = l
	}
	s.mu.Unlock()
	l.once.Do(func() {
		s.ran.Add(1)
		plan := faultPlan(o.Seed, o.FaultRegime, site.Name, nonce)
		l.res, l.err = runner.Run(site, pol, runner.Options{
			Time: o.Time, Profile: o.Profile, Nonce: nonce, Faults: plan, Caches: s.caches,
		})
		l.injected = plan.Stats()
	})
	return l
}

// Run runs the figures named by ids, in order, on one session, so a load
// several of them request is simulated once. It hands each result to done
// as its figure completes, and returns how many loads were simulated and
// how many the figures requested.
func Run(o Options, ids []string, done func(*Result)) (ran, requested int64, err error) {
	o = o.fill()
	for _, id := range ids {
		fig := Registry[id]
		if fig == nil {
			return 0, 0, fmt.Errorf("unknown figure %q (known: %s)", id, strings.Join(IDs(), ","))
		}
		res, err := fig(o)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", id, err)
		}
		done(res)
	}
	return o.s.ran.Load(), o.s.requested.Load(), nil
}

// Result is one reproduced figure or table.
type Result struct {
	ID    string
	Title string
	// Series holds the figure's labelled distributions in plot order.
	Series []telemetry.TableRow
	// Text is the terminal rendering.
	Text string
	// Notes carries scalar findings quoted in the paper's prose.
	Notes []string
}

// observeLoadHists records per-resource metric distributions from a corpus
// run into reg under "<prefix>/..." names:
//
//   - ttfb: request issue to first response byte;
//   - sched-hold: discovery to request issue — how long the scheduler (or
//     stage gate) held the fetch;
//   - push-lead: PUSH_PROMISE arrival to the moment parsing actually
//     required the resource — how far ahead of need the push ran (pushes
//     that were promised after being required record zero lead).
func observeLoadHists(reg *telemetry.Registry, prefix string, rs []browser.Result) {
	ttfb := reg.Histogram(prefix + "/ttfb")
	hold := reg.Histogram(prefix + "/sched-hold")
	pushLead := reg.Histogram(prefix + "/push-lead")
	for _, r := range rs {
		for _, rt := range r.Resources {
			// >= so that zero-TTFB samples (pushed and cache-satisfied
			// resources) are kept; dropping them biased the histogram up.
			if rt.FirstByteAt >= rt.RequestedAt && rt.FirstByteAt > 0 {
				ttfb.ObserveDuration(rt.FirstByteAt - rt.RequestedAt)
			}
			if rt.RequestedAt >= rt.DiscoveredAt && rt.ArrivedAt > 0 {
				hold.ObserveDuration(rt.RequestedAt - rt.DiscoveredAt)
			}
			if rt.Pushed && rt.PushPromisedAt > 0 && rt.RequiredAt > 0 {
				pushLead.ObserveDuration(max(rt.RequiredAt-rt.PushPromisedAt, 0))
			}
		}
	}
}

// histText renders a figure's per-resource distributions (milliseconds)
// under an indented title, one histogram a line.
func histText(title string, reg *telemetry.Registry) string {
	return fmt.Sprintf("  %s (ms)\n  %s\n", title, reg.Text("\n  "))
}

// medianByPLT returns the load with the median PLT: the middle of the
// PLT-sorted loads, or the lower middle for even counts (so the result is
// always an actual load).
func medianByPLT(results []browser.Result) browser.Result {
	sorted := append([]browser.Result(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PLT < sorted[j].PLT })
	return sorted[(len(sorted)-1)/2]
}

// forEachSite runs fn(i, site) for every site, fanning out across up to
// workers goroutines (<= 1 runs inline). Each invocation is independent and
// writes results into caller slices by index, so the schedule does not
// affect output. When invocations fail, the error for the lowest-indexed
// site wins — the same error a serial sweep would have returned first.
func forEachSite(sites []*webpage.Site, workers int, fn func(i int, s *webpage.Site) error) error {
	if workers > len(sites) {
		workers = len(sites)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		for i, s := range sites {
			if err := fn(i, s); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
		errs = make([]error, len(sites))
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(sites) {
					return
				}
				errs[i] = fn(i, sites[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCorpus loads every site under pol LoadsPerSite times back-to-back
// and returns each site's median-PLT load, as the paper does, in corpus
// order whatever the worker count. When agg is set, every load's
// degradation and injected-fault counters add into it; the sums commute,
// so a parallel sweep reports what the serial one would.
func (o Options) runCorpus(sites []*webpage.Site, pol runner.Policy, agg *telemetry.Registry) ([]browser.Result, error) {
	out := make([]browser.Result, len(sites))
	err := forEachSite(sites, o.Workers, func(i int, site *webpage.Site) error {
		loads := make([]browser.Result, o.LoadsPerSite)
		for n := range loads {
			l := o.load(site, pol, uint64(n+1))
			if l.err != nil {
				return fmt.Errorf("experiments: %s under %s: %w", site.Name, pol, l.err)
			}
			loads[n] = l.res
			if agg != nil {
				agg.Counter("retries").Add(int64(l.res.Retries))
				agg.Counter("timeouts").Add(int64(l.res.Timeouts))
				agg.Counter("failed-fetches").Add(int64(l.res.FailedFetches))
				agg.Counter("hints-failed").Add(int64(l.res.HintsFailed))
				agg.Counter("wasted-push-bytes").Add(l.res.WastedPushBytes)
				for _, st := range l.injected {
					agg.Counter("injected/" + st.Name).Add(st.Count)
				}
			}
		}
		out[i] = medianByPLT(loads)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pltDist extracts the PLT distribution in seconds.
func pltDist(rs []browser.Result) *telemetry.Dist {
	d := telemetry.NewDist()
	for _, r := range rs {
		d.AddDuration(r.PLT)
	}
	return d
}

// lowerBound computes the paper's per-site bound: the max of the
// CPU-bottleneck and network-bottleneck loads (§2), for PLT, AFT and
// SpeedIndex/1000.
func (o Options) lowerBound(sites []*webpage.Site) (plt, aft, si *telemetry.Dist, err error) {
	cpu, err := o.runCorpus(sites, runner.CPUOnly, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	net, err := o.runCorpus(sites, runner.NetworkOnly, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	plt, aft, si = telemetry.NewDist(), telemetry.NewDist(), telemetry.NewDist()
	for i := range sites {
		plt.AddDuration(max(cpu[i].PLT, net[i].PLT))
		aft.AddDuration(max(cpu[i].AFT, net[i].AFT))
		si.Add(max(cpu[i].SpeedIndex, net[i].SpeedIndex) / 1000)
	}
	return plt, aft, si, nil
}

func renderResult(r *Result) string {
	var b strings.Builder
	b.WriteString(telemetry.Table(fmt.Sprintf("%s — %s", r.ID, r.Title), r.Series))
	if len(r.Series) > 1 {
		b.WriteString(telemetry.ASCIICDF("  deciles", "p10..p90", r.Series))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
