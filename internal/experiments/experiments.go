// Package experiments reproduces every table and figure in the paper's
// evaluation (§2, §4, §6). Each FigXX function runs the relevant policies
// over a generated corpus and returns the series the paper plots, plus a
// formatted text rendering. cmd/vroom-bench and the repository benchmarks
// drive these.
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

	// caches shares the deterministic offline work (resolver training,
	// snapshot materialization, Polaris graphs) across the loads of one
	// figure. fill() creates it, so every Options copy derived from one
	// figure invocation shares the same cache set.
	caches *runner.Caches
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
	if o.caches == nil {
		o.caches = runner.NewCaches()
	}
	return o
}

// newsAndSports generates the paper's main workload.
func (o Options) newsAndSports() []*webpage.Site {
	c := webpage.Generate(webpage.CorpusConfig{Seed: o.Seed, NumNews: o.NewsSites, NumSports: o.SportsSites})
	return c.Sites
}

func (o Options) top100() []*webpage.Site {
	c := webpage.Generate(webpage.CorpusConfig{Seed: o.Seed + 1, NumTop100: o.Top100Sites})
	return c.Sites
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

// medianLoad runs a policy on a site LoadsPerSite times back-to-back and
// returns the load with the median PLT, as the paper does.
func medianLoad(site *webpage.Site, pol runner.Policy, o Options, cache *browser.Cache) (browser.Result, error) {
	var results []browser.Result
	for i := 0; i < o.LoadsPerSite; i++ {
		var plan *faults.Plan
		if o.FaultRegime != faults.RegimeNone {
			plan = faults.New(faultSeed(o.Seed, site.Name, uint64(i+1)), faults.RegimeConfig(o.FaultRegime))
		}
		r, err := runner.Run(site, pol, runner.Options{
			Time: o.Time, Profile: o.Profile, Nonce: uint64(i + 1), Cache: cache, Faults: plan,
			Caches: o.caches,
		})
		if err != nil {
			return browser.Result{}, err
		}
		results = append(results, r)
	}
	return medianByPLT(results), nil
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

// runCorpus executes a policy across sites, collecting per-site results in
// corpus order (regardless of worker count).
func runCorpus(sites []*webpage.Site, pol runner.Policy, o Options) ([]browser.Result, error) {
	out := make([]browser.Result, len(sites))
	err := forEachSite(sites, o.Workers, func(i int, s *webpage.Site) error {
		r, err := medianLoad(s, pol, o, nil)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", s.Name, err)
		}
		out[i] = r
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
// CPU-bottleneck and network-bottleneck loads (§2).
func lowerBound(sites []*webpage.Site, o Options) (plt, aft, si *telemetry.Dist, err error) {
	type bound struct{ cpu, net browser.Result }
	bounds := make([]bound, len(sites))
	err = forEachSite(sites, o.Workers, func(i int, s *webpage.Site) error {
		cpu, err := medianLoad(s, runner.CPUOnly, o, nil)
		if err != nil {
			return err
		}
		net, err := medianLoad(s, runner.NetworkOnly, o, nil)
		if err != nil {
			return err
		}
		bounds[i] = bound{cpu, net}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	plt, aft, si = telemetry.NewDist(), telemetry.NewDist(), telemetry.NewDist()
	for _, b := range bounds {
		plt.AddDuration(maxDur(b.cpu.PLT, b.net.PLT))
		aft.AddDuration(maxDur(b.cpu.AFT, b.net.AFT))
		if b.cpu.SpeedIndex > b.net.SpeedIndex {
			si.Add(b.cpu.SpeedIndex)
		} else {
			si.Add(b.net.SpeedIndex)
		}
	}
	return plt, aft, si, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
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
