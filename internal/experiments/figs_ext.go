package experiments

import (
	"fmt"
	"time"

	"vroom/internal/core"
	"vroom/internal/netsim"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// Ext01 — the §7 scalability extension: offline resolution cost vs hint
// quality when the server crawls only a sample of pages per page type and
// serves template hints for the rest, compared with crawling every page
// and with online-only analysis. Measured on each site's last article page
// (never crawled by the sampled resolver).
func Ext01(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.newsAndSports()
	var (
		covSampled = telemetry.NewDist()
		covFull    = telemetry.NewDist()
		covOnline  = telemetry.NewDist()
		loadsSaved = telemetry.NewDist()
	)
	profile := webpage.Profile{Device: o.Profile.Device, UserID: o.Profile.UserID}
	for _, s := range sites {
		if s.NumPages() < 3 {
			continue
		}
		unseen := s.NumPages() - 1
		sn := s.PageSnapshot(unseen, o.Time, profile, 1)
		body := sn.RootResource().Body

		// Stable deps of the unseen page = the coverage denominator.
		denom := map[string]bool{}
		for _, d := range core.DocDeps(sn, sn.RootResource()) {
			res, ok := sn.LookupString(d.URL.String())
			if !ok || res.Unpredictable || res.Personalized {
				continue
			}
			denom[d.URL.String()] = true
		}
		if len(denom) == 0 {
			continue
		}
		coverage := func(hs map[string]bool) float64 {
			n := 0
			for u := range denom {
				if hs[u] {
					n++
				}
			}
			return float64(n) / float64(len(denom))
		}
		set := func(r *core.Resolver) map[string]bool {
			out := map[string]bool{}
			for _, h := range r.HintsForPage(s, sn.Root, body, profile.Device) {
				out[h.URL.String()] = true
			}
			return out
		}

		sampled := core.NewResolver(core.DefaultResolverConfig())
		sampled.TrainTemplates(s, o.Time, profile.Device, []int{0, 1})
		covSampled.Add(coverage(set(sampled)))

		full := core.NewResolver(core.DefaultResolverConfig())
		allPages := make([]int, s.NumPages())
		for i := range allPages {
			allPages[i] = i
		}
		full.TrainTemplates(s, o.Time, profile.Device, allPages)
		covFull.Add(coverage(set(full)))

		onlineCfg := core.DefaultResolverConfig()
		onlineCfg.UseOffline = false
		online := core.NewResolver(onlineCfg)
		covOnline.Add(coverage(set(online)))

		loadsSaved.Add(float64(s.NumPages()-2) / float64(s.NumPages()))
	}
	r := &Result{
		ID:    "ext01",
		Title: "§7 extension: template hints for uncrawled pages (stable-dep coverage)",
		Series: []telemetry.TableRow{
			{Label: "sampled (2 pages/site)", Dist: covSampled},
			{Label: "full crawl (every page)", Dist: covFull},
			{Label: "online-only", Dist: covOnline},
			{Label: "offline loads saved (frac)", Dist: loadsSaved},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"sampling per page type keeps coverage (%.0f%% vs %.0f%% full) while saving %.0f%% of hourly offline loads; online-only reaches %.0f%%",
		covSampled.Median()*100, covFull.Median()*100, loadsSaved.Median()*100, covOnline.Median()*100))
	r.Text = renderResult(r)
	return r, nil
}

// Ext02 — sensitivity to cellular capacity variation: the headline
// comparison repeated on a Mahimahi-style time-varying LTE trace instead
// of a constant-rate link. Vroom's advantage should survive bandwidth
// churn, since it attacks discovery latency rather than throughput.
func Ext02(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.newsAndSports()
	pols := []struct {
		label string
		pol   runner.Policy
	}{
		{"vroom", runner.Vroom},
		{"http/2 baseline", runner.H2},
		{"http/1.1", runner.HTTP1},
	}
	var rows []telemetry.TableRow
	for _, pc := range pols {
		plts := make([]time.Duration, len(sites))
		err := forEachSite(sites, o.Workers, func(si int, s *webpage.Site) error {
			cfg := netsim.LTEDefaults(netsim.HTTP2)
			cfg.Trace = netsim.DefaultLTETrace(int64(si + 1))
			// The trace link overrides the default one, so the memo
			// cannot hold the load.
			o.s.ranUnmemoized(1)
			res, err := runner.Run(s, pc.pol, runner.Options{
				Time: o.Time, Profile: o.Profile, Nonce: 1, Net: &cfg, Caches: o.s.caches,
			})
			if err != nil {
				return err
			}
			plts[si] = res.PLT
			return nil
		})
		if err != nil {
			return nil, err
		}
		d := telemetry.NewDist()
		for _, plt := range plts {
			d.AddDuration(plt)
		}
		rows = append(rows, telemetry.TableRow{Label: pc.label, Dist: d})
	}
	r := &Result{ID: "ext02", Title: "Variable-bandwidth LTE trace: PLT (s)", Series: rows}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"medians under a 4-14 Mbit/s random-walk trace: vroom %.1fs, h2 %.1fs, http/1.1 %.1fs — ordering preserved under capacity churn",
		rows[0].Dist.Median(), rows[1].Dist.Median(), rows[2].Dist.Median()))
	r.Text = renderResult(r)
	return r, nil
}
