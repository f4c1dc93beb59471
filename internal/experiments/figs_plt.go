package experiments

import (
	"fmt"

	"vroom/internal/browser"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// Fig01 — page load times on today's mobile web: Alexa top-100 vs the top
// 50 News + top 50 Sports sites, status quo (HTTP/1.1).
func Fig01(o Options) (*Result, error) {
	o = o.fill()
	top, err := runCorpus(o.top100(), runner.HTTP1, o)
	if err != nil {
		return nil, err
	}
	ns, err := runCorpus(o.newsAndSports(), runner.HTTP1, o)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "fig01",
		Title: "Status-quo PLT CDFs (s)",
		Series: []telemetry.TableRow{
			{Label: "top-100 overall", Dist: pltDist(top)},
			{Label: "top-50 news + top-50 sports", Dist: pltDist(ns)},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper: medians ≈5s (top-100) and >10s (news+sports); measured %.1fs and %.1fs",
		r.Series[0].Dist.Median(), r.Series[1].Dist.Median()))
	r.Text = renderResult(r)
	return r, nil
}

// Fig02 — potential gains from fully using the CPU or the network:
// network-bottleneck, CPU-bottleneck, their max, and real loads.
func Fig02(o Options) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	netOnly, err := runCorpus(sites, runner.NetworkOnly, o)
	if err != nil {
		return nil, err
	}
	cpuOnly, err := runCorpus(sites, runner.CPUOnly, o)
	if err != nil {
		return nil, err
	}
	web, err := runCorpus(sites, runner.HTTP1, o)
	if err != nil {
		return nil, err
	}
	bound, _, _, err := lowerBound(sites, o)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "fig02",
		Title: "Lower-bound PLT CDFs (s)",
		Series: []telemetry.TableRow{
			{Label: "network bottleneck", Dist: pltDist(netOnly)},
			{Label: "cpu bottleneck", Dist: pltDist(cpuOnly)},
			{Label: "max(cpu, network)", Dist: bound},
			{Label: "loads from web", Dist: pltDist(web)},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper: bound ≈5s vs 10.5s status quo; measured %.1fs vs %.1fs",
		bound.Median(), r.Series[3].Dist.Median()))
	r.Text = renderResult(r)
	return r, nil
}

// Fig03 — estimated impact of global HTTP/2 adoption: HTTP/2 baseline,
// first-party push-all-static, HTTP/1.1.
func Fig03(o Options) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	rows := []telemetry.TableRow{}
	for _, pc := range []struct {
		label string
		pol   runner.Policy
	}{
		{"http/2 baseline", runner.H2},
		{"push all static", runner.H2PushAllStatic},
		{"http/1.1", runner.HTTP1},
	} {
		rs, err := runCorpus(sites, pc.pol, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, telemetry.TableRow{Label: pc.label, Dist: pltDist(rs)})
	}
	r := &Result{ID: "fig03", Title: "HTTP/2 adoption PLT CDFs (s)", Series: rows}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"paper: H2 ≈8s median, push-all-static little extra benefit; measured h2 %.1fs, push-all-static %.1fs",
		rows[0].Dist.Median(), rows[1].Dist.Median()))
	r.Text = renderResult(r)
	return r, nil
}

// Fig04 — fraction of the critical path spent waiting for the network
// under HTTP/2.
func Fig04(o Options) (*Result, error) {
	o = o.fill()
	rs, err := runCorpus(o.newsAndSports(), runner.H2, o)
	if err != nil {
		return nil, err
	}
	d := telemetry.NewDist()
	for _, r := range rs {
		d.Add(r.IdleFrac)
	}
	r := &Result{
		ID:     "fig04",
		Title:  "Fraction of critical path waiting on network (HTTP/2)",
		Series: []telemetry.TableRow{{Label: "network wait fraction", Dist: d}},
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper: >30%% on the median page; measured %.0f%%", d.Median()*100))
	r.Text = renderResult(r)
	return r, nil
}

// Fig13 — the headline result: PLT (a), above-the-fold time (b), and Speed
// Index (c) for the lower bound, Vroom, HTTP/2 baseline, and HTTP/1.1.
// The incremental-adoption scenario from §6.1 is reported as a note.
func Fig13(o Options) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	boundPLT, boundAFT, boundSI, err := lowerBound(sites, o)
	if err != nil {
		return nil, err
	}
	type series struct {
		label        string
		pol          runner.Policy
		plt, aft, si *telemetry.Dist
	}
	pols := []*series{
		{label: "vroom", pol: runner.Vroom},
		{label: "vroom first-party only", pol: runner.VroomFirstParty},
		{label: "http/2 baseline", pol: runner.H2},
		{label: "http/1.1", pol: runner.HTTP1},
	}
	hists := telemetry.NewRegistry()
	for _, s := range pols {
		rs, err := runCorpus(sites, s.pol, o)
		if err != nil {
			return nil, err
		}
		s.plt, s.aft, s.si = telemetry.NewDist(), telemetry.NewDist(), telemetry.NewDist()
		for _, r := range rs {
			s.plt.AddDuration(r.PLT)
			s.aft.AddDuration(r.AFT)
			s.si.Add(r.SpeedIndex)
		}
		observeLoadHists(hists, string(s.pol), rs)
	}
	rows := []telemetry.TableRow{{Label: "lower bound PLT", Dist: boundPLT}}
	for _, s := range pols {
		rows = append(rows, telemetry.TableRow{Label: s.label + " PLT", Dist: s.plt})
	}
	rows = append(rows, telemetry.TableRow{Label: "lower bound AFT", Dist: boundAFT})
	for _, s := range pols {
		rows = append(rows, telemetry.TableRow{Label: s.label + " AFT", Dist: s.aft})
	}
	rows = append(rows, telemetry.TableRow{Label: "lower bound SpeedIndex/1000", Dist: scaleDist(boundSI, 1e-3)})
	for _, s := range pols {
		rows = append(rows, telemetry.TableRow{Label: s.label + " SpeedIndex/1000", Dist: scaleDist(s.si, 1e-3)})
	}
	r := &Result{ID: "fig13", Title: "Main result: PLT / AFT / SpeedIndex", Series: rows}
	_, pVal := telemetry.MannWhitneyU(pols[0].plt, pols[2].plt)
	delta := telemetry.CliffsDelta(pols[0].plt, pols[2].plt)
	r.Notes = append(r.Notes,
		fmt.Sprintf("paper: 10.5s http/1.1 → 7.3s h2 → 5.1s vroom ≈ 5.0s bound; measured %.1f → %.1f → %.1f ≈ %.1f",
			pols[3].plt.Median(), pols[2].plt.Median(), pols[0].plt.Median(), boundPLT.Median()),
		fmt.Sprintf("vroom vs h2 PLT: Mann-Whitney p=%.2g, Cliff's delta=%.2f", pVal, delta),
		fmt.Sprintf("paper: first-party-only adoption 5.6s vs 5.1s full; measured %.1f vs %.1f",
			pols[1].plt.Median(), pols[0].plt.Median()))
	r.Text = renderResult(r) + histText("per-resource distributions", hists)
	return r, nil
}

func scaleDist(d *telemetry.Dist, k float64) *telemetry.Dist {
	out := telemetry.NewDist()
	for p := 1.0; p <= 100; p++ {
		out.Add(d.Percentile(p) * k)
	}
	return out
}

// Fig14 — Vroom vs Polaris.
func Fig14(o Options) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	vr, err := runCorpus(sites, runner.Vroom, o)
	if err != nil {
		return nil, err
	}
	pl, err := runCorpus(sites, runner.Polaris, o)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "fig14",
		Title: "Vroom vs Polaris PLT CDFs (s)",
		Series: []telemetry.TableRow{
			{Label: "vroom", Dist: pltDist(vr)},
			{Label: "polaris", Dist: pltDist(pl)},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper: medians 5.1s vs 6.4s; measured %.1fs vs %.1fs",
		r.Series[0].Dist.Median(), r.Series[1].Dist.Median()))
	r.Text = renderResult(r)
	return r, nil
}

// Fig16 — reduction in the client's latency to (a) discover and (b) finish
// fetching resources, relative to the HTTP/2 baseline; all resources and
// high-priority only.
func Fig16(o Options) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	type pair struct{ base, vr browser.Result }
	pairs := make([]pair, len(sites))
	err := forEachSite(sites, o.Workers, func(i int, s *webpage.Site) error {
		base, err := medianLoad(s, runner.H2, o, nil)
		if err != nil {
			return err
		}
		vr, err := medianLoad(s, runner.Vroom, o, nil)
		if err != nil {
			return err
		}
		pairs[i] = pair{base, vr}
		return nil
	})
	if err != nil {
		return nil, err
	}
	discAll, discHigh := telemetry.NewDist(), telemetry.NewDist()
	fetchAll, fetchHigh := telemetry.NewDist(), telemetry.NewDist()
	for _, p := range pairs {
		base, vr := p.base, p.vr
		discAll.Add(improvement(base.DiscoverAll.Seconds(), vr.DiscoverAll.Seconds()))
		discHigh.Add(improvement(base.DiscoverHigh.Seconds(), vr.DiscoverHigh.Seconds()))
		fetchAll.Add(improvement(base.FetchAll.Seconds(), vr.FetchAll.Seconds()))
		fetchHigh.Add(improvement(base.FetchHigh.Seconds(), vr.FetchHigh.Seconds()))
	}
	r := &Result{
		ID:    "fig16",
		Title: "Discovery / fetch-completion improvement over HTTP/2 (fraction)",
		Series: []telemetry.TableRow{
			{Label: "discovery, all", Dist: discAll},
			{Label: "discovery, high-priority", Dist: discHigh},
			{Label: "fetch, all", Dist: fetchAll},
			{Label: "fetch, high-priority", Dist: fetchHigh},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"paper: median improvements 22%% (discover all), 16%% (discover high), 22%% (fetch all), 12%% (fetch high); measured %.0f%%, %.0f%%, %.0f%%, %.0f%%",
		discAll.Median()*100, discHigh.Median()*100, fetchAll.Median()*100, fetchHigh.Median()*100))
	r.Text = renderResult(r)
	return r, nil
}

func improvement(base, vroom float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - vroom) / base
}

// Fig17 — accuracy matters: returning every URL from a single prior load
// (stale extras included) vs Vroom vs baseline.
func Fig17(o Options) (*Result, error) {
	return quartileFigure(o, "fig17", "Deps from a single previous load (PLT s)",
		[]labelled{
			{"vroom", runner.Vroom},
			{"deps from previous load", runner.DepsFromPrevLoad},
			{"http/2 baseline", runner.H2},
		}, "paper: median improves slightly but p75 degrades by >1.5s vs vroom")
}

// Fig18 — push alone is insufficient: high-priority-only and push-all
// without hints.
func Fig18(o Options) (*Result, error) {
	return quartileFigure(o, "fig18", "Push-only strategies (PLT s)",
		[]labelled{
			{"vroom", runner.Vroom},
			{"push high priority, no hints", runner.PushHighNoHints},
			{"push all, no hints", runner.PushAllNoHints},
		}, "paper: push-only medians >2s above vroom (third-party resources need hints)")
}

// Fig19 — scheduling matters: fetch-everything-ASAP vs staged.
func Fig19(o Options) (*Result, error) {
	return quartileFigure(o, "fig19", "Scheduling strategies (PLT s)",
		[]labelled{
			{"vroom", runner.Vroom},
			{"push all, fetch asap", runner.PushAllFetchASAP},
			{"no push, no hints", runner.H2},
		}, "paper: fetch-ASAP yields no improvement over baseline; vroom's staging is key")
}

type labelled struct {
	label string
	pol   runner.Policy
}

func quartileFigure(o Options, id, title string, pols []labelled, note string) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	bound, _, _, err := lowerBound(sites, o)
	if err != nil {
		return nil, err
	}
	rows := []telemetry.TableRow{{Label: "lower bound", Dist: bound}}
	for _, pc := range pols {
		rs, err := runCorpus(sites, pc.pol, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, telemetry.TableRow{Label: pc.label, Dist: pltDist(rs)})
	}
	r := &Result{ID: id, Title: title, Series: rows, Notes: []string{note}}
	r.Text = renderResult(r)
	return r, nil
}
