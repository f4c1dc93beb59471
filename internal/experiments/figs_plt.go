package experiments

import (
	"fmt"

	"vroom/internal/runner"
	"vroom/internal/telemetry"
)

// Fig01 — page load times on today's mobile web: Alexa top-100 vs the top
// 50 News + top 50 Sports sites, status quo (HTTP/1.1).
func Fig01(o Options) (*Result, error) {
	o = o.fill()
	top, err := o.runCorpus(o.s.top100(), runner.HTTP1, nil)
	if err != nil {
		return nil, err
	}
	ns, err := o.runCorpus(o.s.newsAndSports(), runner.HTTP1, nil)
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
	sites := o.s.newsAndSports()
	netOnly, err := o.runCorpus(sites, runner.NetworkOnly, nil)
	if err != nil {
		return nil, err
	}
	cpuOnly, err := o.runCorpus(sites, runner.CPUOnly, nil)
	if err != nil {
		return nil, err
	}
	web, err := o.runCorpus(sites, runner.HTTP1, nil)
	if err != nil {
		return nil, err
	}
	bound, _, _, err := o.lowerBound(sites)
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
	return pltFigure(o, "fig03", "HTTP/2 adoption PLT CDFs (s)", false, []labelled{
		{"http/2 baseline", runner.H2},
		{"push all static", runner.H2PushAllStatic},
		{"http/1.1", runner.HTTP1},
	}, func(med []float64) string {
		return fmt.Sprintf("paper: H2 ≈8s median, push-all-static little extra benefit; measured h2 %.1fs, push-all-static %.1fs",
			med[0], med[1])
	})
}

// Fig04 — fraction of the critical path spent waiting for the network
// under HTTP/2.
func Fig04(o Options) (*Result, error) {
	o = o.fill()
	rs, err := o.runCorpus(o.s.newsAndSports(), runner.H2, nil)
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
	sites := o.s.newsAndSports()
	boundPLT, boundAFT, boundSI, err := o.lowerBound(sites)
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
		rs, err := o.runCorpus(sites, s.pol, nil)
		if err != nil {
			return nil, err
		}
		s.plt, s.aft, s.si = telemetry.NewDist(), telemetry.NewDist(), telemetry.NewDist()
		for _, r := range rs {
			s.plt.AddDuration(r.PLT)
			s.aft.AddDuration(r.AFT)
			s.si.Add(r.SpeedIndex / 1000)
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
	rows = append(rows, telemetry.TableRow{Label: "lower bound SpeedIndex/1000", Dist: boundSI})
	for _, s := range pols {
		rows = append(rows, telemetry.TableRow{Label: s.label + " SpeedIndex/1000", Dist: s.si})
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

// Fig14 — Vroom vs Polaris.
func Fig14(o Options) (*Result, error) {
	return pltFigure(o, "fig14", "Vroom vs Polaris PLT CDFs (s)", false, []labelled{
		{"vroom", runner.Vroom},
		{"polaris", runner.Polaris},
	}, func(med []float64) string {
		return fmt.Sprintf("paper: medians 5.1s vs 6.4s; measured %.1fs vs %.1fs", med[0], med[1])
	})
}

// Fig16 — reduction in the client's latency to (a) discover and (b) finish
// fetching resources, relative to the HTTP/2 baseline; all resources and
// high-priority only.
func Fig16(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.newsAndSports()
	base, err := o.runCorpus(sites, runner.H2, nil)
	if err != nil {
		return nil, err
	}
	vr, err := o.runCorpus(sites, runner.Vroom, nil)
	if err != nil {
		return nil, err
	}
	discAll, discHigh := telemetry.NewDist(), telemetry.NewDist()
	fetchAll, fetchHigh := telemetry.NewDist(), telemetry.NewDist()
	for i := range sites {
		discAll.Add(improvement(base[i].DiscoverAll.Seconds(), vr[i].DiscoverAll.Seconds()))
		discHigh.Add(improvement(base[i].DiscoverHigh.Seconds(), vr[i].DiscoverHigh.Seconds()))
		fetchAll.Add(improvement(base[i].FetchAll.Seconds(), vr[i].FetchAll.Seconds()))
		fetchHigh.Add(improvement(base[i].FetchHigh.Seconds(), vr[i].FetchHigh.Seconds()))
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
	return pltFigure(o, "fig17", "Deps from a single previous load (PLT s)", true, []labelled{
		{"vroom", runner.Vroom},
		{"deps from previous load", runner.DepsFromPrevLoad},
		{"http/2 baseline", runner.H2},
	}, func([]float64) string { return "paper: median improves slightly but p75 degrades by >1.5s vs vroom" })
}

// Fig18 — push alone is insufficient: high-priority-only and push-all
// without hints.
func Fig18(o Options) (*Result, error) {
	return pltFigure(o, "fig18", "Push-only strategies (PLT s)", true, []labelled{
		{"vroom", runner.Vroom},
		{"push high priority, no hints", runner.PushHighNoHints},
		{"push all, no hints", runner.PushAllNoHints},
	}, func([]float64) string {
		return "paper: push-only medians >2s above vroom (third-party resources need hints)"
	})
}

// Fig19 — scheduling matters: fetch-everything-ASAP vs staged.
func Fig19(o Options) (*Result, error) {
	return pltFigure(o, "fig19", "Scheduling strategies (PLT s)", true, []labelled{
		{"vroom", runner.Vroom},
		{"push all, fetch asap", runner.PushAllFetchASAP},
		{"no push, no hints", runner.H2},
	}, func([]float64) string {
		return "paper: fetch-ASAP yields no improvement over baseline; vroom's staging is key"
	})
}

type labelled struct {
	label string
	pol   runner.Policy
}

// pltFigure prints one PLT distribution per policy over the News+Sports
// corpus, in order, after the §2 lower bound when withBound is set. note
// writes the figure's note from the policies' median PLTs, in the same
// order.
func pltFigure(o Options, id, title string, withBound bool, pols []labelled, note func(med []float64) string) (*Result, error) {
	o = o.fill()
	sites := o.s.newsAndSports()
	var rows []telemetry.TableRow
	if withBound {
		bound, _, _, err := o.lowerBound(sites)
		if err != nil {
			return nil, err
		}
		rows = append(rows, telemetry.TableRow{Label: "lower bound", Dist: bound})
	}
	med := make([]float64, len(pols))
	for i, pc := range pols {
		rs, err := o.runCorpus(sites, pc.pol, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, telemetry.TableRow{Label: pc.label, Dist: pltDist(rs)})
		med[i] = rows[len(rows)-1].Dist.Median()
	}
	r := &Result{ID: id, Title: title, Series: rows, Notes: []string{note(med)}}
	r.Text = renderResult(r)
	return r, nil
}
