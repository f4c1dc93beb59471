package experiments

import (
	"fmt"
	"time"

	"vroom/internal/browser"
	"vroom/internal/hints"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// Fig20 — warm browser caches: a first load warms the cache, then the page
// is reloaded back-to-back, one day later, and one week later, under Vroom
// and under the HTTP/2 baseline. Cached resources are neither refetched by
// the client nor pushed by cache-aware servers.
func Fig20(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.newsAndSports()
	gaps := []struct {
		label string
		d     time.Duration
	}{
		{"back-to-back", 0},
		{"1 day later", 24 * time.Hour},
		{"1 week later", 7 * 24 * time.Hour},
	}
	var rows []telemetry.TableRow
	var notes []string
	for _, gap := range gaps {
		gap := gap
		warm := [2][]browser.Result{make([]browser.Result, len(sites)), make([]browser.Result, len(sites))}
		err := forEachSite(sites, o.Workers, func(i int, s *webpage.Site) error {
			for p, pol := range []runner.Policy{runner.Vroom, runner.H2} {
				cache := browser.NewCache()
				// Warm-up load at t. Both loads share a browser cache, so
				// the memo cannot hold them.
				o.s.ranUnmemoized(2)
				if _, err := runner.Run(s, pol, runner.Options{
					Time: o.Time, Profile: o.Profile, Nonce: 1, Cache: cache, Caches: o.s.caches,
				}); err != nil {
					return err
				}
				// Measured load after the gap.
				res, err := runner.Run(s, pol, runner.Options{
					Time: o.Time.Add(gap.d), Profile: o.Profile, Nonce: 2, Cache: cache, Caches: o.s.caches,
				})
				if err != nil {
					return err
				}
				warm[p][i] = res
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		vroomD, h2D := pltDist(warm[0]), pltDist(warm[1])
		rows = append(rows,
			telemetry.TableRow{Label: "vroom, " + gap.label, Dist: vroomD},
			telemetry.TableRow{Label: "h2 baseline, " + gap.label, Dist: h2D},
		)
		notes = append(notes, fmt.Sprintf("%s: vroom %.1fs vs h2 %.1fs (Δ %.1fs)",
			gap.label, vroomD.Median(), h2D.Median(), h2D.Median()-vroomD.Median()))
	}
	r := &Result{ID: "fig20", Title: "Warm-cache PLT (s)", Series: rows, Notes: notes}
	r.Notes = append(r.Notes, "paper: vroom improves warm loads by 1.6s (back-to-back), 2.2s (1 day), 2.1s (1 week)")
	r.Text = renderResult(r)
	return r, nil
}

// Fig11 — why scheduling matters, on a single site: the receipt-time change
// (relative to the HTTP/2 baseline) of the first 10 resources that need
// processing, under push-all-fetch-ASAP and under Vroom.
func Fig11(o Options) (*Result, error) {
	o = o.fill()
	site := o.s.newsAndSports()[0]
	var loads [3]browser.Result
	for i, pol := range []runner.Policy{runner.H2, runner.PushAllFetchASAP, runner.Vroom} {
		rs, err := o.runCorpus([]*webpage.Site{site}, pol, nil)
		if err != nil {
			return nil, err
		}
		loads[i] = rs[0]
	}
	base, asap, vr := loads[0], loads[1], loads[2]
	// The first 10 high-priority resources in baseline fetch order.
	type row struct {
		url     string
		baseAt  time.Duration
		asapAt  time.Duration
		vroomAt time.Duration
	}
	arrivals := func(r browser.Result) map[string]time.Duration {
		m := make(map[string]time.Duration, len(r.Resources))
		for _, rt := range r.Resources {
			if rt.ArrivedAt > 0 {
				m[rt.URL] = rt.ArrivedAt
			}
		}
		return m
	}
	asapAt, vroomAt := arrivals(asap), arrivals(vr)
	var rowsData []row
	ordered := append([]browser.ResourceTiming(nil), base.Resources...)
	// base.Resources is in discovery order; filter high-priority processed.
	for _, rt := range ordered {
		if !rt.Required || rt.Priority != hints.High || rt.ArrivedAt == 0 {
			continue
		}
		rowsData = append(rowsData, row{url: rt.URL, baseAt: rt.ArrivedAt, asapAt: asapAt[rt.URL], vroomAt: vroomAt[rt.URL]})
		if len(rowsData) == 10 {
			break
		}
	}
	asapDelta, vroomDelta := telemetry.NewDist(), telemetry.NewDist()
	var text string
	text = fmt.Sprintf("fig11 — receipt-time change vs HTTP/2 baseline, first %d processed resources on %s\n", len(rowsData), site.Name)
	text += fmt.Sprintf("  %-3s %9s %12s %12s\n", "id", "base(s)", "pushASAP Δs", "vroom Δs")
	for i, rd := range rowsData {
		da := (rd.asapAt - rd.baseAt).Seconds()
		dv := (rd.vroomAt - rd.baseAt).Seconds()
		asapDelta.Add(da)
		vroomDelta.Add(dv)
		text += fmt.Sprintf("  %-3d %9.2f %+12.2f %+12.2f\n", i+1, rd.baseAt.Seconds(), da, dv)
	}
	r := &Result{
		ID:    "fig11",
		Title: "Receipt-time change of first 10 processed resources",
		Series: []telemetry.TableRow{
			{Label: "push-all-fetch-asap delta", Dist: asapDelta},
			{Label: "vroom delta", Dist: vroomDelta},
		},
		Text: text,
	}
	r.Notes = append(r.Notes, "paper: fetch-ASAP delays several early resources; vroom speeds them up without delaying any individually")
	r.Text += "  note: " + r.Notes[0] + "\n"
	return r, nil
}
