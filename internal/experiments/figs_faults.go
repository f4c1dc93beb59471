package experiments

import (
	"fmt"
	"hash/fnv"

	"vroom/internal/browser"
	"vroom/internal/faults"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// faultSeed derives the per-(site, load) fault-plan seed from the
// experiment seed, so every policy compared on one site faces the same
// broken world and the whole table replays exactly under one seed.
func faultSeed(base int64, site string, nonce uint64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", base, site, nonce)
	return int64(h.Sum64())
}

// chaosLoad runs a policy on a site LoadsPerSite times, each load under a
// fresh fault plan for the regime, and returns the median-PLT load. Fault
// and degradation counters aggregate into agg.
func chaosLoad(s *webpage.Site, pol runner.Policy, o Options, reg faults.Regime, agg *telemetry.Registry) (browser.Result, error) {
	var results []browser.Result
	for i := 0; i < o.LoadsPerSite; i++ {
		var plan *faults.Plan
		if reg != faults.RegimeNone {
			plan = faults.New(faultSeed(o.Seed, s.Name, uint64(i+1)), faults.RegimeConfig(reg))
		}
		r, err := runner.Run(s, pol, runner.Options{
			Time: o.Time, Profile: o.Profile, Nonce: uint64(i + 1), Faults: plan,
			Caches: o.caches,
		})
		if err != nil {
			return browser.Result{}, err
		}
		agg.Counter("retries").Add(int64(r.Retries))
		agg.Counter("timeouts").Add(int64(r.Timeouts))
		agg.Counter("failed-fetches").Add(int64(r.FailedFetches))
		agg.Counter("hints-failed").Add(int64(r.HintsFailed))
		agg.Counter("wasted-push-bytes").Add(r.WastedPushBytes)
		for _, st := range plan.Stats() {
			agg.Counter("injected/" + st.Name).Add(st.Count)
		}
		results = append(results, r)
	}
	return medianByPLT(results), nil
}

// Ext03 — chaos: PLT for every runner policy under the none/mild/severe
// fault regimes. Vroom's hints are best-effort by design (§4); this
// experiment demonstrates the graceful-degradation invariant end to end —
// under heavy faults (dead origins, 5xx, stalls, a quarter of hints
// stale), Vroom's PLT stays in the same band as the no-hints HTTP/2
// baseline rather than collapsing, and the report carries the
// retry/timeout/wasted-push counters that show the machinery working.
func Ext03(o Options) (*Result, error) {
	o = o.fill()
	sites := o.newsAndSports()
	regimes := []faults.Regime{faults.RegimeNone, faults.RegimeMild, faults.RegimeSevere}

	type cell struct {
		pol runner.Policy
		reg faults.Regime
	}
	dists := make(map[cell]*telemetry.Dist)
	counters := make(map[faults.Regime]*telemetry.Registry)
	hists := telemetry.NewRegistry()
	var rows []telemetry.TableRow
	for _, reg := range regimes {
		counters[reg] = telemetry.NewRegistry()
		// Resolve the headline counters up front so they read "=0" in the
		// report rather than vanish when nothing fired.
		for _, name := range []string{"retries", "timeouts", "failed-fetches", "hints-failed", "wasted-push-bytes"} {
			counters[reg].Counter(name)
		}
		for _, pol := range runner.AllPolicies() {
			// Fault counters aggregate commutatively and each load's fault
			// plan is seeded by (site, load), so the parallel sweep reports
			// exactly what the serial one would.
			loads := make([]browser.Result, len(sites))
			err := forEachSite(sites, o.Workers, func(i int, s *webpage.Site) error {
				res, err := chaosLoad(s, pol, o, reg, counters[reg])
				if err != nil {
					return fmt.Errorf("ext03: %s under %s: %w", pol, reg, err)
				}
				loads[i] = res
				return nil
			})
			if err != nil {
				return nil, err
			}
			d := telemetry.NewDist()
			for _, res := range loads {
				d.AddDuration(res.PLT)
			}
			if pol == runner.Vroom {
				// The per-resource distributions show how the fault regime
				// shifts time-to-first-byte and hold times under Vroom.
				observeLoadHists(hists, fmt.Sprintf("%s/vroom", reg), loads)
			}
			dists[cell{pol, reg}] = d
			rows = append(rows, telemetry.TableRow{Label: fmt.Sprintf("%s/%s", reg, pol), Dist: d})
		}
	}

	r := &Result{
		ID:     "ext03",
		Title:  "Chaos: PLT (s) per policy under none/mild/severe fault regimes",
		Series: rows,
	}
	for _, reg := range regimes {
		if reg == faults.RegimeNone {
			continue
		}
		r.Notes = append(r.Notes, fmt.Sprintf("%s counters: %s", reg, counters[reg].Text(" ")))
	}
	vroomSevere := dists[cell{runner.Vroom, faults.RegimeSevere}].Median()
	h2Severe := dists[cell{runner.H2, faults.RegimeSevere}].Median()
	vroomNone := dists[cell{runner.Vroom, faults.RegimeNone}].Median()
	verdict := "bad hints degrade to vanilla discovery, they do not break the load"
	if vroomSevere > h2Severe {
		verdict = "vroom is slower than no-hints h2 under severe faults"
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"severe-regime medians: vroom %.2fs vs no-hints h2 %.2fs (%+.1f%%); vroom clean-world %.2fs — %s",
		vroomSevere, h2Severe, (vroomSevere/h2Severe-1)*100, vroomNone, verdict))
	r.Text = renderResult(r) + histText("vroom per-resource distributions by regime", hists)
	return r, nil
}
