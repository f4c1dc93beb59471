package experiments

import (
	"fmt"
	"hash/fnv"

	"vroom/internal/faults"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
)

// faultPlan builds the fault plan of a site's nonce-th load under reg, or
// nil for RegimeNone. Its seed derives from (seed, site, nonce), so every
// policy compared on one site faces the same broken world and the whole
// table replays exactly under one seed.
func faultPlan(seed int64, reg faults.Regime, site string, nonce uint64) *faults.Plan {
	if reg == faults.RegimeNone {
		return nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, site, nonce)
	return faults.New(int64(h.Sum64()), faults.RegimeConfig(reg))
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
	sites := o.s.newsAndSports()
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
		ro := o
		ro.FaultRegime = reg
		for _, pol := range runner.AllPolicies() {
			loads, err := ro.runCorpus(sites, pol, counters[reg])
			if err != nil {
				return nil, fmt.Errorf("under %s faults: %w", reg, err)
			}
			d := pltDist(loads)
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
