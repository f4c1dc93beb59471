package experiments

import (
	"fmt"
	"time"

	"vroom/internal/core"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// Fig07 — fraction of each page's resources that persist over an hour, a
// day, and a week (Alexa top-100 corpus).
func Fig07(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.top100()
	hour, day, week := telemetry.NewDist(), telemetry.NewDist(), telemetry.NewDist()
	for _, s := range sites {
		now := s.Snapshot(o.Time, o.Profile, 1).URLSet()
		for i, gap := range []time.Duration{time.Hour, 24 * time.Hour, 7 * 24 * time.Hour} {
			later := s.Snapshot(o.Time.Add(gap), o.Profile, 2).URLSet()
			inter := 0
			for u := range now {
				if later[u] {
					inter++
				}
			}
			frac := float64(inter) / float64(len(now))
			switch i {
			case 0:
				hour.Add(frac)
			case 1:
				day.Add(frac)
			default:
				week.Add(frac)
			}
		}
	}
	r := &Result{
		ID:    "fig07",
		Title: "Fraction of resources persisting over time",
		Series: []telemetry.TableRow{
			{Label: "one hour", Dist: hour},
			{Label: "one day", Dist: day},
			{Label: "one week", Dist: week},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper: medians ≈0.7 (hour) and ≈0.5 (week); measured %.2f and %.2f",
		hour.Median(), week.Median()))
	r.Text = renderResult(r)
	return r, nil
}

// Fig09 — device equivalence classes: intersection-over-union of each
// page's stable resource set on a PhoneLarge (OnePlus 3) and a Tablet
// (Nexus 10) versus a PhoneSmall (Nexus 6).
func Fig09(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.top100()
	phone, tablet := telemetry.NewDist(), telemetry.NewDist()
	for _, s := range sites {
		res := core.NewResolver(core.DefaultResolverConfig())
		for _, d := range []webpage.DeviceClass{webpage.PhoneSmall, webpage.PhoneLarge, webpage.Tablet} {
			res.Train(s, o.Time, d)
		}
		base := stableSet(res, s, webpage.PhoneSmall)
		phone.Add(iouSets(base, stableSet(res, s, webpage.PhoneLarge)))
		tablet.Add(iouSets(base, stableSet(res, s, webpage.Tablet)))
	}
	r := &Result{
		ID:    "fig09",
		Title: "Stable-set IoU vs a Nexus-6-class phone",
		Series: []telemetry.TableRow{
			{Label: "oneplus-3-class phone", Dist: phone},
			{Label: "nexus-10-class tablet", Dist: tablet},
		},
	}
	r.Notes = append(r.Notes, fmt.Sprintf("paper: phone-phone IoU near 1, phone-tablet clearly lower; measured medians %.2f vs %.2f",
		phone.Median(), tablet.Median()))
	r.Text = renderResult(r)
	return r, nil
}

func stableSet(r *core.Resolver, s *webpage.Site, d webpage.DeviceClass) map[string]bool {
	out := make(map[string]bool)
	for _, dep := range r.Stable(s.RootURL(), d) {
		out[dep.URL.String()] = true
	}
	return out
}

func iouSets(a, b map[string]bool) float64 {
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// AccuracyResult carries Fig 21's three panels.
type AccuracyResult struct {
	// PredictableCount/PredictableBytes: the predictable subset's share of
	// the hint-eligible resources (21a).
	PredictableCount, PredictableBytes *telemetry.Dist
	// FalseNegatives/FalsePositives per strategy (21b, 21c), as fractions
	// of the predictable subset.
	FalseNegatives map[string]*telemetry.Dist
	FalsePositives map[string]*telemetry.Dist
}

// Fig21 — accuracy of server-side dependency resolution: Vroom's
// offline+online combination versus offline-only and online-only, measured
// against the predictable subset of each load (URLs common to back-to-back
// loads), across user cookie profiles.
func Fig21(o Options) (*Result, error) {
	o = o.fill()
	sites := o.s.newsAndSports()
	users := []int64{101, 202, 303, 404} // four seeded cookie profiles
	acc := &AccuracyResult{
		PredictableCount: telemetry.NewDist(),
		PredictableBytes: telemetry.NewDist(),
		FalseNegatives:   map[string]*telemetry.Dist{},
		FalsePositives:   map[string]*telemetry.Dist{},
	}
	strategies := []string{"vroom", "offline only", "online only"}
	for _, st := range strategies {
		acc.FalseNegatives[st] = telemetry.NewDist()
		acc.FalsePositives[st] = telemetry.NewDist()
	}
	for _, s := range sites {
		// Server-side resolvers are shared across users (they crawl
		// anonymously), per device class, and with the session's loads.
		vroomRes := o.s.caches.TrainedResolver(s, o.Time, o.Profile.Device, core.DefaultResolverConfig())
		offCfg := core.DefaultResolverConfig()
		offCfg.UseOnline = false
		offRes := o.s.caches.TrainedResolver(s, o.Time, o.Profile.Device, offCfg)

		for ui, uid := range users {
			profile := webpage.Profile{Device: o.Profile.Device, UserID: uid}
			a := s.Snapshot(o.Time, profile, uint64(1000+ui))
			b := s.Snapshot(o.Time, profile, uint64(2000+ui))
			eligA, bytesA := eligibleSet(a)
			eligB, _ := eligibleSet(b)
			predictable := make(map[string]bool)
			var predBytes, totBytes int64
			for u := range eligA {
				totBytes += bytesA[u]
				if eligB[u] {
					predictable[u] = true
					predBytes += bytesA[u]
				}
			}
			if len(eligA) == 0 || len(predictable) == 0 {
				continue
			}
			acc.PredictableCount.Add(float64(len(predictable)) / float64(len(eligA)))
			if totBytes > 0 {
				acc.PredictableBytes.Add(float64(predBytes) / float64(totBytes))
			}

			root := a.RootResource()
			returned := map[string]map[string]bool{
				"vroom":        hintSet(vroomRes, a, root.Body),
				"offline only": hintSet(offRes, a, ""),
			}
			// Online-only: a full on-the-fly load at the server, with the
			// server's own cookies and a fresh nonce.
			sSnap := s.Snapshot(o.Time, webpage.Profile{Device: profile.Device, UserID: 0}, uint64(9000+ui))
			onlineSet, _ := eligibleSet(sSnap)
			returned["online only"] = onlineSet

			for _, st := range strategies {
				got := returned[st]
				miss, extra := 0, 0
				for u := range predictable {
					if !got[u] {
						miss++
					}
				}
				for u := range got {
					if !predictable[u] {
						extra++
					}
				}
				acc.FalseNegatives[st].Add(float64(miss) / float64(len(predictable)))
				acc.FalsePositives[st].Add(float64(extra) / float64(len(predictable)))
			}
		}
	}
	rows := []telemetry.TableRow{
		{Label: "predictable / eligible (count)", Dist: acc.PredictableCount},
		{Label: "predictable / eligible (bytes)", Dist: acc.PredictableBytes},
	}
	for _, st := range strategies {
		rows = append(rows, telemetry.TableRow{Label: "false negatives, " + st, Dist: acc.FalseNegatives[st]})
	}
	for _, st := range strategies {
		rows = append(rows, telemetry.TableRow{Label: "false positives, " + st, Dist: acc.FalsePositives[st]})
	}
	r := &Result{ID: "fig21", Title: "Server-side dependency-resolution accuracy", Series: rows}
	r.Notes = append(r.Notes,
		fmt.Sprintf("paper 21a: predictable >80%% of resources, >95%% of bytes; measured %.0f%% / %.0f%%",
			acc.PredictableCount.Median()*100, acc.PredictableBytes.Median()*100),
		fmt.Sprintf("paper 21b (FN medians): vroom <5%%, offline-only up to 40%%, online-only 0; measured %.0f%% / %.0f%% / %.0f%%",
			acc.FalseNegatives["vroom"].Median()*100, acc.FalseNegatives["offline only"].Median()*100, acc.FalseNegatives["online only"].Median()*100),
		fmt.Sprintf("paper 21c (FP): vroom ≈ offline-only ≈ 0, online-only up to 20%%; measured %.0f%% / %.0f%% / %.0f%%",
			acc.FalsePositives["vroom"].Median()*100, acc.FalsePositives["offline only"].Median()*100, acc.FalsePositives["online only"].Median()*100))
	r.Text = renderResult(r)
	return r, nil
}

// eligibleSet returns the hint-eligible resources of a load — everything
// derived from the root HTML except iframe-derived resources — plus their
// sizes.
func eligibleSet(sn *webpage.Snapshot) (map[string]bool, map[string]int64) {
	set := make(map[string]bool)
	sizes := make(map[string]int64)
	for _, dep := range core.DocDeps(sn, sn.RootResource()) {
		k := dep.URL.String()
		set[k] = true
		if res, ok := sn.LookupString(k); ok {
			sizes[k] = int64(res.Size)
		}
	}
	return set, sizes
}

func hintSet(r *core.Resolver, sn *webpage.Snapshot, body string) map[string]bool {
	out := make(map[string]bool)
	for _, h := range r.HintsFor(sn.Root, body, sn.Profile.Device) {
		out[h.URL.String()] = true
	}
	return out
}
