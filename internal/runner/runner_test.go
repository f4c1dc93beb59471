package runner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"vroom/internal/browser"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/loadgen"
	"vroom/internal/server"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

var loadTime = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

func newsSite(seed int64) *webpage.Site {
	return webpage.NewSite("smoketest", webpage.News, seed)
}

func TestAllPoliciesComplete(t *testing.T) {
	site := newsSite(1234)
	for _, pol := range AllPolicies() {
		pol := pol
		t.Run(string(pol), func(t *testing.T) {
			res, err := Run(site, pol, Options{Time: loadTime, Nonce: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.PLT <= 0 {
				t.Fatalf("PLT = %v", res.PLT)
			}
			if res.NumRequired == 0 {
				t.Fatal("no required resources")
			}
			t.Logf("%-22s PLT=%8.2fs AFT=%7.2fs SI=%8.0f idle=%.2f discAll=%6.2fs fetchAll=%6.2fs req=%d fetched=%d waste=%dKB",
				pol, res.PLT.Seconds(), res.AFT.Seconds(), res.SpeedIndex, res.IdleFrac,
				res.DiscoverAll.Seconds(), res.FetchAll.Seconds(), res.NumRequired, res.NumFetched, res.WastedBytes/1024)
		})
	}
}

// TestUnknownPolicyRejected pins that a misspelled policy is an error, not
// a load under some default preset, and that the preset lookup costs Run no
// allocation.
func TestUnknownPolicyRejected(t *testing.T) {
	for _, pol := range []Policy{"vrom", "", "VROOM"} {
		if _, err := Run(newsSite(1234), pol, Options{Time: loadTime, Nonce: 1}); err == nil ||
			!strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("Run(%q) error = %v, want unknown policy", pol, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = VroomIframeDeps.preset() }); n != 0 {
		t.Errorf("preset lookup allocates %v per Run", n)
	}
}

// TestPresetTable checks the preset table itself: no two policies share a
// spec, and every axis value is some preset's. Bool axes must take both
// values; the push mode and the scheduler every value they declare. What
// each preset builds is pinned by quick.golden, whose ext03 runs every
// policy.
func TestPresetTable(t *testing.T) {
	type leaf struct {
		path string
		val  any
	}
	var walk func(path string, v reflect.Value, out []leaf) []leaf
	walk = func(path string, v reflect.Value, out []leaf) []leaf {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				out = walk(path+"."+v.Type().Field(i).Name, v.Field(i), out)
			}
			return out
		case reflect.Bool:
			return append(out, leaf{path, v.Bool()})
		case reflect.Int, reflect.Int64:
			return append(out, leaf{path, v.Int()})
		case reflect.Func:
			return append(out, leaf{path, v.IsNil()})
		}
		t.Fatalf("field %s has kind %s, which this test cannot compare", path, v.Kind())
		return nil
	}
	seen := map[string]map[any]bool{}
	specs := map[string]Policy{}
	for _, p := range presets {
		leaves := walk("", reflect.ValueOf(p.spec), nil)
		key := fmt.Sprint(leaves)
		if dup, ok := specs[key]; ok {
			t.Errorf("%s and %s have the same spec", dup, p.id)
		}
		specs[key] = p.id
		for _, l := range leaves {
			if seen[l.path] == nil {
				seen[l.path] = map[any]bool{}
			}
			seen[l.path][l.val] = true
		}
	}
	want := map[string]int{
		".sched":       int(crawlList) + 1,
		".server.Push": int(server.PushAllLocal) + 1,
		// firstParty owns server.Compliant; the table leaves it nil.
		".server.Compliant": 1,
		// Held at the full resolver's values: not axes.
		".resolver.OfflineLoads": 1,
		".resolver.Interval":     1,
	}
	for path, vals := range seen {
		n, ok := want[path]
		if !ok {
			n = 2 // a bool axis
		}
		if len(vals) != n {
			t.Errorf("axis %s takes %d values across the presets, want %d", path, len(vals), n)
		}
	}
}

func TestVroomBeatsH2(t *testing.T) {
	var vroomWins int
	const n = 8
	for i := 0; i < n; i++ {
		site := webpage.NewSite("ordering", webpage.News, int64(100+i))
		h2, err := Run(site, H2, Options{Time: loadTime, Nonce: 1})
		if err != nil {
			t.Fatal(err)
		}
		vr, err := Run(site, Vroom, Options{Time: loadTime, Nonce: 1})
		if err != nil {
			t.Fatal(err)
		}
		if vr.PLT < h2.PLT {
			vroomWins++
		}
		t.Logf("site %d: h2=%.2fs vroom=%.2fs", i, h2.PLT.Seconds(), vr.PLT.Seconds())
	}
	if vroomWins < n*3/4 {
		t.Errorf("vroom beat h2 on only %d/%d sites", vroomWins, n)
	}
}

func TestLowerBoundIsLower(t *testing.T) {
	site := newsSite(77)
	cpu, err := Run(site, CPUOnly, Options{Time: loadTime, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	netw, err := Run(site, NetworkOnly, Options{Time: loadTime, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Run(site, H2, Options{Time: loadTime, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound := cpu.PLT
	if netw.PLT > bound {
		bound = netw.PLT
	}
	t.Logf("cpu=%.2fs net=%.2fs bound=%.2fs h2=%.2fs", cpu.PLT.Seconds(), netw.PLT.Seconds(), bound.Seconds(), h2.PLT.Seconds())
	if bound >= h2.PLT {
		t.Errorf("lower bound %.2fs not below H2 %.2fs", bound.Seconds(), h2.PLT.Seconds())
	}
}

func TestWarmCacheFaster(t *testing.T) {
	site := newsSite(99)
	cache := browser.NewCache()
	cold, err := Run(site, Vroom, Options{Time: loadTime, Nonce: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(site, Vroom, Options{Time: loadTime, Nonce: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold=%.2fs warm=%.2fs", cold.PLT.Seconds(), warm.PLT.Seconds())
	if warm.PLT >= cold.PLT {
		t.Errorf("warm load %.2fs not faster than cold %.2fs", warm.PLT.Seconds(), cold.PLT.Seconds())
	}
}

// TestQualityAccountingFeedsStore runs the full Vroom policy with a quality
// store attached, over 20 seeded sites of every category, and checks the
// farm-side settlement agrees exactly with the browser's own ledger: both
// are hints.Settle over the same per-entry outcomes.
func TestQualityAccountingFeedsStore(t *testing.T) {
	var pushedBytes int64
	for seed := int64(1); seed <= 20; seed++ {
		site := webpage.NewSite(fmt.Sprintf("quality%02d", seed), webpage.Category(seed%3), seed)
		st := hintstore.New(hintstore.Config{TTL: time.Hour})
		reg := telemetry.NewRegistry()
		st.Instrument(reg)

		res, err := Run(site, Vroom, Options{Time: loadTime, Nonce: 1, Quality: st})
		if err != nil {
			t.Fatal(err)
		}
		if res.HintsEmitted == 0 || res.HintsUsed == 0 {
			t.Fatalf("seed %d: vroom load settled no hints: %+v", seed, res)
		}
		q := hints.QualityDelta{HintsUsed: int64(res.HintsUsed), HintsUnused: int64(res.HintsUnused),
			HintsMissed: int64(res.HintsMissed)}
		if p, r := q.Precision(), q.Recall(); p <= 0 || p > 1 || r <= 0 || r > 1 {
			t.Fatalf("seed %d: precision %v, recall %v out of (0,1]", seed, p, r)
		}

		var sb strings.Builder
		reg.WritePrometheus(&sb)
		sc, err := loadgen.ParseProm(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		used := int(sc.Sum(hintstore.MetricHintsUsed, nil))
		unused := int(sc.Sum(hintstore.MetricHintsUnused, nil))
		missed := int(sc.Sum(hintstore.MetricHintsMissed, nil))
		emitted := int(sc.Sum(hintstore.MetricHintsEmitted, nil))
		if used != res.HintsUsed || unused != res.HintsUnused || missed != res.HintsMissed {
			t.Fatalf("seed %d: store settlement (used %d unused %d missed %d) != result (%d %d %d)",
				seed, used, unused, missed, res.HintsUsed, res.HintsUnused, res.HintsMissed)
		}
		// The farm emits per served document, so repeats across documents can
		// only push emissions above the deduped settled count.
		if emitted < used+unused {
			t.Fatalf("seed %d: emitted %d < settled %d", seed, emitted, used+unused)
		}
		pushed := int64(sc.Sum(hintstore.MetricPushedBytes, nil))
		wasted := int64(sc.Sum(hintstore.MetricWastedPush, nil))
		if wasted != res.WastedPushBytes || wasted > pushed {
			t.Fatalf("seed %d: wasted push bytes: store %d of %d pushed, result %d",
				seed, wasted, pushed, res.WastedPushBytes)
		}
		pushedBytes += pushed
		if !strings.Contains(sb.String(), hintstore.MetricHintsUsed+`{origin="`) {
			t.Fatalf("seed %d: per-origin used series missing from exposition", seed)
		}
	}
	if pushedBytes == 0 {
		t.Fatal("no seed pushed anything under the Vroom policy")
	}
}
