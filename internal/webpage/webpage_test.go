package webpage

import (
	"testing"
	"time"

	"vroom/internal/hints"
)

var t0 = time.Date(2017, 8, 21, 9, 0, 0, 0, time.UTC)

func testSite(t *testing.T, cat Category, seed int64) *Site {
	t.Helper()
	return NewSite("example", cat, seed)
}

func TestSnapshotDeterministic(t *testing.T) {
	s := testSite(t, News, 42)
	a := s.Snapshot(t0, Profile{Device: PhoneSmall, UserID: 7}, 1)
	b := s.Snapshot(t0, Profile{Device: PhoneSmall, UserID: 7}, 1)
	ra, rb := a.Ordered(), b.Ordered()
	if len(ra) != len(rb) {
		t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].URL != rb[i].URL {
			t.Fatalf("resource %d differs: %s vs %s", i, ra[i].URL, rb[i].URL)
		}
		if ra[i].Body != rb[i].Body {
			t.Fatalf("body %d differs for %s", i, ra[i].URL)
		}
	}
}

func TestCrawlMatchesGroundTruth(t *testing.T) {
	for _, cat := range []Category{Top100, News, Sports} {
		s := testSite(t, cat, int64(100+cat))
		sn := s.Snapshot(t0, Profile{Device: PhoneLarge, UserID: 3}, 9)
		crawled := CrawlURLSet(sn)
		truth := sn.URLSet()
		for u := range truth {
			if !crawled[u] {
				res, _ := sn.LookupString(u)
				t.Errorf("%v: generated resource not discovered by crawl: %s (type %s, parent %s)", cat, u, res.Type, res.Parent)
			}
		}
		for u := range crawled {
			if !truth[u] {
				t.Errorf("%v: crawl found URL not in snapshot: %s", cat, u)
			}
		}
		if t.Failed() {
			return
		}
	}
}

func TestBackToBackLoadsDifferOnlyInVolatile(t *testing.T) {
	s := testSite(t, News, 7)
	p := Profile{Device: PhoneSmall, UserID: 2}
	a := s.Snapshot(t0, p, 1)
	b := s.Snapshot(t0, p, 2)
	aSet, bSet := a.URLSet(), b.URLSet()
	for _, r := range a.Ordered() {
		key := r.URL.String()
		if r.Unpredictable {
			if bSet[key] {
				t.Errorf("volatile resource %s persisted across back-to-back loads", key)
			}
		} else if !bSet[key] {
			t.Errorf("stable resource %s (%s) missing from second load", key, r.Persist)
		}
	}
	// And some URLs must actually change.
	changed := 0
	for u := range aSet {
		if !bSet[u] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no volatile resources at all; generator misconfigured")
	}
	frac := float64(changed) / float64(len(aSet))
	if frac > 0.45 {
		t.Errorf("back-to-back churn fraction %.2f implausibly high", frac)
	}
}

func TestHourlyChurn(t *testing.T) {
	s := testSite(t, News, 11)
	p := Profile{Device: PhoneSmall, UserID: 2}
	a := s.Snapshot(t0, p, 1)
	b := s.Snapshot(t0.Add(time.Hour), p, 1)
	bSet := b.URLSet()
	stable, total := 0, 0
	for _, r := range a.Ordered() {
		if r.Unpredictable || r.URL == a.Root {
			continue // the root document's URL never changes
		}
		total++
		if bSet[r.URL.String()] {
			stable++
		}
		if r.Persist == Permanent && !bSet[r.URL.String()] {
			t.Errorf("permanent resource %s changed across an hour", r.URL)
		}
		if r.Persist == Hourly && bSet[r.URL.String()] {
			t.Errorf("hourly resource %s did not rotate across an hour boundary", r.URL)
		}
	}
	if total == 0 || stable == 0 {
		t.Fatal("degenerate churn test")
	}
	frac := float64(stable) / float64(total)
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("1-hour persistence %.2f outside plausible band (paper: ~0.7 median)", frac)
	}
}

func TestDeviceVariants(t *testing.T) {
	s := testSite(t, Top100, 13)
	sm := s.Snapshot(t0, Profile{Device: PhoneSmall, UserID: 2}, 1).URLSet()
	lg := s.Snapshot(t0, Profile{Device: PhoneLarge, UserID: 2}, 1).URLSet()
	tab := s.Snapshot(t0, Profile{Device: Tablet, UserID: 2}, 1).URLSet()
	iouPhone := iou(sm, lg)
	iouTablet := iou(sm, tab)
	if iouPhone <= iouTablet {
		t.Errorf("phones should be more similar than phone-tablet: phone IoU %.3f, tablet IoU %.3f", iouPhone, iouTablet)
	}
	if iouTablet == 1 {
		t.Error("tablet snapshot identical to phone; device variants not applied")
	}
}

func iou(a, b map[string]bool) float64 {
	inter, union := 0, 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union = len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func TestPersonalizationScopedToIframes(t *testing.T) {
	s := testSite(t, News, 17)
	u1 := s.Snapshot(t0, Profile{Device: PhoneSmall, UserID: 1}, 1)
	u2 := s.Snapshot(t0, Profile{Device: PhoneSmall, UserID: 2}, 1)
	set2 := u2.URLSet()
	for _, r := range u1.Ordered() {
		key := r.URL.String()
		if !r.Personalized && !r.Unpredictable && !set2[key] {
			t.Errorf("non-personalized stable resource %s differs across users", key)
		}
	}
}

func TestByteMix(t *testing.T) {
	// HTML/CSS/JS should be a modest fraction of total bytes (paper: ~25%).
	var totalAll, procAll int64
	for i := 0; i < 10; i++ {
		s := NewSite("mixcheck", News, int64(1000+i))
		for _, r := range s.Snapshot(t0, Profile{}, 1).Ordered() {
			totalAll += int64(r.Size)
			if r.Type.NeedsProcessing() {
				procAll += int64(r.Size)
			}
		}
	}
	frac := float64(procAll) / float64(totalAll)
	if frac < 0.15 || frac > 0.45 {
		t.Errorf("processed-bytes fraction %.2f outside [0.15,0.45]", frac)
	}
}

func TestResourceCounts(t *testing.T) {
	top := len(NewSite("a", Top100, 1).Snapshot(t0, Profile{}, 1).Ordered())
	news := len(NewSite("b", News, 2).Snapshot(t0, Profile{}, 1).Ordered())
	if top < 40 || top > 250 {
		t.Errorf("top100 resource count %d implausible", top)
	}
	if news < 80 || news > 500 {
		t.Errorf("news resource count %d implausible", news)
	}
}

func TestBodiesPaddedToSize(t *testing.T) {
	s := testSite(t, News, 23)
	sn := s.Snapshot(t0, Profile{}, 1)
	for _, r := range sn.Ordered() {
		if r.Type.NeedsProcessing() && len(r.Body) != r.Size {
			t.Errorf("%s: body length %d != size %d", r.URL, len(r.Body), r.Size)
		}
		if !r.Type.NeedsProcessing() && r.Type != JSON && r.Body != "" {
			t.Errorf("%s: binary resource has a body", r.URL)
		}
	}
}

func TestHighPriorityClassification(t *testing.T) {
	s := testSite(t, News, 29)
	sn := s.Snapshot(t0, Profile{}, 1)
	var high, low int
	for _, r := range sn.Ordered() {
		if (Discovered{URL: r.URL, Async: r.Async}).Priority() == hints.High {
			high++
			if !r.Type.NeedsProcessing() {
				t.Errorf("%s high priority but type %s", r.URL, r.Type)
			}
			if r.Async {
				t.Errorf("%s high priority but async", r.URL)
			}
		} else {
			low++
		}
	}
	if high == 0 || low == 0 {
		t.Fatalf("degenerate priority split: high=%d low=%d", high, low)
	}
}

func TestShoppingCategoryMoreDynamic(t *testing.T) {
	// Shopping pages should show lower back-to-back URL stability than
	// Top-100 pages (§4.1.1: product sets change often).
	churn := func(cat Category) float64 {
		var changed, total int
		for i := 0; i < 6; i++ {
			s := NewSite("churn", cat, int64(5000+i))
			p := Profile{Device: PhoneSmall, UserID: 2}
			a := s.Snapshot(t0, p, 1)
			b := s.Snapshot(t0, p, 2).URLSet()
			for u := range a.URLSet() {
				total++
				if !b[u] {
					changed++
				}
			}
		}
		return float64(changed) / float64(total)
	}
	shop, top := churn(Shopping), churn(Top100)
	if shop <= top {
		t.Errorf("shopping churn %.3f not above top100 %.3f", shop, top)
	}
}

// TestNamedSiteCategory pins the name-prefix rule every command uses to
// turn -site NAME into a page, and that a name builds exactly the page
// NewSite builds for its category and seed.
func TestNamedSiteCategory(t *testing.T) {
	prof := Profile{Device: PhoneSmall, UserID: 11}
	for _, tc := range []struct {
		name string
		want Category
	}{
		{"popular03", Top100},
		{"sportly00", Sports},
		{"dailynews00", News},
		{"socialites01", News},
	} {
		got := NamedSite(tc.name, 2017)
		if got.Category != tc.want {
			t.Errorf("NamedSite(%q) is %v, want %v", tc.name, got.Category, tc.want)
			continue
		}
		a := got.Snapshot(t0, prof, 1)
		b := NewSite(tc.name, tc.want, 2017).Snapshot(t0, prof, 1)
		if a.Root != b.Root || len(a.Ordered()) != len(b.Ordered()) ||
			a.RootResource().Body != b.RootResource().Body {
			t.Errorf("NamedSite(%q) differs from NewSite(%q, %v, 2017)", tc.name, tc.name, tc.want)
		}
	}
}
