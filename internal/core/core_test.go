package core

import (
	"strings"
	"testing"
	"time"

	"vroom/internal/hints"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

var trainTime = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

func newsSite(seed int64) *webpage.Site {
	return webpage.NewSite("resolvertest", webpage.News, seed)
}

func hintURLs(hs []hints.Hint) map[string]hints.Priority {
	out := make(map[string]hints.Priority, len(hs))
	for _, h := range hs {
		out[h.URL.String()] = h.Priority
	}
	return out
}

func TestHintsExcludeIframeDescendants(t *testing.T) {
	site := newsSite(5)
	r := NewResolver(DefaultResolverConfig())
	r.Train(site, trainTime, webpage.PhoneSmall)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	hs := r.HintsFor(sn.Root, sn.RootResource().Body, webpage.PhoneSmall)
	got := hintURLs(hs)
	for _, res := range sn.Ordered() {
		key := res.URL.String()
		if _, hinted := got[key]; hinted && res.InIframe {
			t.Errorf("iframe descendant hinted by root server: %s", key)
		}
	}
	// The iframe documents themselves are hintable (visible in the root
	// HTML).
	foundIframe := false
	for u, p := range got {
		if res, ok := sn.LookupString(u); ok && res.Type == webpage.HTML {
			foundIframe = true
			if p != hints.Low {
				t.Errorf("iframe %s hinted with priority %v, want low", u, p)
			}
		}
	}
	if !foundIframe {
		t.Error("no iframe URL hinted at all")
	}
}

func TestHintsExcludeVolatile(t *testing.T) {
	site := newsSite(6)
	r := NewResolver(DefaultResolverConfig())
	r.Train(site, trainTime, webpage.PhoneSmall)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	got := hintURLs(r.HintsFor(sn.Root, sn.RootResource().Body, webpage.PhoneSmall))
	for _, res := range sn.Ordered() {
		if res.Unpredictable && !res.InIframe {
			if _, hinted := got[res.URL.String()]; hinted {
				// Volatile resources referenced directly in the served
				// HTML are fine (online analysis sees them); deeper
				// volatile ones must not be hinted.
				if res.Parent != sn.Root.String() {
					t.Errorf("deep volatile resource hinted: %s", res.URL)
				}
			}
		}
	}
}

func TestHintPriorities(t *testing.T) {
	site := newsSite(7)
	r := NewResolver(DefaultResolverConfig())
	r.Train(site, trainTime, webpage.PhoneSmall)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	got := hintURLs(r.HintsFor(sn.Root, sn.RootResource().Body, webpage.PhoneSmall))
	for u, p := range got {
		res, ok := sn.LookupString(u)
		if !ok {
			continue
		}
		switch res.Type {
		case webpage.CSS:
			if p != hints.High {
				t.Errorf("css %s priority %v", u, p)
			}
		case webpage.JS:
			if res.Async && p != hints.Semi {
				t.Errorf("async js %s priority %v", u, p)
			}
			if !res.Async && !res.InIframe && p == hints.Low {
				t.Errorf("sync js %s priority low", u)
			}
		case webpage.Image, webpage.Font, webpage.JSON:
			if p != hints.Low {
				t.Errorf("%s %s priority %v", res.Type, u, p)
			}
		}
	}
}

func TestHighHintsPrecedeAndKeepProcessingOrder(t *testing.T) {
	site := newsSite(8)
	r := NewResolver(DefaultResolverConfig())
	r.Train(site, trainTime, webpage.PhoneSmall)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	hs := r.HintsFor(sn.Root, sn.RootResource().Body, webpage.PhoneSmall)
	lastPriority := hints.High
	for _, h := range hs {
		if h.Priority < lastPriority {
			t.Fatal("hints not sorted by priority")
		}
		lastPriority = h.Priority
	}
}

func TestOfflineOnlyMissesFreshContent(t *testing.T) {
	site := newsSite(9)
	cfg := DefaultResolverConfig()
	cfg.UseOnline = false
	offline := NewResolver(cfg)
	offline.Train(site, trainTime, webpage.PhoneSmall)
	full := NewResolver(DefaultResolverConfig())
	full.Train(site, trainTime, webpage.PhoneSmall)

	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	offGot := hintURLs(offline.HintsFor(sn.Root, sn.RootResource().Body, webpage.PhoneSmall))
	fullGot := hintURLs(full.HintsFor(sn.Root, sn.RootResource().Body, webpage.PhoneSmall))

	// Hourly-rotated resources in the root HTML are visible to online
	// analysis but cannot be in the offline stable set.
	freshInHTML := 0
	for _, res := range sn.Ordered() {
		if res.Persist == webpage.Hourly && res.Parent == sn.Root.String() {
			key := res.URL.String()
			if _, ok := fullGot[key]; !ok {
				t.Errorf("online analysis missed fresh resource %s", key)
			}
			if _, ok := offGot[key]; ok {
				t.Errorf("offline-only claims fresh resource %s", key)
			}
			freshInHTML++
		}
	}
	if freshInHTML == 0 {
		t.Fatal("degenerate test: no fresh hourly resources in root HTML")
	}
	if len(offGot) >= len(fullGot) {
		t.Errorf("offline-only (%d) should return fewer hints than vroom (%d)", len(offGot), len(fullGot))
	}
}

func TestSingleLoadIncludesStaleVolatile(t *testing.T) {
	site := newsSite(10)
	cfg := DefaultResolverConfig()
	cfg.SingleLoad = true
	cfg.UseOnline = false
	r := NewResolver(cfg)
	r.Train(site, trainTime, webpage.PhoneSmall)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	got := hintURLs(r.HintsFor(sn.Root, "", webpage.PhoneSmall))
	stale := 0
	for u := range got {
		if _, ok := sn.LookupString(u); !ok {
			stale++
		}
	}
	if stale == 0 {
		t.Error("deps-from-previous-load returned no stale URLs; volatile content should leak through")
	}
}

func TestIntersection(t *testing.T) {
	mkDep := func(p string) Dep {
		return Dep{URL: urlutil.MustParse("https://a.com" + p)}
	}
	lists := [][]Dep{
		{mkDep("/1"), mkDep("/2"), mkDep("/3")},
		{mkDep("/2"), mkDep("/3"), mkDep("/4")},
		{mkDep("/3"), mkDep("/2")},
	}
	got := intersect(lists)
	if len(got) != 2 || got[0].URL.Path != "/2" || got[1].URL.Path != "/3" {
		t.Fatalf("intersect = %v", got)
	}
	if out := intersect(nil); out != nil {
		t.Fatalf("intersect(nil) = %v", out)
	}
}

func TestPushSetSameOriginHighOnly(t *testing.T) {
	origin := urlutil.MustParse("https://www.a.com/")
	hs := []hints.Hint{
		{URL: urlutil.MustParse("https://www.a.com/app.js"), Priority: hints.High},
		{URL: urlutil.MustParse("https://www.a.com/img.jpg"), Priority: hints.Low},
		{URL: urlutil.MustParse("https://cdn.b.com/lib.js"), Priority: hints.High},
	}
	got := PushSet(hs, origin, false)
	if len(got) != 1 || got[0].Path != "/app.js" {
		t.Fatalf("PushSet = %v", got)
	}
	all := PushSet(hs, origin, true)
	if len(all) != 2 {
		t.Fatalf("PushSet allLocal = %v", all)
	}
	for _, u := range all {
		if !strings.HasSuffix(u.Host, "a.com") {
			t.Errorf("cross-origin push selected: %s", u)
		}
	}
}

func TestDeviceClassesTrainedSeparately(t *testing.T) {
	site := webpage.NewSite("devices", webpage.Top100, 11)
	r := NewResolver(DefaultResolverConfig())
	r.Train(site, trainTime, webpage.PhoneSmall)
	r.Train(site, trainTime, webpage.Tablet)
	phone := r.Stable(site.RootURL(), webpage.PhoneSmall)
	tablet := r.Stable(site.RootURL(), webpage.Tablet)
	if len(phone) == 0 || len(tablet) == 0 {
		t.Fatal("empty stable sets")
	}
	pset := map[string]bool{}
	for _, d := range phone {
		pset[d.URL.String()] = true
	}
	diff := 0
	for _, d := range tablet {
		if !pset[d.URL.String()] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("tablet stable set identical to phone; device variants lost")
	}
}

func TestDocDepsStopsAtEmbeddedHTML(t *testing.T) {
	site := newsSite(12)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 9}, 1)
	deps := DocDeps(sn, sn.RootResource())
	if len(deps) == 0 {
		t.Fatal("no deps")
	}
	for _, d := range deps {
		res, ok := sn.LookupString(d.URL.String())
		if ok && res.InIframe {
			t.Errorf("DocDeps descended into iframe: %s", d.URL)
		}
	}
}
