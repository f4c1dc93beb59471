package server

import (
	"testing"
	"time"

	"vroom/internal/browser"
	"vroom/internal/core"
	"vroom/internal/event"
	"vroom/internal/netsim"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

var t0 = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

type env struct {
	eng  *event.Engine
	net  *netsim.Net
	farm *Farm
	load *browser.Load
	sn   *webpage.Snapshot
}

func setup(t *testing.T, pol Policy, sched browser.Scheduler) *env {
	t.Helper()
	site := webpage.NewSite("servertest", webpage.News, 44)
	sn := site.Snapshot(t0, webpage.Profile{Device: webpage.PhoneSmall, UserID: 3}, 1)
	eng := event.New(t0)
	net := netsim.New(eng, netsim.LTEDefaults(netsim.HTTP2))
	resolver := core.NewResolver(core.DefaultResolverConfig())
	resolver.Train(site, t0, webpage.PhoneSmall)
	farm := NewFarm(net, sn, resolver, pol, DefaultConfig())
	load := browser.NewLoad(eng, farm, browser.Config{}, sched, site.RootURL())
	farm.Attach(load, nil)
	return &env{eng: eng, net: net, farm: farm, load: load, sn: sn}
}

func (e *env) run(t *testing.T) browser.Result {
	t.Helper()
	e.load.Start()
	if _, err := e.eng.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if !e.load.Finished() {
		t.Fatalf("load unfinished: %s", e.load)
	}
	return e.load.Result()
}

func TestPlainServingCompletes(t *testing.T) {
	e := setup(t, Policy{}, nil)
	res := e.run(t)
	if res.NumRequired == 0 || res.PLT <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	// No hints, no pushes under the plain policy.
	for _, rt := range res.Resources {
		if rt.Pushed {
			t.Errorf("pushed without a push policy: %s", rt.URL)
		}
	}
}

// vroomPolicy is the full design: hints, high-priority local push, online
// analysis and cache awareness.
var vroomPolicy = Policy{SendHints: true, Push: PushHighPriorityLocal, OnlineAnalysis: true, CacheAware: true}

func TestVroomPolicyPushesOnlySameOriginHigh(t *testing.T) {
	e := setup(t, vroomPolicy, core.NewStagedScheduler())
	res := e.run(t)
	pushes := 0
	for _, rt := range res.Resources {
		if !rt.Pushed {
			continue
		}
		pushes++
		u, err := urlutil.Parse(rt.URL)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := e.sn.Lookup(u)
		if !ok {
			t.Errorf("pushed unknown resource %s", rt.URL)
			continue
		}
		if !r.Type.NeedsProcessing() {
			t.Errorf("pushed low-priority resource %s (%s)", rt.URL, r.Type)
		}
	}
	if pushes == 0 {
		t.Error("vroom policy pushed nothing")
	}
}

func TestLookupFallsBackToArchive(t *testing.T) {
	site := webpage.NewSite("servertest", webpage.News, 44)
	old := site.Snapshot(t0.Add(-time.Hour), webpage.Profile{Device: webpage.PhoneSmall, UserID: 3}, 7)
	e := setup(t, Policy{}, nil)
	e.farm.Archive = append(e.farm.Archive, old)
	// A URL only in the old snapshot must resolve via the archive.
	var oldOnly urlutil.URL
	for _, r := range old.Ordered() {
		if _, inCurrent := e.sn.Lookup(r.URL); !inCurrent {
			oldOnly = r.URL
			break
		}
	}
	if oldOnly == (urlutil.URL{}) {
		t.Skip("no old-only resource")
	}
	if _, ok := e.farm.Lookup(oldOnly); !ok {
		t.Fatalf("archive lookup failed for %s", oldOnly)
	}
}

func TestUnknownURLServesErrorBody(t *testing.T) {
	e := setup(t, Policy{}, nil)
	done := false
	stale := urlutil.MustParse("https://static.servertest.com/js/nope-00.js")
	e.farm.Fetch(stale, nil, func(f *browser.Fetched) {
		done = true
		if f.Res != nil {
			t.Error("stale URL returned content")
		}
		if f.Size != DefaultConfig().ErrorSize {
			t.Errorf("error body size %d", f.Size)
		}
	})
	if _, err := e.eng.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("no response for stale URL")
	}
}

func TestIncrementalAdoptionScopesHints(t *testing.T) {
	pol := vroomPolicy
	pol.Compliant = func(host string) bool { return urlutil.RegistrableDomain(host) == "servertest.com" }
	e := setup(t, pol, core.NewStagedScheduler())
	res := e.run(t)
	for _, rt := range res.Resources {
		if !rt.Pushed {
			continue
		}
		u, _ := urlutil.Parse(rt.URL)
		if urlutil.RegistrableDomain(u.Host) != "servertest.com" {
			t.Errorf("non-compliant domain pushed: %s", rt.URL)
		}
	}
}

func TestCacheAwarePushSkipsCachedContent(t *testing.T) {
	cache := browser.NewCache()
	// First load warms the cache.
	site := webpage.NewSite("servertest", webpage.News, 44)
	run := func(nonce uint64) browser.Result {
		sn := site.Snapshot(t0, webpage.Profile{Device: webpage.PhoneSmall, UserID: 3}, nonce)
		eng := event.New(t0)
		net := netsim.New(eng, netsim.LTEDefaults(netsim.HTTP2))
		resolver := core.NewResolver(core.DefaultResolverConfig())
		resolver.Train(site, t0, webpage.PhoneSmall)
		farm := NewFarm(net, sn, resolver, vroomPolicy, DefaultConfig())
		load := browser.NewLoad(eng, farm, browser.Config{Cache: cache}, core.NewStagedScheduler(), site.RootURL())
		farm.Attach(load, cache)
		load.Start()
		if _, err := eng.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		if !load.Finished() {
			t.Fatal("unfinished")
		}
		return load.Result()
	}
	cold := run(1)
	// Pushed resources that entered the cache must not be pushed again on
	// the warm load.
	cachedPushed := map[string]bool{}
	coldPushes := 0
	for _, rt := range cold.Resources {
		if rt.Pushed {
			coldPushes++
			if cache.Fresh(rt.URL, t0) {
				cachedPushed[rt.URL] = true
			}
		}
	}
	if coldPushes == 0 {
		t.Fatal("no pushes on cold load")
	}
	if len(cachedPushed) == 0 {
		t.Skip("no pushed resource was cacheable on this site")
	}
	warm := run(2)
	for _, rt := range warm.Resources {
		if rt.Pushed && cachedPushed[rt.URL] {
			t.Errorf("cached resource pushed again: %s", rt.URL)
		}
	}
}

func TestOnlineAnalysisAddsThinkTime(t *testing.T) {
	plain := setup(t, Policy{}, nil)
	plainRes := plain.run(t)

	withParse := setup(t, Policy{SendHints: true, OnlineAnalysis: true}, nil)
	parseRes := withParse.run(t)

	// The HTML response must arrive later when the server parses it
	// on the fly (§4.1.2's ~100 ms overhead) — compare root arrivals.
	rootArrival := func(r browser.Result, root string) time.Duration {
		for _, rt := range r.Resources {
			if rt.URL == root {
				return rt.ArrivedAt
			}
		}
		return 0
	}
	root := plain.sn.Root.String()
	a, b := rootArrival(plainRes, root), rootArrival(parseRes, root)
	if b <= a {
		t.Errorf("online analysis added no delay: %v vs %v", b, a)
	}
}

func TestRevalidation304(t *testing.T) {
	site := webpage.NewSite("revalidate", webpage.Top100, 321)
	cache := browser.NewCache()
	run := func(at time.Time, nonce uint64) browser.Result {
		sn := site.Snapshot(at, webpage.Profile{Device: webpage.PhoneSmall, UserID: 3}, nonce)
		eng := event.New(at)
		net := netsim.New(eng, netsim.LTEDefaults(netsim.HTTP2))
		resolver := core.NewResolver(core.DefaultResolverConfig())
		farm := NewFarm(net, sn, resolver, Policy{}, DefaultConfig())
		load := browser.NewLoad(eng, farm, browser.Config{Cache: cache}, nil, site.RootURL())
		farm.Attach(load, cache)
		load.Start()
		if _, err := eng.Run(5_000_000); err != nil {
			t.Fatal(err)
		}
		if !load.Finished() {
			t.Fatal("unfinished")
		}
		return load.Result()
	}
	cold := run(t0, 1)
	// A day later: short-TTL stable assets are expired but unchanged, so
	// they revalidate with tiny 304 responses instead of full bodies.
	warm := run(t0.Add(24*time.Hour), 2)
	if warm.BytesFetched >= cold.BytesFetched {
		t.Fatalf("revalidated load not lighter: %d vs %d bytes", warm.BytesFetched, cold.BytesFetched)
	}
	reval := 0
	for _, rt := range warm.Resources {
		if rt.Required && rt.Size > 0 && rt.Size <= 256 {
			reval++
		}
	}
	if reval == 0 {
		t.Error("no 304-sized responses on the day-later load")
	}
}
