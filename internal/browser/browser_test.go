package browser

import (
	"testing"
	"time"

	"vroom/internal/event"
	"vroom/internal/hints"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

var t0 = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

// fakeTransport serves a snapshot with a fixed per-resource delay on the
// event engine; no bandwidth modeling.
type fakeTransport struct {
	eng   *event.Engine
	sn    *webpage.Snapshot
	delay time.Duration
	// perURL overrides the delay for specific URLs.
	perURL map[string]time.Duration
	// log records fetch issue order.
	log []string
}

func (ft *fakeTransport) Fetch(u urlutil.URL, started func(), done func(*Fetched)) func() {
	ft.log = append(ft.log, u.String())
	d := ft.delay
	if o, ok := ft.perURL[u.String()]; ok {
		d = o
	}
	ft.eng.ScheduleAfter(d, "fake-fetch", func() {
		res, ok := ft.sn.Lookup(u)
		if !ok {
			done(&Fetched{URL: u, Res: nil, Size: 1200})
			return
		}
		done(&Fetched{URL: u, Res: res, Size: res.Size})
	})
	return nil
}

func loadSite(t *testing.T, cfg Config, sched Scheduler, delay time.Duration) (*Load, *fakeTransport) {
	t.Helper()
	site := webpage.NewSite("browsertest", webpage.Top100, 33)
	sn := site.Snapshot(t0, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	eng := event.New(t0)
	ft := &fakeTransport{eng: eng, sn: sn, delay: delay, perURL: map[string]time.Duration{}}
	l := NewLoad(eng, ft, cfg, sched, site.RootURL())
	l.Start()
	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatalf("load did not finish: %s", l)
	}
	return l, ft
}

func TestLoadCompletesAndCoversSnapshot(t *testing.T) {
	l, ft := loadSite(t, Config{}, nil, 50*time.Millisecond)
	res := l.Result()
	if res.PLT <= 0 {
		t.Fatal("no PLT")
	}
	want := webpage.CrawlURLSet(ft.sn)
	got := map[string]bool{}
	for _, e := range l.Entries() {
		if e.Required && e.State == StateProcessed {
			got[e.URL.String()] = true
		}
	}
	for u := range want {
		if !got[u] {
			t.Errorf("crawlable resource not loaded: %s", u)
		}
	}
	if res.NumRequired != len(want) {
		t.Errorf("NumRequired = %d, crawl set %d", res.NumRequired, len(want))
	}
}

func TestZeroNetworkIsCPUBound(t *testing.T) {
	l, _ := loadSite(t, Config{}, nil, 0)
	res := l.Result()
	if res.IdleFrac > 0.05 {
		t.Errorf("idle fraction %.2f with instant network", res.IdleFrac)
	}
}

func TestNoProcessingIsNetworkBound(t *testing.T) {
	l, _ := loadSite(t, Config{NoProcessing: true}, nil, 30*time.Millisecond)
	res := l.Result()
	if res.CPUBusy != 0 {
		t.Errorf("CPU busy %v with NoProcessing", res.CPUBusy)
	}
}

func TestSlowNetworkIncreasesIdle(t *testing.T) {
	fastL, _ := loadSite(t, Config{}, nil, 5*time.Millisecond)
	slowL, _ := loadSite(t, Config{}, nil, 300*time.Millisecond)
	fast, slow := fastL.Result(), slowL.Result()
	if slow.PLT <= fast.PLT {
		t.Errorf("slower network did not slow load: %v vs %v", slow.PLT, fast.PLT)
	}
	if slow.IdleFrac <= fast.IdleFrac {
		t.Errorf("idle fraction did not grow: %.2f vs %.2f", slow.IdleFrac, fast.IdleFrac)
	}
}

func TestCPUScaleSpeedsLoad(t *testing.T) {
	phoneL, _ := loadSite(t, Config{}, nil, 20*time.Millisecond)
	desktopL, _ := loadSite(t, Config{CPUScale: 8}, nil, 20*time.Millisecond)
	if desktopL.Result().PLT >= phoneL.Result().PLT {
		t.Errorf("8x CPU not faster: %v vs %v", desktopL.Result().PLT, phoneL.Result().PLT)
	}
}

func TestSyncScriptBlocksCriticalPath(t *testing.T) {
	// Delay exactly one synchronous head script massively; PLT must absorb
	// it (the parser stalls), demonstrating the CPU/network coupling.
	site := webpage.NewSite("browsertest", webpage.Top100, 33)
	sn := site.Snapshot(t0, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	var syncJS string
	for _, r := range sn.Ordered() {
		if r.Type == webpage.JS && !r.Async && !r.InIframe && !r.ParserBlocking {
			syncJS = r.URL.String()
			break
		}
	}
	if syncJS == "" {
		t.Skip("no sync script in generated site")
	}
	run := func(extra time.Duration) time.Duration {
		eng := event.New(t0)
		ft := &fakeTransport{eng: eng, sn: sn, delay: 10 * time.Millisecond,
			perURL: map[string]time.Duration{syncJS: extra}}
		l := NewLoad(eng, ft, Config{}, nil, site.RootURL())
		l.Start()
		if _, err := eng.Run(3_000_000); err != nil {
			t.Fatal(err)
		}
		if !l.Finished() {
			t.Fatal("unfinished")
		}
		return l.Result().PLT
	}
	base := run(10 * time.Millisecond)
	delayed := run(3 * time.Second)
	if delayed < base+2*time.Second {
		t.Errorf("sync script delay not on critical path: %v vs %v", delayed, base)
	}
}

func TestCacheHitsSkipNetwork(t *testing.T) {
	cache := NewCache()
	l1, ft1 := loadSite(t, Config{Cache: cache}, nil, 40*time.Millisecond)
	if len(cache.entries) == 0 {
		t.Fatal("nothing cached after first load")
	}
	_ = l1
	// Second load, same snapshot: cached fetches bypass the transport.
	eng := event.New(t0.Add(time.Minute))
	ft := &fakeTransport{eng: eng, sn: ft1.sn, delay: 40 * time.Millisecond, perURL: map[string]time.Duration{}}
	l2 := NewLoad(eng, ft, Config{Cache: cache}, nil, ft1.sn.Root)
	l2.Start()
	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l2.Finished() {
		t.Fatal("unfinished warm load")
	}
	if len(ft.log) >= len(ft1.log) {
		t.Errorf("warm load fetched %d vs cold %d", len(ft.log), len(ft1.log))
	}
	if l2.Result().PLT >= l1.Result().PLT {
		t.Errorf("warm load not faster: %v vs %v", l2.Result().PLT, l1.Result().PLT)
	}
}

func TestPushAvoidsDuplicateRequest(t *testing.T) {
	site := webpage.NewSite("browsertest", webpage.Top100, 33)
	sn := site.Snapshot(t0, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	eng := event.New(t0)
	ft := &fakeTransport{eng: eng, sn: sn, delay: 30 * time.Millisecond, perURL: map[string]time.Duration{}}
	l := NewLoad(eng, ft, Config{}, nil, site.RootURL())

	// Find a stylesheet to push.
	var css *webpage.Resource
	for _, r := range sn.Ordered() {
		if r.Type == webpage.CSS {
			css = r
			break
		}
	}
	if css == nil {
		t.Skip("no css")
	}
	l.Start()
	l.PushPromise(css.URL)
	eng.ScheduleAfter(5*time.Millisecond, "push-body", func() {
		l.PushArrived(&Fetched{URL: css.URL, Res: css, Size: css.Size, Pushed: true})
	})
	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatal("unfinished")
	}
	for _, u := range ft.log {
		if u == css.URL.String() {
			t.Fatal("browser requested a pushed resource")
		}
	}
	e := l.Entry(css.URL)
	if !e.Pushed || e.State != StateProcessed {
		t.Fatalf("pushed entry state: %+v", e)
	}
	if o := l.Outcome(e); !o.Pushed || !o.Claimed {
		t.Fatalf("a pushed stylesheet the page required settles unclaimed: %+v", o)
	}
}

// TestLatePushSettlesWasted pushes a stylesheet after the page fetched it
// itself: the push is pushed but never claimed, so its bytes are wasted.
func TestLatePushSettlesWasted(t *testing.T) {
	l, ft := loadSite(t, Config{}, nil, 30*time.Millisecond)
	var css *webpage.Resource
	for _, r := range ft.sn.Ordered() {
		if r.Type == webpage.CSS {
			css = r
			break
		}
	}
	if css == nil {
		t.Skip("no css")
	}
	if got := l.Result().WastedPushBytes; got != 0 {
		t.Fatalf("no push yet, %d wasted push bytes", got)
	}
	l.PushArrived(&Fetched{URL: css.URL, Res: css, Size: css.Size, Pushed: true})
	if o := l.Outcome(l.Entry(css.URL)); !o.Pushed || o.Claimed || !o.Required {
		t.Fatalf("late push outcome: %+v", o)
	}
	if got := l.Result().WastedPushBytes; got != int64(css.Size) {
		t.Fatalf("late push wasted %d bytes, want %d", got, css.Size)
	}
}

func TestHintsPrefetchSpeculative(t *testing.T) {
	site := webpage.NewSite("browsertest", webpage.Top100, 33)
	sn := site.Snapshot(t0, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	eng := event.New(t0)
	ft := &fakeTransport{eng: eng, sn: sn, delay: 30 * time.Millisecond, perURL: map[string]time.Duration{}}
	l := NewLoad(eng, ft, Config{}, &FetchASAP{FollowHints: true}, site.RootURL())
	l.Start()
	// Hint a URL the page never references.
	stale := urlutil.MustParse("https://static.browsertest.com/js/gone-123.js")
	l.Hint(hints.Hint{URL: stale, Priority: hints.High})
	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatal("speculative fetch blocked onload")
	}
	res := l.Result()
	if res.WastedBytes == 0 {
		t.Error("stale hint fetch not counted as waste")
	}
}

func TestVisualMetrics(t *testing.T) {
	l, _ := loadSite(t, Config{}, nil, 30*time.Millisecond)
	res := l.Result()
	if res.AFT <= 0 || res.AFT > res.PLT {
		t.Errorf("AFT %v outside (0, PLT=%v]", res.AFT, res.PLT)
	}
	if res.SpeedIndex <= 0 || res.SpeedIndex > float64(res.PLT.Milliseconds()) {
		t.Errorf("SpeedIndex %.0f outside (0, %d]", res.SpeedIndex, res.PLT.Milliseconds())
	}
}

func TestCostsMonotonicInSize(t *testing.T) {
	c := MobileCosts()
	for _, typ := range []webpage.ResourceType{webpage.HTML, webpage.CSS, webpage.JS, webpage.Image, webpage.JSON} {
		if c.For(typ, 100_000) <= c.For(typ, 1_000) {
			t.Errorf("%v cost not monotonic", typ)
		}
	}
}

func TestCacheExpiry(t *testing.T) {
	cache := NewCache()
	res := &webpage.Resource{Cacheable: true, TTL: time.Hour}
	cache.Put("u", res, t0)
	if !cache.Fresh("u", t0.Add(30*time.Minute)) {
		t.Error("entry expired early")
	}
	if cache.Fresh("u", t0.Add(2*time.Hour)) {
		t.Error("entry served after TTL")
	}
	cache.Put("nc", &webpage.Resource{Cacheable: false}, t0)
	if cache.Fresh("nc", t0) {
		t.Error("uncacheable entry stored")
	}
}
