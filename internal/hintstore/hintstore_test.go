package hintstore

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vroom/internal/core"
	"vroom/internal/hints"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

var testEpoch = time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)

// fakeClock is a manually-advanced clock shared by a store under test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: testEpoch} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// trainedResolver builds one real resolver over a generated site.
func trainedResolver(t testing.TB, site *webpage.Site) *core.Resolver {
	t.Helper()
	r := core.NewResolver(core.DefaultResolverConfig())
	r.Train(site, testEpoch, webpage.PhoneSmall)
	return r
}

func TestRegisterAndLookupFresh(t *testing.T) {
	site := webpage.NewSite("storefresh", webpage.News, 2017)
	clock := newFakeClock()
	st := New(Config{Clock: clock.Now})
	defer st.Drain(time.Second)

	r := trainedResolver(t, site)
	root := site.RootURL()
	if err := st.Register(root.Host, webpage.PhoneSmall, StaticTrainer(r)); err != nil {
		t.Fatal(err)
	}
	if !st.Ready() {
		t.Fatal("store not ready after synchronous register")
	}

	sn := site.Snapshot(testEpoch, webpage.Profile{Device: webpage.PhoneSmall}, 1)
	body := sn.RootResource().Body
	hs, res := st.Lookup(root, body)
	if res.Source != Fresh {
		t.Fatalf("source = %v, want fresh", res.Source)
	}
	if res.Version != 1 {
		t.Fatalf("version = %d, want 1", res.Version)
	}
	if len(hs) == 0 {
		t.Fatal("no hints from a trained tenant")
	}
	want := r.HintsFor(root, body, webpage.PhoneSmall)
	if len(hs) != len(want) {
		t.Fatalf("store hints = %d, direct hints = %d", len(hs), len(want))
	}
}

func TestLookupMissForUnknownOrigin(t *testing.T) {
	st := New(Config{})
	defer st.Drain(time.Second)
	u, _ := parseURL(t, "https://nobody.example/")
	hs, res := st.Lookup(u, "")
	if res.Source != Miss || hs != nil {
		t.Fatalf("unknown origin: hints=%v source=%v, want nil/miss", hs, res.Source)
	}
}

func TestStaleWhileRevalidateThenShed(t *testing.T) {
	site := webpage.NewSite("storestale", webpage.News, 2017)
	clock := newFakeClock()
	// No workers pulling the queue fast: use a trainer gate so the retrain
	// publishes only when the test allows it.
	release := make(chan struct{})
	var retrains atomic.Int64
	r := trainedResolver(t, site)
	tr := func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		retrains.Add(1)
		select {
		case <-release:
		case <-cancel:
			return nil, ErrClosed
		}
		return r, nil
	}
	st := New(Config{TTL: time.Hour, MaxStale: 3 * time.Hour, Clock: clock.Now})
	defer st.Drain(time.Second)

	root := site.RootURL()
	// First training happens synchronously and must not need the gate.
	regDone := make(chan error, 1)
	go func() { regDone <- st.Register(root.Host, webpage.PhoneSmall, tr) }()
	release <- struct{}{}
	if err := <-regDone; err != nil {
		t.Fatal(err)
	}

	sn := site.Snapshot(testEpoch, webpage.Profile{Device: webpage.PhoneSmall}, 1)
	body := sn.RootResource().Body

	// Inside TTL: fresh.
	if _, res := st.Lookup(root, body); res.Source != Fresh {
		t.Fatalf("source = %v, want fresh", res.Source)
	}

	// Past TTL, inside MaxStale: stale-but-served, retrain scheduled.
	clock.Advance(2 * time.Hour)
	hs, res := st.Lookup(root, body)
	if res.Source != Stale {
		t.Fatalf("source = %v, want stale", res.Source)
	}
	if len(hs) == 0 {
		t.Fatal("stale lookup served no hints")
	}
	if res.Age < 2*time.Hour {
		t.Fatalf("age = %v, want >= 2h", res.Age)
	}

	// The scheduled retrain is blocked on the gate; further stale lookups
	// must not pile up more retrains (singleflight per shard).
	for i := 0; i < 5; i++ {
		st.Lookup(root, body)
	}

	// Past MaxStale: hints are shed, response-side unaffected.
	clock.Advance(2 * time.Hour)
	hs, res = st.Lookup(root, body)
	if res.Source != Shed || hs != nil {
		t.Fatalf("past max-stale: hints=%d source=%v, want nil/shed", len(hs), res.Source)
	}

	// Let the background retrain finish and publish; lookups turn fresh.
	release <- struct{}{}
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, res = st.Lookup(root, body)
		if res.Source == Fresh {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain never published: source=%v", res.Source)
		}
		time.Sleep(time.Millisecond)
	}
	if res.Version != 2 {
		t.Fatalf("retrained version = %d, want 2", res.Version)
	}
	if got := retrains.Load(); got != 2 { // initial + one background
		t.Fatalf("trainer ran %d times, want 2", got)
	}
}

func TestLRUEvictionPastMaxTenants(t *testing.T) {
	clock := newFakeClock()
	st := New(Config{MaxTenants: 2, Clock: clock.Now})
	defer st.Drain(time.Second)

	siteA := webpage.NewSite("storelrua", webpage.News, 1)
	siteB := webpage.NewSite("storelrub", webpage.Sports, 2)
	siteC := webpage.NewSite("storelruc", webpage.Shopping, 3)
	for _, s := range []*webpage.Site{siteA, siteB} {
		if err := st.Register(s.RootURL().Host, webpage.PhoneSmall, StaticTrainer(trainedResolver(t, s))); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Minute)
	}
	// Touch A so B becomes the coldest.
	st.Lookup(siteA.RootURL(), "")
	clock.Advance(time.Minute)

	if err := st.Register(siteC.RootURL().Host, webpage.PhoneSmall, StaticTrainer(trainedResolver(t, siteC))); err != nil {
		t.Fatal(err)
	}
	if n := st.Tenants(); n != 2 {
		t.Fatalf("tenants = %d, want 2", n)
	}
	if _, res := st.Lookup(siteB.RootURL(), ""); res.Source != Miss {
		t.Fatalf("coldest tenant not evicted: source = %v", res.Source)
	}
	if _, res := st.Lookup(siteA.RootURL(), ""); res.Source != Fresh {
		t.Fatalf("warm tenant evicted: source = %v", res.Source)
	}
}

func TestDrainCancelsRetrainAndCheckpoints(t *testing.T) {
	site := webpage.NewSite("storedrain", webpage.News, 2017)
	clock := newFakeClock()
	r := trainedResolver(t, site)
	started := make(chan struct{}, 1)
	var calls atomic.Int64
	tr := func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		if calls.Add(1) == 1 {
			return r, nil // synchronous warmup
		}
		started <- struct{}{}
		<-cancel // a slow retrain that only ends when drained
		return nil, ErrClosed
	}
	st := New(Config{TTL: time.Hour, Clock: clock.Now})
	root := site.RootURL()
	if err := st.Register(root.Host, webpage.PhoneSmall, tr); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	st.Lookup(root, "") // schedules the blocking retrain
	<-started

	done := make(chan []Checkpoint, 1)
	go func() { done <- st.Drain(5 * time.Second) }()
	select {
	case cps := <-done:
		if len(cps) != 1 {
			t.Fatalf("checkpoints = %d, want 1", len(cps))
		}
		cp := cps[0]
		if cp.Origin != root.Host || cp.Version != 1 {
			t.Fatalf("checkpoint = %+v, want origin %s version 1", cp, root.Host)
		}
		if cp.Lookups == 0 {
			t.Fatal("checkpoint lost the lookup count")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain hung on an in-flight retrain")
	}

	if err := st.Register("late.example", webpage.PhoneSmall, StaticTrainer(r)); !errors.Is(err, ErrClosed) {
		t.Fatalf("register after drain: err = %v, want ErrClosed", err)
	}
	// Lookups still serve read-only from the last table during connection
	// drain.
	if _, res := st.Lookup(root, ""); res.Version != 1 {
		t.Fatalf("post-drain lookup version = %d, want 1", res.Version)
	}
}

func TestTrainerErrorKeepsOldTable(t *testing.T) {
	site := webpage.NewSite("storeerr", webpage.News, 2017)
	clock := newFakeClock()
	r := trainedResolver(t, site)
	var calls atomic.Int64
	tr := func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		if calls.Add(1) == 1 {
			return r, nil
		}
		return nil, errors.New("crawler exploded")
	}
	st := New(Config{TTL: time.Hour, Clock: clock.Now})
	defer st.Drain(time.Second)
	root := site.RootURL()
	if err := st.Register(root.Host, webpage.PhoneSmall, tr); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Hour)
	st.Lookup(root, "")
	// Wait for the failing retrain to run and clear the singleflight flag.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("retrain never ran")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if _, res := st.Lookup(root, ""); res.Version != 1 || res.Source != Stale {
		t.Fatalf("after failed retrain: version=%d source=%v, want 1/stale", res.Version, res.Source)
	}
}

// TestRCUSwapNeverTornUnderRace is the tentpole invariant: lookups racing
// repeated table swaps must always see a version-consistent hint set —
// exactly the hints the published resolver of that version produces for
// the bytes presented, never a mix — and must never block on a swap. Two
// renderings of the same document alternate, so the tables' answer memos
// are hit, replaced and raced the whole time: an answer memoized for one
// body or one version must never come back for another.
func TestRCUSwapNeverTornUnderRace(t *testing.T) {
	site := webpage.NewSite("storercu", webpage.News, 2017)
	clock := newFakeClock()
	root := site.RootURL()
	bodies := make([]string, 2)
	for i := range bodies {
		at := testEpoch.Add(time.Duration(i) * 400 * time.Hour)
		bodies[i] = site.Snapshot(at, webpage.Profile{Device: webpage.PhoneSmall}, 1).RootResource().Body
	}

	// Two distinct resolvers: trained at epochs far apart so their hint
	// sets differ; the trainer alternates between them every publish.
	rA := core.NewResolver(core.DefaultResolverConfig())
	rA.Train(site, testEpoch, webpage.PhoneSmall)
	rB := core.NewResolver(core.DefaultResolverConfig())
	rB.Train(site, testEpoch.Add(400*time.Hour), webpage.PhoneSmall)
	// want[version parity][body] is the direct resolution.
	var want [2][2][]hints.Hint
	for i, body := range bodies {
		want[1][i] = rA.HintsFor(root, body, webpage.PhoneSmall)
		want[0][i] = rB.HintsFor(root, body, webpage.PhoneSmall)
	}
	if reflect.DeepEqual(want[1][0], want[0][0]) || reflect.DeepEqual(want[1][0], want[1][1]) {
		t.Fatal("fixture: the resolvers or the bodies resolve to the same hints")
	}

	tr := func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		if version%2 == 1 {
			return rA, nil
		}
		return rB, nil
	}
	// TTL zero-ish: every lookup schedules a retrain, maximizing swap
	// pressure. MaxStale large so hints always serve.
	st := New(Config{TTL: time.Nanosecond, MaxStale: 1000 * time.Hour, Workers: 4, Clock: clock.Now})
	defer st.Drain(5 * time.Second)
	if err := st.Register(root.Host, webpage.PhoneSmall, tr); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go func() { // keep ages advancing so retrains keep firing
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(time.Second)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var torn, lookups, memoized atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				// Runs of one body, so lookups both hit and displace.
				b := (i + j/3) % len(bodies)
				ans, res := st.LookupAnswer(root, bodies[b])
				lookups.Add(1)
				if res.Source == Miss || ans == nil {
					t.Error("registered tenant produced a miss")
					return
				}
				if res.Memoized {
					memoized.Add(1)
				}
				w := want[res.Version%2][b]
				if !reflect.DeepEqual(ans.Hints, w) || !reflect.DeepEqual(ans.Headers, hints.Format(w)) {
					torn.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d of %d lookups saw an answer inconsistent with their version and body", n, lookups.Load())
	}
	if memoized.Load() == 0 {
		t.Error("no lookup was answered from a memo: the race never exercised it")
	}
}

func TestInstrumentCountsLookups(t *testing.T) {
	site := webpage.NewSite("storemetrics", webpage.News, 2017)
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	st := New(Config{TTL: time.Hour, Clock: clock.Now})
	st.Instrument(reg)
	defer st.Drain(time.Second)
	root := site.RootURL()
	if err := st.Register(root.Host, webpage.PhoneSmall, StaticTrainer(trainedResolver(t, site))); err != nil {
		t.Fatal(err)
	}
	st.Lookup(root, "")
	u, _ := parseURL(t, "https://nobody.example/")
	st.Lookup(u, "")
	if v := reg.Counter(metricLookups, telemetry.L("source", "fresh")).Value(); v != 1 {
		t.Fatalf("fresh counter = %d, want 1", v)
	}
	if v := reg.Counter(metricLookups, telemetry.L("source", "miss")).Value(); v != 1 {
		t.Fatalf("miss counter = %d, want 1", v)
	}
	if v := reg.Gauge(metricTenants).Value(); v != 1 {
		t.Fatalf("tenants gauge = %d, want 1", v)
	}
}

func parseURL(t testing.TB, raw string) (urlutil.URL, error) {
	t.Helper()
	u, err := urlutil.Parse(raw)
	if err != nil {
		t.Fatalf("parse %q: %v", raw, err)
	}
	return u, nil
}
