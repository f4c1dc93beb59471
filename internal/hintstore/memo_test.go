package hintstore

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vroom/internal/core"
	"vroom/internal/hints"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// memoLen reports how many documents origin's serving table has memoized.
func memoLen(st *Store, origin string) int {
	st.mu.RLock()
	sh := st.tenants[origin]
	st.mu.RUnlock()
	if m := sh.cur.Load().memo.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// versionedTrainer trains a fresh resolver per version, each a churn period
// (400 h) later than the last, and keeps them so a test can resolve
// directly against the resolver of the version that answered a lookup.
type versionedTrainer struct {
	site *webpage.Site
	mu   sync.Mutex
	byV  map[uint64]*core.Resolver
}

func (vt *versionedTrainer) train(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
	r := core.NewResolver(core.DefaultResolverConfig())
	r.Train(vt.site, testEpoch.Add(time.Duration(version)*400*time.Hour), webpage.PhoneSmall)
	vt.mu.Lock()
	vt.byV[version] = r
	vt.mu.Unlock()
	return r, nil
}

func (vt *versionedTrainer) resolver(version uint64) *core.Resolver {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	return vt.byV[version]
}

// personalizedFrame returns the site's first personalized HTML document (an
// ad frame: one URL whose content embeds the user's identity) as each of
// users is served it; ok is false when the site has none.
func personalizedFrame(site *webpage.Site, users ...int64) (doc urlutil.URL, bodies []string, ok bool) {
	for _, user := range users {
		sn := site.Snapshot(testEpoch, webpage.Profile{Device: webpage.PhoneSmall, UserID: user}, 1)
		found := false
		for _, res := range sn.Ordered() {
			if res.Type == webpage.HTML && res.Personalized {
				doc, found = res.URL, true
				bodies = append(bodies, res.Body)
				break
			}
		}
		if !found {
			return urlutil.URL{}, nil, false
		}
	}
	return doc, bodies, true
}

// TestMemoAnswersEqualDirectResolution is the memo's contract over random
// sites: whatever the memo does, Lookup(doc, body) is HintsFor(doc, body)
// of the table that answered, and the headers are their Format — on the
// first call, on a hit (same string and an equal copy of it), for two
// renderings of one document alternating, and across a retrain swap.
func TestMemoAnswersEqualDirectResolution(t *testing.T) {
	cats := []webpage.Category{webpage.News, webpage.Sports, webpage.Top100}
	differing, frames := 0, 0
	for seed := int64(0); seed < 24; seed++ {
		site := webpage.NewSite(fmt.Sprintf("memo%02d", seed), cats[seed%3], 4100+seed)
		clock := newFakeClock()
		st := New(Config{TTL: time.Hour, MaxStale: 1000 * time.Hour, Workers: 1, Clock: clock.Now})
		vt := &versionedTrainer{site: site, byV: map[uint64]*core.Resolver{}}

		// check looks doc up as body and compares with the direct
		// resolution by the table that answered.
		check := func(doc urlutil.URL, body string, wantMemoized bool, when string) *Answer {
			t.Helper()
			ans, res := st.LookupAnswer(doc, body)
			if ans == nil {
				t.Fatalf("seed %d, %s: %v lookup returned no answer", seed, when, res.Source)
			}
			want := vt.resolver(res.Version).HintsFor(doc, body, webpage.PhoneSmall)
			if !reflect.DeepEqual(ans.Hints, want) {
				t.Fatalf("seed %d, %s: memo answered %d hints, direct resolution %d", seed, when, len(ans.Hints), len(want))
			}
			if !reflect.DeepEqual(ans.Headers, hints.Format(want)) {
				t.Fatalf("seed %d, %s: headers are not Format of the hints", seed, when)
			}
			if res.Memoized != wantMemoized {
				t.Fatalf("seed %d, %s: Memoized = %v, want %v", seed, when, res.Memoized, wantMemoized)
			}
			if hs, _ := st.Lookup(doc, body); !reflect.DeepEqual(hs, want) {
				t.Fatalf("seed %d, %s: Lookup disagrees with LookupAnswer", seed, when)
			}
			return ans
		}
		// alternate serves one document as two different bodies in turn:
		// each gets exactly its own hints, no call can reuse the other's,
		// and the document keeps a single slot.
		alternate := func(doc urlutil.URL, bodies []string) {
			t.Helper()
			st.Lookup(doc, bodies[0])
			for i := 1; i <= 6; i++ {
				check(doc, bodies[i%2], false, fmt.Sprintf("alternating body %d", i%2))
			}
			if n := memoLen(st, doc.Host); n != 1 {
				t.Fatalf("seed %d: %d memo slots after alternating one document, want 1", seed, n)
			}
		}

		root := site.RootURL()
		if err := st.Register(root.Host, webpage.PhoneSmall, vt.train); err != nil {
			t.Fatal(err)
		}
		rootBodies := make([]string, 2)
		for i := range rootBodies {
			at := testEpoch.Add(time.Duration(i) * 400 * time.Hour)
			rootBodies[i] = site.Snapshot(at, webpage.Profile{Device: webpage.PhoneSmall}, 1).RootResource().Body
		}
		first := check(root, rootBodies[0], false, "first lookup")
		if hit := check(root, rootBodies[0], true, "hit"); &hit.Hints[0] != &first.Hints[0] {
			t.Fatalf("seed %d: a hit returned a different slice than the lookup that filled the memo", seed)
		}
		check(root, strings.Clone(rootBodies[0]), true, "hit on an equal copy of the body")
		alternate(root, rootBodies)

		if frame, bodies, ok := personalizedFrame(site, 1, 2); ok {
			frames++
			if err := st.Register(frame.Host, webpage.PhoneSmall, vt.train); err != nil {
				t.Fatal(err)
			}
			a, _ := st.Lookup(frame, bodies[0])
			b, _ := st.Lookup(frame, bodies[1])
			if !reflect.DeepEqual(a, b) {
				differing++
			}
			alternate(frame, bodies)
		}

		// Retrain swap: the stale lookup is still answered by the old
		// table (and its memo); the new table starts with nothing.
		check(root, rootBodies[0], true, "before the swap")
		clock.Advance(2 * time.Hour)
		if _, res := st.LookupAnswer(root, rootBodies[0]); res.Source != Stale || !res.Memoized || res.Version != 1 {
			t.Fatalf("seed %d: stale lookup = %+v, want a memoized answer from version 1", seed, res)
		}
		deadline := time.Now().Add(5 * time.Second)
		poll := urlutil.URL{Scheme: "https", Host: root.Host, Path: "/poll"} // leaves root's slot alone
		for {
			if _, res := st.Lookup(poll, ""); res.Version > 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: retrain never published", seed)
			}
			time.Sleep(time.Millisecond)
		}
		check(root, rootBodies[0], false, "first lookup after the swap")
		check(root, rootBodies[0], true, "hit after the swap")
		st.Drain(time.Second)
	}
	if frames == 0 || differing == 0 {
		t.Fatalf("%d sites had a personalized frame, %d resolved differently per user: the alternating case proved nothing", frames, differing)
	}
}

// TestMemoCachesNothingOnShedAndMiss: lookups that serve no hints return no
// answer, are never Memoized and leave the table's memo untouched.
func TestMemoCachesNothingOnShedAndMiss(t *testing.T) {
	site := webpage.NewSite("memoshed", webpage.News, 2017)
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	st := New(Config{TTL: time.Hour, MaxStale: 2 * time.Hour, Workers: 1, Clock: clock.Now})
	st.Instrument(reg)
	defer st.Drain(time.Second)
	root := site.RootURL()
	block := make(chan struct{})
	defer close(block)
	r := trainedResolver(t, site)
	first := true
	err := st.Register(root.Host, webpage.PhoneSmall, func(uint64, <-chan struct{}) (*core.Resolver, error) {
		if !first {
			<-block // retrains never publish: the table only ages
		}
		first = false
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	body := site.Snapshot(testEpoch, webpage.Profile{Device: webpage.PhoneSmall}, 1).RootResource().Body

	nobody := urlutil.URL{Scheme: "https", Host: "nobody.example", Path: "/"}
	if ans, res := st.LookupAnswer(nobody, body); ans != nil || res.Source != Miss || res.Memoized {
		t.Fatalf("unknown origin: answer %v, %+v", ans, res)
	}
	clock.Advance(3 * time.Hour)
	for i := 0; i < 3; i++ {
		if ans, res := st.LookupAnswer(root, body); ans != nil || res.Source != Shed || res.Memoized {
			t.Fatalf("past MaxStale: answer %v, %+v", ans, res)
		}
	}
	if n := memoLen(st, root.Host); n != 0 {
		t.Fatalf("shed lookups left %d memo entries", n)
	}
	for _, result := range []string{"hit", "miss"} {
		if v := reg.Counter(metricMemo, telemetry.L("result", result)).Value(); v != 0 {
			t.Errorf("%s{result=%q} = %d after only shed and miss lookups, want 0", metricMemo, result, v)
		}
	}
}

// TestMemoCapHolds serves more documents of one origin than a table has
// slots, twice over: every answer is still right, the memo never exceeds
// the cap, and the counters account for every lookup.
func TestMemoCapHolds(t *testing.T) {
	site := webpage.NewSite("memocap", webpage.Sports, 2017)
	reg := telemetry.NewRegistry()
	st := New(Config{TTL: time.Hour})
	st.Instrument(reg)
	defer st.Drain(time.Second)
	root := site.RootURL()
	r := trainedResolver(t, site)
	if err := st.Register(root.Host, webpage.PhoneSmall, StaticTrainer(r)); err != nil {
		t.Fatal(err)
	}
	const docs = memoSlots + 9
	lookups := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < docs; i++ {
			doc := urlutil.URL{Scheme: "https", Host: root.Host, Path: fmt.Sprintf("/article/%d", i)}
			body := fmt.Sprintf(`<html><body><img src="/img/%d.jpg"><script src="/js/%d.js"></script></body></html>`, i, i)
			hs, res := st.Lookup(doc, body)
			lookups++
			if want := r.HintsFor(doc, body, webpage.PhoneSmall); !reflect.DeepEqual(hs, want) || len(hs) == 0 {
				t.Fatalf("doc %d: %d hints, direct resolution %d", i, len(hs), len(want))
			}
			if n := memoLen(st, root.Host); n > memoSlots || (res.Source == Fresh && n == 0) {
				t.Fatalf("doc %d: memo holds %d entries, cap %d", i, n, memoSlots)
			}
		}
	}
	if n := memoLen(st, root.Host); n != memoSlots {
		t.Errorf("memo holds %d entries after %d documents, want the cap %d", n, docs, memoSlots)
	}
	hit := reg.Counter(metricMemo, telemetry.L("result", "hit")).Value()
	miss := reg.Counter(metricMemo, telemetry.L("result", "miss")).Value()
	if hit+miss != int64(lookups) || miss < docs {
		t.Errorf("memo counters: %d hits + %d misses for %d lookups of %d documents", hit, miss, lookups, docs)
	}
}

// TestMemoHitZeroAlloc pins what the memo is for: an uninstrumented lookup
// of bytes the table has already resolved allocates nothing.
func TestMemoHitZeroAlloc(t *testing.T) {
	st, root, bodies := benchStore(t)
	st.Lookup(root, bodies[0])
	allocs := testing.AllocsPerRun(200, func() {
		if _, res := st.Lookup(root, bodies[0]); !res.Memoized {
			t.Fatal("not a hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %v allocs/op, want 0", allocs)
	}
}

// benchStore is a one-tenant store plus its root document as served at two
// instants a churn period apart.
func benchStore(tb testing.TB) (*Store, urlutil.URL, [2]string) {
	tb.Helper()
	r, root, bodies := benchResolver(tb)
	st := New(Config{TTL: time.Hour})
	tb.Cleanup(func() { st.Drain(time.Second) })
	if err := st.Register(root.Host, webpage.PhoneSmall, StaticTrainer(r)); err != nil {
		tb.Fatal(err)
	}
	return st, root, bodies
}

func benchResolver(tb testing.TB) (*core.Resolver, urlutil.URL, [2]string) {
	tb.Helper()
	site := webpage.NewSite("memobench", webpage.News, 2017)
	var bodies [2]string
	for i := range bodies {
		at := testEpoch.Add(time.Duration(i) * 400 * time.Hour)
		bodies[i] = site.Snapshot(at, webpage.Profile{Device: webpage.PhoneSmall}, 1).RootResource().Body
	}
	return trainedResolver(tb, site), site.RootURL(), bodies
}

// BenchmarkStoreLookupMemoHit is the steady state of a document served
// unchanged under one table; CI greps it for 0 allocs/op.
func BenchmarkStoreLookupMemoHit(b *testing.B) {
	st, root, bodies := benchStore(b)
	st.Lookup(root, bodies[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, res := st.Lookup(root, bodies[0]); !res.Memoized {
			b.Fatal("not a hit")
		}
	}
}

// BenchmarkStoreLookupMemoMiss alternates two renderings of one document,
// so every lookup fails the compare, resolves and takes over the slot: the
// price of a miss next to BenchmarkResolverHintsFor, which is the same
// resolution and rendering called directly.
func BenchmarkStoreLookupMemoMiss(b *testing.B) {
	st, root, bodies := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, res := st.Lookup(root, bodies[i%2]); res.Memoized {
			b.Fatal("alternating bodies hit the memo")
		}
	}
}

// BenchmarkResolverHintsFor is the miss path's floor: HintsFor and Format
// of the same two renderings with no store around them.
func BenchmarkResolverHintsFor(b *testing.B) {
	r, root, bodies := benchResolver(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hints.Format(r.HintsFor(root, bodies[i%2], webpage.PhoneSmall))
	}
}
