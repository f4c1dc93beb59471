package wire

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"vroom/internal/core"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/netem"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// acctFixture is a store with one registered tenant plus an accountant on
// a fake clock, so settlement rules are testable without sleeping.
func acctFixture(t *testing.T, cfg AccountingConfig) (*hintstore.Store, *Accountant, string, *time.Time) {
	t.Helper()
	site := webpage.NewSite("acct", webpage.News, 2017)
	origin := site.RootURL().Host
	r := TrainResolver(site, recordTime, webpage.PhoneSmall)
	st := hintstore.New(hintstore.Config{TTL: time.Hour, MaxTenants: 4})
	t.Cleanup(func() { st.Drain(time.Second) })
	if err := st.Register(origin, webpage.PhoneSmall, hintstore.StaticTrainer(r)); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	cfg.Store = st
	cfg.Clock = func() time.Time { return now }
	return st, NewAccountant(cfg), origin, &now
}

func hintFor(host, path string) hints.Hint {
	return hints.Hint{URL: urlutil.URL{Scheme: "https", Host: host, Path: path}, Priority: hints.High}
}

// TestAccountantSettlement pins every settlement rule: request-in-window →
// used (plus redundant-push waste), window expiry → unused, unpredicted
// subresource → missed, documents exempt, Flush drains pushed windows as
// used and unpushed as unused.
func TestAccountantSettlement(t *testing.T) {
	st, acct, origin, now := acctFixture(t, AccountingConfig{Window: 5 * time.Second})
	a, b, cc, d := hintFor(origin, "/a.css"), hintFor(origin, "/b.js"), hintFor(origin, "/c.png"), hintFor(origin, "/d.css")

	acct.NoteHints(origin, []hints.Hint{a, b, cc}, 2*time.Second, true)
	acct.NotePush(origin, a.URL.String(), 500)
	// a was pushed AND requested: used, with the 500 pushed bytes wasted.
	acct.NoteRequest(origin, a.URL.String(), false)
	// b was hinted and requested: plain used.
	acct.NoteRequest(origin, b.URL.String(), false)
	// Never hinted: a recall miss.
	acct.NoteRequest(origin, "https://"+origin+"/never-hinted.js", false)
	// Documents are inputs to hint tables, not predictions — never a miss.
	acct.NoteRequest(origin, "https://"+origin+"/", true)

	// Advance past the window; the next touch on this origin expires c as
	// unused. The second emission carries no table identity (fallback).
	*now = now.Add(6 * time.Second)
	acct.NoteHints(origin, []hints.Hint{d}, 0, false)
	// d is still open; Flush settles it unused (it was never pushed).
	if n := acct.Flush(); n != 1 {
		t.Errorf("Flush settled %d windows, want 1", n)
	}

	q := st.QualityOf(origin)
	if q.HintsEmitted != 4 || q.HintsUsed != 2 || q.HintsUnused != 2 || q.HintsMissed != 1 {
		t.Fatalf("ledger: %+v", q)
	}
	if q.PushedCount != 1 || q.PushedBytes != 500 || q.WastedPushBytes != 500 {
		t.Errorf("push accounting: %+v", q)
	}
	settled := hints.QualityDelta{HintsUsed: q.HintsUsed, HintsUnused: q.HintsUnused, HintsMissed: q.HintsMissed}
	if got := settled.Precision(); got != 0.5 {
		t.Errorf("precision = %v, want 0.5", got)
	}
	if got := settled.Recall(); got < 0.66 || got > 0.67 {
		t.Errorf("recall = %v, want 2/3", got)
	}
	if q.StaleServes != 1 || q.StaleServeMsSum != 2000 {
		t.Errorf("staleness %d ms over %d serves, want 2000 over 1 (fallback emission must not observe)",
			q.StaleServeMsSum, q.StaleServes)
	}
}

// TestAccountantFlushPushedSettlesUsed pins the push asymmetry rule: a
// pushed prediction that expires unrequested settles used — the push
// pre-empted the request — and the client-side ledger owns whether the
// bytes were worth it.
func TestAccountantFlushPushedSettlesUsed(t *testing.T) {
	st, acct, origin, _ := acctFixture(t, AccountingConfig{})
	a := hintFor(origin, "/a.css")
	acct.NoteHints(origin, []hints.Hint{a}, 0, true)
	acct.NotePush(origin, a.URL.String(), 900)
	acct.Flush()
	q := st.QualityOf(origin)
	if q.HintsUsed != 1 || q.HintsUnused != 0 {
		t.Fatalf("pushed window settled wrong: %+v", q)
	}
	if q.WastedPushBytes != 0 {
		t.Errorf("unclaimed push charged as wasted server-side: %+v", q)
	}
}

// TestAccountantBounds proves tracked state cannot grow past its caps:
// past MaxOpenPerOrigin or MaxOrigins predictions go untracked, and
// untracked predictions never skew precision — they just shrink the sample.
func TestAccountantBounds(t *testing.T) {
	st, acct, origin, _ := acctFixture(t, AccountingConfig{MaxOpenPerOrigin: 2, MaxOrigins: 1})
	hs := []hints.Hint{hintFor(origin, "/1"), hintFor(origin, "/2"), hintFor(origin, "/3")}
	acct.NoteHints(origin, hs, 0, true)
	if got := len(acct.origins[origin].open); got != 2 {
		t.Fatalf("per-origin bound: %d open windows, want 2", got)
	}
	// A second origin is past MaxOrigins: none of its windows is tracked.
	acct.NoteHints("elsewhere.example", []hints.Hint{hintFor("elsewhere.example", "/x")}, 0, true)
	if got := len(acct.origins); got != 1 {
		t.Fatalf("origin bound: %d ledgers, want 1", got)
	}
	acct.Flush()
	// Emitted counts every hint served; settled outcomes only the tracked.
	q := st.QualityOf(origin)
	if q.HintsEmitted != 3 || q.HintsUsed+q.HintsUnused != 2 {
		t.Errorf("bounded ledger: %+v", q)
	}
}

// scanLedger is the settlement rule stated the slow way — every touch of a
// host scans all of its open windows for expiry — as the reference the
// accountant's skip-the-scan bookkeeping must agree with exactly.
type scanLedger struct {
	window  time.Duration
	maxOpen int
	open    map[string]map[string]*prediction // host -> url -> window
	tally   map[string]*hints.QualityDelta
}

func (m *scanLedger) of(host string) *hints.QualityDelta {
	if m.tally[host] == nil {
		m.tally[host] = &hints.QualityDelta{}
	}
	return m.tally[host]
}

func (m *scanLedger) expire(host string, now time.Time) {
	for url, p := range m.open[host] {
		if p.emitted.After(now.Add(-m.window)) {
			continue
		}
		delete(m.open[host], url)
		if p.pushed {
			m.of(host).HintsUsed++
		} else {
			m.of(host).HintsUnused++
		}
	}
}

func (m *scanLedger) noteHints(doc string, hs []hints.Hint, now time.Time) {
	for _, h := range hs {
		host, url := h.URL.Host, h.URL.String()
		if m.open[host] == nil {
			m.open[host] = map[string]*prediction{}
		}
		m.expire(host, now)
		if m.open[host][url] != nil {
			continue
		}
		if len(m.open[host]) >= m.maxOpen {
			continue
		}
		m.open[host][url] = &prediction{emitted: now}
	}
	m.of(doc).HintsEmitted += int64(len(hs))
}

func (m *scanLedger) notePush(host, url string, bytes int64) {
	if p := m.open[host][url]; p != nil {
		p.pushed, p.bytes = true, bytes
	}
	m.of(host).PushedCount++
	m.of(host).PushedBytes += bytes
}

func (m *scanLedger) noteRequest(host, url string, isDoc bool, now time.Time) {
	m.expire(host, now)
	if p := m.open[host][url]; p != nil {
		delete(m.open[host], url)
		m.of(host).HintsUsed++
		if p.pushed {
			m.of(host).WastedPushBytes += p.bytes
		}
	} else if !isDoc {
		m.of(host).HintsMissed++
	}
}

func (m *scanLedger) flush() {
	for host := range m.open {
		m.expire(host, time.Unix(1<<40, 0)) // everything is past its window
	}
}

// TestAccountantExpiryMatchesFullScan drives the accountant and the
// full-scan reference with the same seeded mix of emissions, pushes,
// requests and clock steps (some shorter than the window, some longer,
// over several hosts so one emission touches several ledgers) and requires
// every tenant's emitted/used/unused/missed/pushed/wasted totals to match:
// tracking each ledger's oldest emission changes when
// the scan runs, never what it settles.
func TestAccountantExpiryMatchesFullScan(t *testing.T) {
	const window = 5 * time.Second
	hosts := []string{"a.example", "b.example", "c.example"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := hintstore.New(hintstore.Config{TTL: time.Hour, MaxTenants: 8})
		for _, h := range hosts {
			if err := st.Register(h, webpage.PhoneSmall, hintstore.StaticTrainer(core.NewResolver(core.DefaultResolverConfig()))); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Unix(1000, 0)
		acct := NewAccountant(AccountingConfig{Store: st, Window: window, MaxOpenPerOrigin: 12,
			Clock: func() time.Time { return now }})
		ref := &scanLedger{window: window, maxOpen: 12,
			open: map[string]map[string]*prediction{}, tally: map[string]*hints.QualityDelta{}}
		pick := func() (string, string) {
			host := hosts[rng.Intn(len(hosts))]
			return host, hintFor(host, fmt.Sprintf("/r%d", rng.Intn(20))).URL.String()
		}
		for op := 0; op < 3000; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2:
				hs := make([]hints.Hint, 1+rng.Intn(8))
				for i := range hs {
					hs[i] = hintFor(hosts[rng.Intn(len(hosts))], fmt.Sprintf("/r%d", rng.Intn(20)))
				}
				doc := hosts[rng.Intn(len(hosts))]
				acct.NoteHints(doc, hs, 0, false)
				ref.noteHints(doc, hs, now)
			case 3:
				host, url := pick()
				bytes := int64(100 + rng.Intn(900))
				acct.NotePush(host, url, bytes)
				ref.notePush(host, url, bytes)
			case 4, 5, 6, 7:
				host, url := pick()
				isDoc := rng.Intn(8) == 0
				acct.NoteRequest(host, url, isDoc)
				ref.noteRequest(host, url, isDoc, now)
			case 8:
				now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
			case 9:
				if rng.Intn(4) == 0 {
					now = now.Add(window + time.Duration(rng.Intn(2000))*time.Millisecond)
				}
			}
		}
		acct.Flush()
		ref.flush()
		for _, h := range hosts {
			q, want := st.QualityOf(h), ref.of(h)
			got := hints.QualityDelta{HintsEmitted: q.HintsEmitted, HintsUsed: q.HintsUsed,
				HintsUnused: q.HintsUnused, HintsMissed: q.HintsMissed, PushedCount: q.PushedCount,
				PushedBytes: q.PushedBytes, WastedPushBytes: q.WastedPushBytes}
			if got != *want {
				t.Errorf("seed %d, %s:\n     got %+v\nfull scan %+v", seed, h, got, *want)
			}
		}
		st.Drain(time.Second)
	}
}

// accountedLoad loads site as it was at time at once, staged and
// push-enabled, from a server whose resolver trained at recordTime and which
// has a store and an accountant attached, and drains the server so every
// prediction window is settled. reg carries both sides' metrics.
func accountedLoad(t *testing.T, site *webpage.Site, at time.Time) (rep *Report, st *hintstore.Store, reg *telemetry.Registry) {
	t.Helper()
	sn := site.Snapshot(at, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	srv := NewServer(archive, resolver, webpage.PhoneSmall, ServerConfig{SendHints: true, Push: true})

	// Register every host in the archive so all settlements — which are
	// attributed to the hinted URL's own host, not the document's — land in
	// a resident ledger rather than the metrics-only path.
	st = hintstore.New(hintstore.Config{TTL: time.Hour, MaxTenants: 64})
	hosts := map[string]bool{}
	for _, rec := range archive.Records {
		if u, err := rec.ParsedURL(); err == nil && !hosts[u.Host] {
			hosts[u.Host] = true
			if err := st.Register(u.Host, webpage.PhoneSmall, hintstore.StaticTrainer(resolver)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reg = telemetry.NewRegistry()
	srv.Store = st
	srv.Acct = NewAccountant(AccountingConfig{Store: st, Window: 2 * time.Second})
	srv.Instrument(nil, reg)

	link := netem.Listen(netem.LinkConfig{
		Delay:               2 * time.Millisecond,
		DownlinkBytesPerSec: 20e6,
		UplinkBytesPerSec:   20e6,
	})
	go srv.H2().Serve(link)
	defer func() { srv.H2().Close(); link.Close() }()
	dial := func(string) (net.Conn, error) { return link.Dial() }
	c := &Client{Dial: dial, Staged: true, Metrics: reg}
	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = c.LoadPage(root); err != nil {
		t.Fatal(err)
	}
	srv.Drain(time.Second)
	return rep, st, reg
}

// TestAccountingEndToEndConsistency drives a real push-enabled load with
// the store and accountant attached and cross-checks all three ledgers:
// the client's per-origin pushed = used + wasted split against its own
// per-fetch records, and the server's hint-quality ledger against what
// the wire actually carried.
func TestAccountingEndToEndConsistency(t *testing.T) {
	site := webpage.NewSite("acctwire", webpage.Top100, 4242)
	origin := site.RootURL().Host
	rep, st, reg := accountedLoad(t, site, recordTime)

	// Client side: the authoritative pushed = used + wasted split, origin
	// by origin, and in total against the report and the per-fetch records.
	// A push that lands after the page fetched the URL itself is pushed and
	// wasted but has no record of its own, so the records may fall short of
	// the ledger by at most its wasted pushes, and never name a URL twice.
	var total hints.QualityDelta
	for _, pq := range rep.PushQuality {
		if pq.PushedCount != pq.PushUsed+pq.PushWasted {
			t.Errorf("%s: pushed %d != used %d + wasted %d", pq.Origin, pq.PushedCount, pq.PushUsed, pq.PushWasted)
		}
		if pq.WastedPushBytes > pq.PushedBytes {
			t.Errorf("%s: wasted bytes %d > pushed bytes %d", pq.Origin, pq.WastedPushBytes, pq.PushedBytes)
		}
		total.Add(pq.QualityDelta)
	}
	pushedRecs := 0
	records := map[string]int{}
	for _, f := range rep.Fetches {
		if f.Pushed {
			pushedRecs++
		}
		if records[f.URL]++; records[f.URL] == 2 {
			t.Errorf("%s has two fetch records", f.URL)
		}
	}
	if int(total.PushedCount) != rep.Pushed {
		t.Errorf("pushed totals disagree: ledger %d, report %d", total.PushedCount, rep.Pushed)
	}
	if late := rep.Pushed - pushedRecs; late < 0 || int64(late) > total.PushWasted {
		t.Errorf("%d pushes without a fetch record, but only %d wasted", late, total.PushWasted)
	}
	if total.PushUsed == 0 {
		t.Error("no push was ever claimed; staged load should use pushes")
	}

	// Server side: after Drain every window is settled, so the aggregate
	// ledger is internally consistent. Emissions are attributed to the
	// document's origin while settlements go to the hinted URL's host, so
	// the invariants hold over the sum of all tenants, not per tenant.
	var agg hints.QualityDelta
	for _, q := range st.QualityAll() {
		agg.HintsEmitted += q.HintsEmitted
		agg.HintsUsed += q.HintsUsed
		agg.HintsUnused += q.HintsUnused
		agg.HintsMissed += q.HintsMissed
		agg.PushedCount += q.PushedCount
		agg.PushedBytes += q.PushedBytes
		agg.WastedPushBytes += q.WastedPushBytes
	}
	if agg.HintsEmitted == 0 {
		t.Fatal("server emitted no accounted hints")
	}
	if agg.HintsUsed+agg.HintsUnused > agg.HintsEmitted {
		t.Errorf("settled %d+%d windows for %d emissions", agg.HintsUsed, agg.HintsUnused, agg.HintsEmitted)
	}
	if agg.HintsUsed == 0 {
		t.Error("no hint settled as used on a hinted load")
	}
	if p := agg.Precision(); p <= 0 || p > 1 {
		t.Errorf("precision = %v, want (0, 1]", p)
	}
	if r := agg.Recall(); r <= 0 || r > 1 {
		t.Errorf("recall = %v, want (0, 1]", r)
	}
	if agg.WastedPushBytes > agg.PushedBytes {
		t.Errorf("wasted push bytes %d > pushed bytes %d", agg.WastedPushBytes, agg.PushedBytes)
	}
	// Every push the server accounted arrived at the client, byte for
	// byte: the two ledgers must agree exactly on this in-memory world.
	if agg.PushedBytes == 0 || agg.PushedBytes != total.PushedBytes {
		t.Errorf("push byte ledgers disagree: server %d, client %d", agg.PushedBytes, total.PushedBytes)
	}
	if agg.PushedCount != total.PushedCount {
		t.Errorf("push counts disagree: server %d, client %d", agg.PushedCount, total.PushedCount)
	}

	// The quality families made it to the exposition with origin labels.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		hintstore.MetricHintsEmitted + `{origin="` + origin + `"}`,
		"vroom_server_origin_requests_total{origin=",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// TestAccountantAgainstClientSettlement scores the server's estimator
// against the client's truth on the same loads: per origin, the
// accountant's used, unused and missed counts next to what the client
// settled with hints.Settle. The pages are loaded hours after the resolver
// trained, so some hints name resources the page no longer needs. The
// client prefetches every hint, so every hinted URL is requested (or
// pushed) and the accountant books it used whether or not the page needed
// it: its used count can only be high.
func TestAccountantAgainstClientSettlement(t *testing.T) {
	var est, truth hints.QualityDelta
	for seed := int64(1); seed <= 4; seed++ {
		site := webpage.NewSite(fmt.Sprintf("acctbias%d", seed), webpage.Category(seed%3), 3000+seed)
		rep, st, _ := accountedLoad(t, site, recordTime.Add(time.Duration(seed)*3*time.Hour))
		for _, pq := range rep.PushQuality {
			q := st.QualityOf(pq.Origin)
			t.Logf("seed %d %-28s used %3d/%3d  unused %3d/%3d  missed %3d/%3d (accountant/client)",
				seed, pq.Origin, q.HintsUsed, pq.HintsUsed, q.HintsUnused, pq.HintsUnused, q.HintsMissed, pq.HintsMissed)
			est.Add(hints.QualityDelta{HintsUsed: q.HintsUsed, HintsUnused: q.HintsUnused, HintsMissed: q.HintsMissed})
			truth.Add(hints.QualityDelta{HintsUsed: pq.HintsUsed, HintsUnused: pq.HintsUnused, HintsMissed: pq.HintsMissed})
		}
	}
	if truth.HintsUsed == 0 {
		t.Fatal("the client settled no used hint")
	}
	if est.HintsUsed < truth.HintsUsed {
		t.Errorf("accountant booked %d used hints, fewer than the client's %d", est.HintsUsed, truth.HintsUsed)
	}
	t.Logf("used %d vs %d (+%d), unused %d vs %d, missed %d vs %d; precision %.3f vs %.3f, recall %.3f vs %.3f",
		est.HintsUsed, truth.HintsUsed, est.HintsUsed-truth.HintsUsed, est.HintsUnused, truth.HintsUnused,
		est.HintsMissed, truth.HintsMissed, est.Precision(), truth.Precision(), est.Recall(), truth.Recall())
}

// TestAccountingDisabledZeroAlloc pins the disabled-path contract: a nil
// accountant (and nil per-origin vecs) must cost zero allocations on the
// serving path's hooks.
func TestAccountingDisabledZeroAlloc(t *testing.T) {
	var acct *Accountant
	var cv *telemetry.CounterVec
	hs := []hints.Hint{hintFor("origin.example", "/a.css")}
	allocs := testing.AllocsPerRun(1000, func() {
		acct.NoteHints("origin.example", hs, time.Second, true)
		acct.NotePush("origin.example", "https://origin.example/a.css", 100)
		acct.NoteRequest("origin.example", "https://origin.example/a.css", false)
		acct.Flush()
		cv.With("origin.example").Inc()
	})
	if allocs != 0 {
		t.Fatalf("disabled accounting path allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkAccountingDisabled is the CI-greppable form of the same pin.
func BenchmarkAccountingDisabled(b *testing.B) {
	var acct *Accountant
	var cv *telemetry.CounterVec
	hs := []hints.Hint{hintFor("origin.example", "/a.css")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acct.NoteHints("origin.example", hs, time.Second, true)
		acct.NoteRequest("origin.example", "https://origin.example/a.css", false)
		cv.With("origin.example").Inc()
	}
}

// BenchmarkAccountingEnabled measures the live cost of one settled
// prediction cycle (hint emitted, then its request).
func BenchmarkAccountingEnabled(b *testing.B) {
	site := webpage.NewSite("acctbench", webpage.News, 2017)
	origin := site.RootURL().Host
	r := TrainResolver(site, recordTime, webpage.PhoneSmall)
	st := hintstore.New(hintstore.Config{TTL: time.Hour})
	defer st.Drain(time.Second)
	if err := st.Register(origin, webpage.PhoneSmall, hintstore.StaticTrainer(r)); err != nil {
		b.Fatal(err)
	}
	acct := NewAccountant(AccountingConfig{Store: st})
	hs := []hints.Hint{hintFor(origin, "/a.css")}
	url := hs[0].URL.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acct.NoteHints(origin, hs, time.Second, true)
		acct.NoteRequest(origin, url, false)
	}
}
