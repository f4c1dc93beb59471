package wire

import (
	"net"
	"testing"
	"time"

	"vroom/internal/h1"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/netem"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

var recordTime = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

// startReplay serves a generated site over an emulated link and returns a
// dialer plus the archive.
func startReplay(t *testing.T, cfg ServerConfig) (*replay.Archive, *telemetry.Registry, func(string) (net.Conn, error), func()) {
	t.Helper()
	site := webpage.NewSite("wiretest", webpage.Top100, 4242)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	srv := NewServer(archive, resolver, webpage.PhoneSmall, cfg)
	reg := telemetry.NewRegistry()
	srv.Instrument(nil, reg)

	link := netem.Listen(netem.LinkConfig{
		Delay:               2 * time.Millisecond,
		DownlinkBytesPerSec: 20e6,
		UplinkBytesPerSec:   20e6,
	})
	go srv.H2().Serve(link)
	dial := func(string) (net.Conn, error) { return link.Dial() }
	stop := func() { srv.H2().Close(); link.Close() }
	return archive, reg, dial, stop
}

func TestBaselineLoadFetchesWholePage(t *testing.T) {
	archive, _, dial, stop := startReplay(t, ServerConfig{})
	defer stop()
	c := &Client{Dial: dial}
	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.LoadPage(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fetches) < archive.Len()*8/10 {
		t.Fatalf("fetched %d of %d archive resources", len(rep.Fetches), archive.Len())
	}
	for _, f := range rep.Fetches {
		if f.Status != 200 {
			t.Errorf("%s -> status %d", f.URL, f.Status)
		}
	}
	if rep.Total() <= 0 {
		t.Fatal("zero load time")
	}
}

func TestVroomLoadPushesAndHints(t *testing.T) {
	archive, reg, dial, stop := startReplay(t, ServerConfig{SendHints: true, Push: true})
	defer stop()
	c := &Client{Dial: dial, Staged: true}
	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.LoadPage(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed == 0 {
		t.Error("no resources were pushed")
	}
	if reg.Counter("vroom_server_pushes_total").Value() == 0 {
		t.Error("server reports zero pushes")
	}
	if len(rep.Fetches) < archive.Len()*8/10 {
		t.Fatalf("fetched %d of %d archive resources", len(rep.Fetches), archive.Len())
	}
	// No double fetch: each URL exactly once.
	seen := map[string]int{}
	for _, f := range rep.Fetches {
		seen[f.URL]++
	}
	for u, n := range seen {
		if n > 1 {
			t.Errorf("%s fetched %d times", u, n)
		}
	}
}

// TestPushOncePerConnection pins the push dedupe's scope to one h2
// connection: two loads over their own connections are both pushed to, and
// a document fetched twice on one connection is pushed once.
func TestPushOncePerConnection(t *testing.T) {
	archive, reg, dial, stop := startReplay(t, ServerConfig{SendHints: true, Push: true})
	defer stop()
	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		rep, err := (&Client{Dial: dial, Staged: true}).LoadPage(root)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pushed == 0 {
			t.Errorf("load %d over its own connections was pushed nothing", i)
		}
	}

	// The root's hints name only other hosts; the page's pushes come from
	// its embedded documents, whose High hints include their own host.
	var doc urlutil.URL
	for _, rec := range archive.Records[1:] {
		if rec.ResourceType() == webpage.HTML {
			if doc, err = rec.ParsedURL(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	nc, err := dial(doc.Host)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := h2.NewClientConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	pushes := reg.Counter("vroom_server_pushes_total")
	var per [2]int64
	for i := range per {
		before := pushes.Value()
		if _, err := cc.RoundTrip(&h2.Request{Method: "GET", Scheme: doc.Scheme, Authority: doc.Host, Path: doc.Path}); err != nil {
			t.Fatal(err)
		}
		per[i] = pushes.Value() - before
	}
	if per[0] == 0 || per[1] != 0 {
		t.Errorf("pushes for %s fetched twice on one connection = %v, want [>0 0]", doc, per)
	}
}

func TestVroomWireFasterUnderLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-sensitive timing test")
	}
	site := webpage.NewSite("wireperf", webpage.Top100, 777)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)

	// lastHighIssued is when the client sent its final high-priority
	// request: the discovery latency hints eliminate. (Completion times
	// on this harness are bandwidth-bound — there is no CPU model to
	// overlap with — so issuance is the right wire-level metric.)
	lastHighIssued := func(rep *Report) time.Duration {
		var last time.Time
		for _, f := range rep.Fetches {
			if f.Priority == 0 && !f.Pushed && f.Start.After(last) { // hints.High
				last = f.Start
			}
		}
		return last.Sub(rep.Started)
	}
	run := func(cfg ServerConfig, staged bool) (time.Duration, time.Duration) {
		srv := NewServer(archive, resolver, webpage.PhoneSmall, cfg)
		link := netem.Listen(netem.LinkConfig{
			Delay:               20 * time.Millisecond,
			DownlinkBytesPerSec: 4e6,
			UplinkBytesPerSec:   2e6,
		})
		go srv.H2().Serve(link)
		defer func() { srv.H2().Close(); link.Close() }()
		c := &Client{Dial: func(string) (net.Conn, error) { return link.Dial() }, Staged: staged}
		root, err := archive.Records[0].ParsedURL()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.LoadPage(root)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total(), lastHighIssued(rep)
	}

	baseTotal, baseIssue := run(ServerConfig{}, false)
	vroomTotal, vroomIssue := run(ServerConfig{SendHints: true, Push: true}, true)
	t.Logf("total: baseline=%v vroom=%v; last high-priority request issued: baseline=%v vroom=%v",
		baseTotal, vroomTotal, baseIssue, vroomIssue)
	// Hints collapse the fetch-evaluate-fetch discovery round trips on
	// script chains: every high-priority request must go out much
	// earlier than under baseline discovery.
	if vroomIssue >= baseIssue {
		t.Errorf("vroom issued its last high-priority request at %v, baseline at %v", vroomIssue, baseIssue)
	}
	if vroomTotal > baseTotal*2 {
		t.Errorf("vroom total (%v) pathologically slower than baseline (%v)", vroomTotal, baseTotal)
	}
}

func TestHTTP1WireLoad(t *testing.T) {
	site := webpage.NewSite("h1wire", webpage.Top100, 888)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	srv := NewServer(archive, nil, webpage.PhoneSmall, ServerConfig{})

	link := netem.Listen(netem.LinkConfig{Delay: time.Millisecond, DownlinkBytesPerSec: 50e6, UplinkBytesPerSec: 50e6})
	go srv.H1().Serve(link)
	defer func() { srv.H1().Close(); link.Close() }()

	c := &Client{DialOrigin: func(origin string) (OriginConn, error) {
		u, err := urlutil.Parse(origin + "/")
		if err != nil {
			return nil, err
		}
		return &h1.Pool{Authority: u.Host, Dial: func() (net.Conn, error) { return link.Dial() }}, nil
	}}
	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.LoadPage(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Fetches) != archive.Len() {
		t.Fatalf("fetched %d of %d over HTTP/1.1", len(rep.Fetches), archive.Len())
	}
	for _, f := range rep.Fetches {
		if f.Status != 200 {
			t.Errorf("%s -> %d", f.URL, f.Status)
		}
		if f.Pushed {
			t.Errorf("HTTP/1.1 load reported a push: %s", f.URL)
		}
	}
}

// TestHTTP1Drain serves a document through srv.H1() with a store and an
// accountant attached, then drains. Nothing fetches the hinted resources
// and nothing expires within the hour-long window, so only the drain's
// accountant flush can settle the hint windows; the store must hand back
// one checkpoint per tenant.
func TestHTTP1Drain(t *testing.T) {
	site := webpage.NewSite("h1drain", webpage.News, 2017)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	srv := NewServer(archive, resolver, webpage.PhoneSmall, ServerConfig{SendHints: true})
	st := hintstore.New(hintstore.Config{TTL: time.Hour})
	hosts := map[string]bool{}
	for _, rec := range archive.Records {
		if u, err := rec.ParsedURL(); err == nil && !hosts[u.Host] {
			hosts[u.Host] = true
			if err := st.Register(u.Host, webpage.PhoneSmall, hintstore.StaticTrainer(resolver)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Store = st
	srv.Acct = NewAccountant(AccountingConfig{Store: st, Window: time.Hour})

	link := netem.Listen(netem.LinkConfig{Delay: time.Millisecond})
	go srv.H1().Serve(link)
	defer link.Close()
	root := site.RootURL()
	pool := &h1.Pool{Authority: root.Host, Dial: link.Dial}
	defer pool.Close()
	resp, err := pool.RoundTrip(&h2.Request{Method: "GET", Scheme: "https", Authority: root.Host, Path: root.Path})
	if err != nil || resp.Status != 200 {
		t.Fatalf("document over h1: %v %+v", err, resp)
	}

	settled := func() (emitted, unused int64) {
		for _, q := range st.QualityAll() {
			emitted += q.HintsEmitted
			unused += q.HintsUnused
		}
		return emitted, unused
	}
	if emitted, unused := settled(); emitted == 0 || unused != 0 {
		t.Fatalf("before drain: %d hints emitted, %d settled unused; want some emitted and none settled", emitted, unused)
	}
	cps := srv.Drain(time.Second)
	if emitted, unused := settled(); unused != emitted {
		t.Errorf("after drain: %d of %d hints settled unused, want all: the accountant was not flushed", unused, emitted)
	}
	if len(cps) != len(hosts) {
		t.Errorf("drain returned %d checkpoints, want one per tenant (%d)", len(cps), len(hosts))
	}
}

// TestClientUpgradesQueuedPriority is the wire counterpart of the
// simulator's queued-priority upgrade: a URL first hinted as unimportant and
// then referenced by the page as a stylesheet must leave the Low queue and go
// out at once, not wait behind the slow synchronous script it sits next to.
func TestClientUpgradesQueuedPriority(t *testing.T) {
	const host = "upgrade.test"
	css := urlutil.URL{Scheme: "https", Host: host, Path: "/a.css"}
	const slow = 200 * time.Millisecond
	srv := &h2.Server{Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
		switch r.Path {
		case "/":
			for k, v := range hints.Format([]hints.Hint{{URL: css, Priority: hints.Low}}) {
				w.Header()[k] = v
			}
			w.WriteHeader(200)
			w.Write([]byte(`<html><head><link rel="stylesheet" href="/a.css">` +
				`<script src="/slow.js"></script></head><body></body></html>`))
		case "/slow.js":
			time.Sleep(slow)
			w.WriteHeader(200)
			w.Write([]byte("var x = 1;"))
		default:
			w.WriteHeader(200)
			w.Write([]byte("body{}"))
		}
	})}
	link := netem.Listen(netem.LinkConfig{Delay: time.Millisecond, DownlinkBytesPerSec: 50e6, UplinkBytesPerSec: 50e6})
	go srv.Serve(link)
	defer func() { srv.Close(); link.Close() }()

	c := &Client{Dial: func(string) (net.Conn, error) { return link.Dial() }, Staged: true}
	rep, err := c.LoadPage(urlutil.URL{Scheme: "https", Host: host, Path: "/"})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]FetchRecord{}
	for _, f := range rep.Fetches {
		if f.Failed() {
			t.Fatalf("%s failed: %s", f.URL, f.Err)
		}
		got[f.URL] = f
	}
	a, ok := got[css.String()]
	if !ok {
		t.Fatalf("a.css never fetched: %+v", rep.Fetches)
	}
	js, ok := got["https://"+host+"/slow.js"]
	if !ok {
		t.Fatalf("slow.js never fetched: %+v", rep.Fetches)
	}
	if a.Priority != hints.High {
		t.Errorf("a.css fetched at %v, want %v", a.Priority, hints.High)
	}
	if !a.Start.Before(js.Done) {
		t.Errorf("a.css started %v after slow.js finished: still held behind the Low gate",
			a.Start.Sub(js.Done))
	}
}
