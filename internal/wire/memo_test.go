package wire

import (
	"net"
	"reflect"
	"testing"
	"time"

	"vroom/internal/faults"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/netem"
	"vroom/internal/obs"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// hintHeadersOf picks the hint-carrying fields out of a response's headers.
func hintHeadersOf(h map[string][]string) map[string][]string {
	out := map[string][]string{}
	for _, name := range []string{hints.HeaderLink, hints.HeaderSemi, hints.HeaderLow, hints.HeaderExpose} {
		if v, ok := h[name]; ok {
			out[name] = v
		}
	}
	return out
}

// TestServerServesSharedAnswerReadOnly covers the serving path's side of
// the store's answer memo. A fault-free server puts the table's
// pre-rendered headers on the wire: the same bytes as rendering a direct
// resolution, on the filling request and on every hit, over h1 and h2,
// and the hint-lookup span says which it was. Every consumer of the shared
// answer — the h1 and h2 header writers, core.PushSet, the accountant, and
// the fault plan's StaleHints on a second server that rewrites every hint —
// leaves it exactly as the table computed it.
func TestServerServesSharedAnswerReadOnly(t *testing.T) {
	site := webpage.NewSite("memowire", webpage.News, 2017)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	root := site.RootURL()
	body := sn.RootResource().Body
	direct := resolver.HintsFor(root, body, webpage.PhoneSmall)
	want := hints.Format(direct)

	// Every host is a tenant: what a site can push hangs off its frames'
	// hosts, not the root's.
	st := hintstore.New(hintstore.Config{TTL: time.Hour})
	defer st.Drain(time.Second)
	for _, rec := range archive.Records {
		if u, err := rec.ParsedURL(); err == nil && rec.ResourceType() == webpage.HTML {
			if err := st.Register(u.Host, webpage.PhoneSmall, hintstore.StaticTrainer(resolver)); err != nil {
				t.Fatal(err)
			}
		}
	}
	newServer := func(plan *faults.Plan) *Server {
		srv := NewServer(archive, nil, webpage.PhoneSmall, ServerConfig{SendHints: true, Push: true})
		srv.Store = st
		srv.Faults = plan
		srv.Acct = NewAccountant(AccountingConfig{Store: st})
		return srv
	}
	srv := newServer(nil)
	live := &obs.LiveRecording{Start: time.Now()}
	reg := telemetry.NewRegistry()
	srv.Instrument(obs.NewWall(live), reg)
	docReq := &h2.Request{Method: "GET", Scheme: "https", Authority: root.Host, Path: root.Path}

	// h1: the request that fills the memo and two that hit it.
	for i := 0; i < 3; i++ {
		resp := srv.ServeH1(docReq)
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
		if got := hintHeadersOf(resp.Header); !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: served hint headers differ from Format(HintsFor)", i)
		}
	}
	var memo []string
	for _, ev := range live.Snapshot().Events {
		if ev.Kind == obs.KindEnd && ev.Arg("memo") != "" {
			memo = append(memo, ev.Arg("source")+"/"+ev.Arg("memo"))
		}
	}
	if !reflect.DeepEqual(memo, []string{"fresh/miss", "fresh/hit", "fresh/hit"}) {
		t.Errorf("hint-lookup spans ended with source/memo %v, want one miss then hits", memo)
	}
	if hit, miss := reg.Counter("vroom_store_memo_total", telemetry.L("result", "hit")).Value(),
		reg.Counter("vroom_store_memo_total", telemetry.L("result", "miss")).Value(); hit != 2 || miss != 1 {
		t.Errorf("vroom_store_memo_total: %d hits, %d misses, want 2 and 1", hit, miss)
	}

	shared, res := st.LookupAnswer(root, body)
	if !res.Memoized {
		t.Fatal("the server's lookups did not leave the answer memoized")
	}
	if !reflect.DeepEqual(shared.Hints, direct) || !reflect.DeepEqual(shared.Headers, want) {
		t.Fatal("memoized answer differs from the direct resolution")
	}

	// h2 with push and accounting: a whole staged load through the header
	// writer, PushSet and the accountant, all reading the shared answer.
	link := netem.Listen(netem.LinkConfig{})
	go srv.H2().Serve(link)
	defer func() { srv.H2().Close(); link.Close() }()
	c := &Client{Dial: func(string) (net.Conn, error) { return link.Dial() }, Staged: true}
	rep, err := c.LoadPage(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pushed == 0 {
		t.Error("the load received no pushes: PushSet never read the shared hints")
	}
	nc, err := link.Dial()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := h2.NewClientConn(nc)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	resp, err := cc.RoundTrip(docReq)
	if err != nil {
		t.Fatal(err)
	}
	if got := hintHeadersOf(resp.Header); !reflect.DeepEqual(got, want) {
		t.Error("h2 response's hint headers differ from Format(HintsFor)")
	}

	// A second server on the same store rewrites every hint it serves.
	plan := faults.New(7, faults.Config{StaleHintRate: 1, RedirectFrac: 0.5})
	faulty := newServer(plan)
	for i := 0; i < 2; i++ {
		resp := faulty.ServeH1(docReq)
		got := hintHeadersOf(resp.Header)
		if reflect.DeepEqual(got, want) {
			t.Fatal("fault plan with StaleHintRate 1 served the unmangled headers")
		}
		if n := len(hints.Parse(got)); n != len(direct) {
			t.Fatalf("faulted response carries %d hints, want %d", n, len(direct))
		}
	}
	srv.Acct.Flush()
	faulty.Acct.Flush()

	after, res := st.LookupAnswer(root, body)
	if after != shared || !res.Memoized {
		t.Fatal("serving displaced the memoized answer")
	}
	if !reflect.DeepEqual(after.Hints, direct) || !reflect.DeepEqual(after.Headers, want) {
		t.Fatal("a consumer modified the shared answer")
	}
}
