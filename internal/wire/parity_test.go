package wire

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"vroom/internal/faults"
	"vroom/internal/h1"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/netem"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// parityWorld is one freshly built replay server over a News site whose
// root host is a hint-store tenant, plus what the cases need to aim at it.
type parityWorld struct {
	srv    *Server
	root   urlutil.URL
	asset  urlutil.URL
	now    *time.Time // the store's clock
	direct []hints.Hint
}

func newParityWorld(t *testing.T) *parityWorld {
	t.Helper()
	site := webpage.NewSite("parity", webpage.News, 2017)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	w := &parityWorld{root: site.RootURL()}
	now := recordTime
	w.now = &now
	st := hintstore.New(hintstore.Config{TTL: time.Hour, Clock: func() time.Time { return *w.now }})
	t.Cleanup(func() { st.Drain(time.Second) })
	if err := st.Register(w.root.Host, webpage.PhoneSmall, hintstore.StaticTrainer(resolver)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range archive.Records {
		if rec.ResourceType() == webpage.CSS {
			w.asset, _ = rec.ParsedURL()
			break
		}
	}
	w.direct = resolver.HintsFor(w.root, sn.RootResource().Body, webpage.PhoneSmall)
	w.srv = NewServer(archive, nil, webpage.PhoneSmall, ServerConfig{SendHints: true, Push: true})
	w.srv.Store = st
	return w
}

func get(u urlutil.URL) *h2.Request {
	return &h2.Request{Method: "GET", Scheme: "https", Authority: u.Host, Path: u.Path,
		Header: map[string][]string{}}
}

// fetchOver sends req to srv over an in-memory link through the named
// transport's real client and server.
func fetchOver(t *testing.T, proto string, srv *Server, req *h2.Request) *h2.Response {
	t.Helper()
	link := netem.Listen(netem.LinkConfig{})
	defer link.Close()
	var resp *h2.Response
	var err error
	switch proto {
	case "h1":
		go srv.H1().Serve(link)
		defer srv.H1().Close()
		p := &h1.Pool{Authority: req.Authority, Dial: link.Dial}
		defer p.Close()
		resp, err = p.RoundTrip(req)
	case "h2":
		go srv.H2().Serve(link)
		defer srv.H2().Close()
		nc, derr := link.Dial()
		if derr != nil {
			t.Fatal(derr)
		}
		cc, cerr := h2.NewClientConn(nc)
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer cc.Close()
		resp, err = cc.RoundTrip(req)
	}
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}
	return resp
}

// TestTransportParity pins the single answer path: for every kind of answer
// the server gives, HTTP/1.1 and HTTP/2 put the same status, the same
// header fields and the same body on the wire. Push is the only thing h2
// adds, and it travels on streams of its own. Each transport gets its own
// identically built server, so neither sees state the other left behind.
func TestTransportParity(t *testing.T) {
	cases := []struct {
		name   string
		status int
		// setup readies a fresh world and returns the request to send, plus
		// an optional func to run after the exchange.
		setup    func(t *testing.T, w *parityWorld) (*h2.Request, func())
		degraded string
	}{
		{"document with hints", 200, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			return get(w.root), nil
		}, ""},
		{"subresource", 200, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			return get(w.asset), nil
		}, ""},
		{"stale-hint redirect", 301, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			w.srv.Faults = faults.New(7, faults.Config{StaleHintRate: 1, RedirectFrac: 1})
			// Serving the document is what hands out, and remembers, the
			// stale hints.
			w.srv.ServeH1(get(w.root))
			var keys []string
			for k := range w.srv.redirects {
				keys = append(keys, k)
			}
			if len(keys) == 0 {
				t.Fatal("no stale hint redirects")
			}
			sort.Strings(keys)
			u, err := urlutil.Parse(keys[0])
			if err != nil {
				t.Fatal(err)
			}
			return get(u), nil
		}, ""},
		{"not in archive", 404, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			u := w.root
			u.Path = "/no/such/resource.js"
			return get(u), nil
		}, ""},
		{"injected 503", 503, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			w.srv.Faults = faults.New(7, faults.Config{ErrorRate: 1})
			return get(w.asset), nil
		}, ""},
		{"shed hints", 200, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			*w.now = w.now.Add(100 * time.Hour) // past MaxStale: the store sheds
			return get(w.root), nil
		}, DegradedShedHints},
		{"admission refusal", 503, func(t *testing.T, w *parityWorld) (*h2.Request, func()) {
			w.srv.Gate = overload.NewGate(overload.Config{MaxConcurrent: 1})
			if err := w.srv.Gate.Acquire(time.Time{}); err != nil {
				t.Fatal(err)
			}
			req := get(w.asset)
			req.Header[HeaderDeadline] = []string{"1"}
			return req, w.srv.Gate.Release
		}, DegradedShedRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := map[string]*h2.Response{}
			var direct []hints.Hint
			for _, proto := range []string{"h1", "h2"} {
				w := newParityWorld(t)
				direct = w.direct
				req, after := tc.setup(t, w)
				got[proto] = fetchOver(t, proto, w.srv, req)
				if after != nil {
					after()
				}
			}
			a, b := got["h1"], got["h2"]
			if a.Status != tc.status || b.Status != tc.status {
				t.Fatalf("status h1 %d, h2 %d, want %d", a.Status, b.Status, tc.status)
			}
			if !reflect.DeepEqual(a.Header, b.Header) {
				t.Errorf("headers differ:\nh1 %v\nh2 %v", a.Header, b.Header)
			}
			if string(a.Body) != string(b.Body) {
				t.Errorf("bodies differ: h1 %d bytes %.40q, h2 %d bytes %.40q", len(a.Body), a.Body, len(b.Body), b.Body)
			}
			if got := a.Header[HeaderDegraded]; tc.degraded != "" && (len(got) != 1 || got[0] != tc.degraded) {
				t.Errorf("degraded tag %v, want %s", got, tc.degraded)
			}
			if n := len(hints.Parse(a.Header)); tc.name == "document with hints" && n != len(direct) {
				t.Errorf("document carries %d hints, want the resolver's %d", n, len(direct))
			}
		})
	}
}

// TestServeAllocs pins what the serving core allocates per request, with a
// store and a gate and no transport: the memoized document answer and a
// subresource, called through ServeH1.
func TestServeAllocs(t *testing.T) {
	w := newParityWorld(t)
	w.srv.Gate = overload.NewGate(overload.Config{MaxConcurrent: 64})
	hdr := map[string][]string{HeaderDeadline: {"5000"}}
	for _, c := range []struct {
		name string
		u    urlutil.URL
		max  float64
	}{{"document", w.root, 9}, {"asset", w.asset, 7}} {
		req := &h2.Request{Method: "GET", Scheme: "https", Authority: c.u.Host, Path: c.u.Path, Header: hdr}
		w.srv.ServeH1(req) // fills the memo
		allocs := testing.AllocsPerRun(200, func() {
			if resp := w.srv.ServeH1(req); resp.Status != 200 {
				t.Fatalf("%s answered %d", c.name, resp.Status)
			}
		})
		t.Logf("%s: %.1f allocs", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs per request, want <= %.0f", c.name, allocs, c.max)
		}
	}
}
