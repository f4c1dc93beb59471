// Package wire runs Vroom over real connections: an HTTP/2 replay server
// that attaches dependency hints and pushes high-priority same-origin
// resources, and a staged client that fetches a page the way Vroom's
// request scheduler does (§5). Together with netem links these form the
// live-wire counterpart of the simulation.
package wire

import (
	"bytes"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"vroom/internal/core"
	"vroom/internal/faults"
	"vroom/internal/h1"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/obs"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// Degradation protocol headers. The client sends its remaining per-attempt
// budget so the server's admission queue never holds a request past the
// moment its client would give up; the server tags every response it
// degraded so clients and load tests can account for shed work.
const (
	// HeaderDeadline carries the client's remaining header budget in
	// integer milliseconds.
	HeaderDeadline = "vroom-deadline-ms"
	// HeaderDegraded lists the degradation modes applied to a response,
	// comma-separated.
	HeaderDegraded = "vroom-degraded"
)

// Degradation mode tokens carried in HeaderDegraded, one per rung actually
// taken. "shed-request" appears on 503s from admission control; the others
// ride on otherwise-normal responses.
const (
	DegradedStaleHints  = "stale-hints"
	DegradedShedHints   = "shed-hints"
	DegradedShedPush    = "shed-push"
	DegradedShedRequest = "shed-request"
	// DegradedStaleRestore tags hints served from a table restored off disk
	// at cold start that background retraining has not refreshed yet:
	// correct as of the previous process, possibly behind the site's churn.
	DegradedStaleRestore = "stale-restore"
)

// ServerConfig controls the replay server's Vroom behaviour.
type ServerConfig struct {
	// SendHints attaches Table-1 headers to HTML responses.
	SendHints bool
	// Push pushes high-priority same-origin dependencies of HTML
	// responses.
	Push bool
	// ThinkTime delays every response, emulating backend work.
	ThinkTime time.Duration
}

// Server replays an archive over HTTP/2, serving every authority in the
// archive (clients open one connection per origin, all reaching this
// server, exactly like Mahimahi's shells).
type Server struct {
	Archive  *replay.Archive
	Resolver *core.Resolver
	Device   webpage.DeviceClass
	Cfg      ServerConfig

	// Faults, when set, injects seeded server-side failures into replayed
	// responses: stale hints (404s and redirects to the moved content) and
	// transient 503s. Wire-level faults — outages, brownouts, resets,
	// stalls, truncation — belong to netem.FaultShim on the client's dials;
	// both sides can share one Plan (its methods serialize internally).
	Faults *faults.Plan

	// Store, when set, serves hints from the multi-tenant hint store keyed
	// by document host; Resolver remains the fallback for origins the store
	// does not hold. Set before Serve.
	Store *hintstore.Store
	// Gate, when set, applies admission control and drives the degradation
	// ladder: a request refused admission is answered 503 (retryable), a
	// loaded-but-admitting gate sheds push first and hints next, never the
	// response. Set before Serve.
	Gate *overload.Gate

	// Log, when set, emits structured serving-path events: sheds and
	// injected faults at Debug (stamped with the caller's trace ID when one
	// was propagated), drains at Info. Nil disables logging.
	Log *slog.Logger

	// Acct, when set, reconciles emitted hints and pushed resources against
	// the requests that arrive (see Accountant). Nil disables accounting at
	// zero cost. Set before Serve.
	Acct *Accountant

	h1srv *h1.Server
	h2srv *h2.Server

	mu sync.Mutex
	// redirects remembers mangled stale-hint URLs -> fresh URLs so the
	// server can answer the client's fetch of a stale hint with a 301.
	redirects map[string]string

	trace *obs.Tracer
	reg   *telemetry.Registry
	mReqs map[string]*telemetry.Counter // by proto
	mPush *telemetry.Counter
	mShed *telemetry.Counter
	// Bounded per-origin breakdowns (requests/shed/degraded), nil when
	// uninstrumented.
	vReqs *telemetry.CounterVec
	vShed *telemetry.CounterVec
	vDegr *telemetry.CounterVec

	// bodies memoizes the per-record response bytes (archive bodies are
	// strings; fillers are synthesized). Keyed by *replay.Record, so the
	// cache is bounded by the archive. The cached slices are shared across
	// responses and written straight to the wire, which only ever reads
	// them; nothing in the serving path may mutate a body it got from
	// body().
	bodies sync.Map
}

// NewServer builds a replay server. resolver may be nil when hints are
// disabled.
func NewServer(a *replay.Archive, resolver *core.Resolver, device webpage.DeviceClass, cfg ServerConfig) *Server {
	s := &Server{Archive: a, Resolver: resolver, Device: device, Cfg: cfg,
		redirects: make(map[string]string)}
	// Both transports refuse work outright (h2 REFUSED_STREAM, h1 503 —
	// both retryable) once the gate could only shed it anyway; cheaper than
	// running the handler to say 503. Saturated is nil-gate safe.
	saturated := func() bool { return s.Gate.Saturated() }
	s.h1srv = &h1.Server{Handler: s, Overloaded: saturated}
	s.h2srv = &h2.Server{Handler: s, Overloaded: saturated}
	return s
}

// H1 exposes the HTTP/1.1 transport for Serve/Close.
func (s *Server) H1() *h1.Server { return s.h1srv }

// H2 exposes the HTTP/2 transport for Serve/Close.
func (s *Server) H2() *h2.Server { return s.h2srv }

// Instrument attaches tracing and metrics to the server and its HTTP/2
// core: request/push/injected-fault counters here, connection and drain
// gauges below. Call before Serve; nil arguments cost nothing.
func (s *Server) Instrument(tr *obs.Tracer, reg *telemetry.Registry) {
	s.trace = tr
	s.h2srv.Trace = tr
	s.h2srv.Metrics = reg
	s.reg = reg
	if reg == nil {
		return
	}
	reg.Describe("vroom_server_requests_total", "Requests served, by protocol.")
	reg.Describe("vroom_server_pushes_total", "Resources pushed to clients.")
	reg.Describe("vroom_server_injected_faults_total", "Seeded server-side faults served, by kind.")
	reg.Describe("vroom_server_shed_total", "Requests refused by admission control (503).")
	reg.Describe("vroom_server_degraded_total", "Degraded responses, by mode (stale-hints, shed-hints, shed-push).")
	s.mReqs = map[string]*telemetry.Counter{
		"h1": reg.Counter("vroom_server_requests_total", telemetry.L("proto", "h1")),
		"h2": reg.Counter("vroom_server_requests_total", telemetry.L("proto", "h2")),
	}
	s.mPush = reg.Counter("vroom_server_pushes_total")
	s.mShed = reg.Counter("vroom_server_shed_total")
	reg.Describe("vroom_server_origin_requests_total", "Requests served, by origin (bounded cardinality).")
	reg.Describe("vroom_server_origin_shed_total", "Requests refused by admission control, by origin.")
	reg.Describe("vroom_server_origin_degraded_total", "Degraded responses, by origin and mode.")
	s.vReqs = reg.CounterVec("vroom_server_origin_requests_total", "origin", 0)
	s.vShed = reg.CounterVec("vroom_server_origin_shed_total", "origin", 0)
	s.vDegr = reg.CounterVec("vroom_server_origin_degraded_total", "origin", 0)
	if s.Store != nil {
		s.Store.Instrument(reg)
	}
}

// noteRequest counts one served request.
func (s *Server) noteRequest(proto, origin string) {
	s.mReqs[proto].Inc()
	s.vReqs.With(origin).Inc()
}

// serveTrace is one request's adopted trace context: the serve span
// wrapping the handler plus the flow/trace IDs parsed from the client's
// obs.TraceHeader (empty when the client didn't propagate one). The zero
// value is the untraced fast path.
type serveTrace struct {
	span  obs.Span
	flow  string // the obs.TraceHeader value, verbatim — the ArgFlow value
	trace string // the 16-hex trace half, for ArgTrace and log stamping
}

// traceArgs appends the adopted flow/trace args to extra. Only called on
// enabled-tracer paths, so the append may allocate.
func (st *serveTrace) traceArgs(extra ...obs.Arg) []obs.Arg {
	if st.flow == "" {
		return extra
	}
	return append(extra,
		obs.Arg{Key: obs.ArgFlow, Val: st.flow},
		obs.Arg{Key: obs.ArgTrace, Val: st.trace})
}

// beginServe parses the request's propagated trace context and opens the
// serve span wrapping the whole handler. Cheap when neither tracing nor
// logging is on.
func (s *Server) beginServe(proto string, r *h2.Request) serveTrace {
	var st serveTrace
	if s.trace == nil && s.Log == nil {
		return st
	}
	if vals := r.Header[obs.TraceHeader]; len(vals) > 0 {
		if tc, ok := obs.ParseTraceHeader(vals[0]); ok {
			st.flow = vals[0]
			st.trace = tc.TraceID()
		}
	}
	if s.trace.Enabled() {
		st.span = s.trace.Begin(obs.TrackServer, "serve",
			st.traceArgs(obs.Arg{Key: "proto", Val: proto}, obs.Arg{Key: "path", Val: r.Path})...)
	}
	return st
}

// child opens a server-side sub-span carrying the request's adopted
// context, so every stage of the serving path joins the caller's flow.
func (s *Server) child(st *serveTrace, name string, extra ...obs.Arg) obs.Span {
	if !st.span.Active() {
		return obs.Span{}
	}
	return s.trace.Begin(obs.TrackServer, name, st.traceArgs(extra...)...)
}

// noteShed counts one request refused by admission.
func (s *Server) noteShed(st *serveTrace, origin string) {
	s.mShed.Inc()
	s.vShed.With(origin).Inc()
	if s.trace.Enabled() {
		s.trace.Instant(obs.TrackServer, "request-shed", st.traceArgs()...)
	}
	if s.Log != nil {
		s.Log.Debug("request shed", "trace", st.trace)
	}
}

// degrade tags a response's header map with the degradation modes taken,
// counts them, and records the ladder decision against the caller's trace.
func (s *Server) degrade(h map[string][]string, modes []string, st *serveTrace, origin string) {
	if len(modes) == 0 {
		return
	}
	h[HeaderDegraded] = []string{strings.Join(modes, ", ")}
	if s.reg != nil {
		for _, m := range modes {
			s.reg.Counter("vroom_server_degraded_total", telemetry.L("mode", m)).Inc()
		}
	}
	s.vDegr.With(origin).Add(int64(len(modes)))
	if s.trace.Enabled() {
		s.trace.Instant(obs.TrackServer, "degrade",
			st.traceArgs(obs.Arg{Key: "modes", Val: strings.Join(modes, ",")})...)
	}
	if s.Log != nil {
		s.Log.Debug("response degraded", "modes", strings.Join(modes, ","), "trace", st.trace)
	}
}

// requestDeadline derives the server-side admission deadline from the
// client's HeaderDeadline budget. Zero means no deadline was sent.
func requestDeadline(r *h2.Request) time.Time {
	vals := r.Header[HeaderDeadline]
	if len(vals) == 0 {
		return time.Time{}
	}
	ms, err := strconv.Atoi(vals[0])
	if err != nil || ms <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond)
}

// admit runs a request through the admission gate. On refusal it returns
// the gate's error; otherwise the slot is held until release is called.
// The admission span covers exactly the gate wait — the queueing a
// propagated trace exists to make visible.
func (s *Server) admit(r *h2.Request, st *serveTrace) (release func(), err error) {
	as := s.child(st, "admission")
	if err := s.Gate.Acquire(requestDeadline(r)); err != nil {
		as.End(obs.Arg{Key: "result", Val: "shed"})
		s.noteShed(st, r.Authority)
		return nil, err
	}
	as.End(obs.Arg{Key: "result", Val: "admitted"})
	return func() { s.Gate.Release() }, nil
}

// hintsFor resolves a document's hints through the store (multi-tenant,
// stale-while-revalidate) or the fallback resolver, appending any
// degradation modes taken to degraded. The hint-lookup span records which
// source answered and whether the store's table had the answer memoized,
// tied to the caller's flow.
//
// With a store and no fault plan, hs and headers are the table's shared
// hintstore.Answer — headers being hints.Format(hs), rendered once — and
// are read-only here and in everything they are handed to. headers is nil
// when the caller has to render hs itself: under a fault plan (StaleHints
// rewrites a copy per response) and on the fallback path.
func (s *Server) hintsFor(u urlutil.URL, body string, degraded *[]string, st *serveTrace) (hs []hints.Hint, headers map[string][]string) {
	var sp obs.Span
	if st.span.Active() { // untraced, do not even build the url argument
		sp = s.child(st, "hint-lookup", obs.Arg{Key: "url", Val: u.String()})
	}
	source, memo := "none", "none"
	defer func() {
		sp.End(obs.Arg{Key: "source", Val: source}, obs.Arg{Key: "memo", Val: memo})
	}()
	// Fallback hints carry no table identity, so no staleness age.
	var age time.Duration
	fromStore := false
	if s.Store != nil {
		ans, res := s.Store.LookupAnswer(u, body)
		if res.Restored && res.Source != hintstore.Miss {
			*degraded = append(*degraded, DegradedStaleRestore)
		}
		switch res.Source {
		case hintstore.Fresh, hintstore.Stale:
			source = res.Source.String()
			if res.Source == hintstore.Stale {
				*degraded = append(*degraded, DegradedStaleHints)
			}
			memo = "miss"
			if res.Memoized {
				memo = "hit"
			}
			hs, headers, age, fromStore = ans.Hints, ans.Headers, res.Age, true
		case hintstore.Shed:
			source = "shed"
			*degraded = append(*degraded, DegradedShedHints)
			return nil, nil
		}
		// Miss: the origin is not a store tenant; fall back.
	}
	if !fromStore {
		if s.Resolver == nil {
			return nil, nil
		}
		source = "fallback"
		hs = s.Resolver.HintsFor(u, body, s.Device)
	}
	if s.Faults != nil {
		hs, headers = s.Faults.StaleHints(hs, s.noteRedirect), nil
	}
	s.Acct.NoteHints(u.Host, hs, age, fromStore)
	return hs, headers
}

// setHintHeaders attaches a document's hint headers to a response's header
// map: the store's pre-rendered set when there is one, a fresh rendering of
// hs otherwise. The value slices are shared with the store and only read
// from here to the wire.
func setHintHeaders(dst map[string][]string, hs []hints.Hint, headers map[string][]string) {
	if headers == nil {
		headers = hints.Format(hs)
	}
	for name, vals := range headers {
		dst[name] = vals
	}
}

// noteFault counts one injected fault served to a client.
func (s *Server) noteFault(kind, url string, st *serveTrace) {
	if s.reg != nil {
		s.reg.Counter("vroom_server_injected_faults_total", telemetry.L("kind", kind)).Inc()
	}
	if s.trace.Enabled() {
		s.trace.Instant(obs.TrackServer, "injected-fault",
			st.traceArgs(obs.Arg{Key: "kind", Val: kind}, obs.Arg{Key: "url", Val: url})...)
	}
	if s.Log != nil {
		s.Log.Debug("injected fault", "kind", kind, "url", url, "trace", st.trace)
	}
}

// Drain gracefully shuts the serving path down: the admission gate sheds
// its queue and refuses new work; the transport that served lets in-flight
// exchanges finish within timeout (h2 sends GOAWAY and refuses new streams
// retryably, h1 answers with "connection: close" and cuts idle
// connections), while one that never served records nothing; the
// accountant flushes its open windows; and the hint store cancels
// in-flight retraining and checkpoints every shard. The caller closes its
// listener. The returned checkpoints are nil when no store is attached.
func (s *Server) Drain(timeout time.Duration) []hintstore.Checkpoint {
	if s.Log != nil {
		s.Log.Info("drain started", "timeout", timeout)
	}
	s.Gate.Drain()
	s.h1srv.Drain(timeout)
	s.h2srv.Drain(timeout)
	if n := s.Acct.Flush(); n > 0 && s.Log != nil {
		s.Log.Debug("accounting flushed", "windows", n)
	}
	cps := s.Store.Drain(timeout)
	if s.Log != nil {
		s.Log.Info("drain finished", "checkpoints", len(cps))
	}
	return cps
}

// reply is one request's answer as both transports send it; its header
// fields are already in the map answer was given.
type reply struct {
	status int
	body   []byte
	// release frees the admission slot, nil when admission refused the
	// request. How long the slot is held is the transport's call.
	release func()
	// hs and level are an HTML document's hints and the ladder rung read
	// while answering it: what push decides with.
	hs    []hints.Hint
	level overload.Level
	// degraded lists the degradation modes taken; the transport adds its
	// own and tags the response (degrade).
	degraded []string
}

// answer runs a request through admission and works out its response: the
// 503 refusal, a stale-hint 301, the archive lookup and 404, an injected
// 503, or the replayed record with, for an HTML document, its hint headers.
// Header fields go into h. A document's hints are looked up when the server
// sends hint headers or when it pushes over a transport that can (h2 only).
func (s *Server) answer(proto string, r *h2.Request, st *serveTrace, h map[string][]string) (rp reply) {
	release, err := s.admit(r, st)
	if err != nil {
		h["retry-after"] = []string{"1"}
		h[HeaderDegraded] = []string{DegradedShedRequest}
		rp.status, rp.body = text(h, 503, "server overloaded: "+err.Error())
		return rp
	}
	rp.release = release
	if s.Cfg.ThinkTime > 0 {
		time.Sleep(s.Cfg.ThinkTime)
	}
	s.noteRequest(proto, r.Authority)

	key := "https://" + r.Authority + r.Path
	if fresh := s.redirectFor(key); fresh != "" {
		s.Acct.NoteRequest(r.Authority, key, false)
		s.noteFault("stale-redirect", key, st)
		h["location"] = []string{fresh}
		rp.status, rp.body = text(h, 301, "moved: "+fresh)
		return rp
	}
	rec, ok := s.Archive.Lookup(key)
	if !ok && r.Scheme != "https" {
		// Tolerate scheme differences in lookups.
		rec, ok = s.Archive.Lookup(r.Scheme + "://" + r.Authority + r.Path)
	}
	if !ok {
		s.Acct.NoteRequest(r.Authority, key, false)
		rp.status, rp.body = text(h, 404, "not in archive: "+key)
		return rp
	}
	isHTML := rec.ResourceType() == webpage.HTML
	s.Acct.NoteRequest(r.Authority, key, isHTML)
	if s.faulted(rec) {
		s.noteFault("transient-503", key, st)
		rp.status, rp.body = text(h, 503, "injected transient error")
		return rp
	}

	h["content-type"] = []string{contentType(rec)}
	rp.status, rp.body = 200, s.body(rec)
	if isHTML && (s.Cfg.SendHints || proto == "h2" && s.Cfg.Push) {
		// The degradation ladder, read once per response: shed push first,
		// hints next, never the response body itself.
		rp.level = s.Gate.Level()
		var headers map[string][]string
		if rp.level >= overload.LevelShedHints {
			rp.degraded = append(rp.degraded, DegradedShedHints)
		} else if u, err := rec.ParsedURL(); err == nil {
			rp.hs, headers = s.hintsFor(u, rec.Body, &rp.degraded, st)
		}
		if s.Cfg.SendHints && len(rp.hs) > 0 {
			setHintHeaders(h, rp.hs, headers)
		}
	}
	return rp
}

// text writes a plain-text answer's content type and returns its status
// and body.
func text(h map[string][]string, status int, msg string) (int, []byte) {
	h["content-type"] = []string{"text/plain"}
	return status, []byte(msg)
}

// ServeH1 implements h1.Handler: the same replay content over HTTP/1.1.
// Dependency hints still work (Link headers predate HTTP/2) but there is
// no push. The admission slot is released before the transport writes the
// response.
func (s *Server) ServeH1(r *h2.Request) *h2.Response {
	st := s.beginServe("h1", r)
	defer st.span.End()
	h := make(map[string][]string)
	rp := s.answer("h1", r, &st, h)
	if rp.release != nil {
		defer rp.release()
	}
	s.degrade(h, rp.degraded, &st, r.Authority)
	return &h2.Response{Status: rp.status, Header: h, Body: rp.body}
}

// ServeH2 implements h2.Handler. Push is the only step HTTP/2 adds to the
// answer; the admission slot is held until the body is written.
func (s *Server) ServeH2(w *h2.ResponseWriter, r *h2.Request) {
	st := s.beginServe("h2", r)
	defer st.span.End()
	rp := s.answer("h2", r, &st, w.Header())
	if rp.release != nil {
		defer rp.release()
	}
	if s.Cfg.Push && len(rp.hs) > 0 {
		// Shed push under queueing, and when the client is nearly out of
		// budget: speculative bytes now would only compete with the
		// response it is waiting for.
		if dl := requestDeadline(r); rp.level >= overload.LevelShedPush ||
			!dl.IsZero() && time.Until(dl) < 10*time.Millisecond {
			rp.degraded = append(rp.degraded, DegradedShedPush)
		} else {
			s.push(w, r, rp.hs, &st)
		}
	}
	s.degrade(w.Header(), rp.degraded, &st, r.Authority)
	w.WriteHeader(rp.status)
	w.Write(rp.body)
}

// push pushes same-origin high-priority dependencies, once per URL per
// connection. Each pushed write runs under its own span carrying the
// requesting fetch's flow, so its cost lands on the triggering load.
func (s *Server) push(w *h2.ResponseWriter, r *h2.Request, hs []hints.Hint, st *serveTrace) {
	docURL := urlutil.URL{Scheme: "https", Host: r.Authority, Path: r.Path}
	for _, u := range core.PushSet(hs, docURL, false) {
		key := u.String()
		rec, ok := s.Archive.Lookup(key)
		if !ok {
			continue
		}
		pw, err := w.PushOnce(&h2.Request{Scheme: u.Scheme, Authority: u.Host, Path: u.Path})
		if err != nil {
			return // peer disabled push
		}
		if pw == nil {
			continue // already pushed on this connection
		}
		s.mPush.Inc()
		// Body bytes are known at push-decision time (memoized), so the
		// accountant can mark the prediction window pushed before the client
		// could possibly react to it.
		body := s.body(rec)
		s.Acct.NotePush(u.Host, key, int64(len(body)))
		if s.trace.Enabled() {
			s.trace.Instant(obs.TrackServer, "push", st.traceArgs(obs.Arg{Key: "url", Val: key})...)
		}
		// Begin the span here, not in the goroutine: the push decision is
		// part of serving the document, so the span opens before the client
		// can possibly see the HTML (a snapshot taken after the load always
		// contains it); the End still marks when the bytes were flushed.
		ps := s.child(st, "push-write", obs.Arg{Key: "url", Val: key})
		go func(rec *replay.Record, body []byte, ps obs.Span) {
			pw.Header()["content-type"] = []string{contentType(rec)}
			pw.Write(body)
			pw.Close()
			ps.End(obs.Arg{Key: "bytes", Val: strconv.Itoa(len(body))})
		}(rec, body, ps)
	}
}

// noteRedirect remembers a stale hint the fault plan redirects, so the
// lookup path can answer the client's fetch of it with a 301.
func (s *Server) noteRedirect(stale, fresh urlutil.URL) {
	s.mu.Lock()
	s.redirects[stale.String()] = fresh.String()
	s.mu.Unlock()
}

// redirectFor returns the fresh URL a stale-hint redirect points at, or "".
func (s *Server) redirectFor(key string) string {
	if s.Faults == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redirects[key]
}

// faulted reports whether the plan injects a transient server error (503)
// for this record's URL. Wire-level verdicts (truncate/stall/reset) are
// drawn separately by the netem shim; only FaultError is a server concern.
func (s *Server) faulted(rec *replay.Record) bool {
	if s.Faults == nil {
		return false
	}
	u, err := rec.ParsedURL()
	if err != nil {
		return false
	}
	return s.Faults.ResponseVerdict(u) == faults.FaultError
}

// body returns the record's bytes: real content for text resources,
// deterministic filler for binary ones (sizes are what matter on the
// wire). Bodies are built once per record and memoized — converting the
// archive string per response was a whole-body allocation on every
// request. The returned slice is shared: treat it as read-only.
func (s *Server) body(rec *replay.Record) []byte {
	if b, ok := s.bodies.Load(rec); ok {
		return b.([]byte)
	}
	var b []byte
	if rec.Body != "" {
		b = []byte(rec.Body)
	} else {
		n := rec.Size
		if n <= 0 {
			n = 1
		}
		b = bytes.Repeat([]byte{0xa5}, n)
	}
	actual, _ := s.bodies.LoadOrStore(rec, b)
	return actual.([]byte)
}

func contentType(rec *replay.Record) string {
	switch rec.ResourceType() {
	case webpage.HTML:
		return "text/html; charset=utf-8"
	case webpage.CSS:
		return "text/css"
	case webpage.JS:
		return "application/javascript"
	case webpage.Image:
		return "image/jpeg"
	case webpage.Font:
		return "font/woff2"
	case webpage.JSON:
		return "application/json"
	case webpage.Media:
		return "video/mp4"
	default:
		return "application/octet-stream"
	}
}

// TrainResolver builds and trains a resolver for a site the way a
// Vroom-compliant deployment would, ready to hand to NewServer.
func TrainResolver(site *webpage.Site, at time.Time, device webpage.DeviceClass) *core.Resolver {
	r := core.NewResolver(core.DefaultResolverConfig())
	r.Train(site, at, device)
	return r
}

var _ h2.Handler = (*Server)(nil)
