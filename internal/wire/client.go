package wire

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/browser"
	"vroom/internal/core"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// ErrKind classifies why a fetch failed, so degraded loads report typed
// failures instead of opaque error strings.
type ErrKind string

// Fetch failure kinds.
const (
	FetchOK             ErrKind = ""
	FetchDial           ErrKind = "dial"            // origin unreachable
	FetchTimeoutHeaders ErrKind = "timeout-headers" // no response headers in time
	FetchTimeoutStall   ErrKind = "timeout-stall"   // transfer stalled mid-body
	FetchStream         ErrKind = "stream"          // stream-level reset
	FetchConn           ErrKind = "conn"            // connection-level failure
	FetchHTTP           ErrKind = "http"            // 5xx after retries
	FetchRedirect       ErrKind = "redirect"        // hop cap or bad location
	FetchBreaker        ErrKind = "breaker"         // origin circuit breaker open
	FetchDeadline       ErrKind = "deadline"        // overall load deadline hit
)

// FetchRecord is one fetch (completed or failed) in a wire page load.
type FetchRecord struct {
	URL      string
	Priority hints.Priority
	Pushed   bool
	Status   int
	Bytes    int
	Start    time.Time
	Done     time.Time

	// Failure fields: a degraded load reports every fetch it could not
	// complete with a typed kind, the retries it spent, and whether a
	// client-imposed deadline (not the server) ended it.
	Err       string
	ErrKind   ErrKind
	Retries   int
	TimedOut  bool
	Redirects int
	// FinalURL is the post-redirect URL the response was actually served
	// from (equal to URL when no redirect was followed; empty on failure).
	FinalURL string
	// Degraded carries the server's degradation tag for this response
	// (comma-separated mode tokens from the vroom-degraded header), empty
	// when the server served full service.
	Degraded string
}

// Failed reports whether this fetch ended in an error.
func (f *FetchRecord) Failed() bool { return f.ErrKind != FetchOK }

// PushQuality is one origin's outcomes as the client settled them with
// hints.Settle. Its push half is the authoritative pushed = used + wasted
// split: a used push never re-crosses the wire, so only the client can
// tell a hit from pure waste.
type PushQuality struct {
	Origin string
	hints.QualityDelta
}

// Report summarizes a wire page load.
type Report struct {
	Root     string
	Started  time.Time
	Finished time.Time
	Fetches  []FetchRecord
	// Pushed counts the pushes that arrived. One the page never asked for
	// gets a fetch record; one that landed after the page fetched it, none.
	Pushed int
	Bytes  int64

	// Failed counts fetches that ended in an error; Retries totals retry
	// attempts across the load; DeadlineHit marks a load cut short by
	// LoadDeadline (the report is partial but complete per-URL).
	Failed      int
	Retries     int
	DeadlineHit bool
	// Degraded counts completed fetches the server tagged as degraded
	// (stale or shed hints, shed push).
	Degraded int
	// PushQuality breaks the settled outcomes down per origin, sorted by
	// origin; an origin with nothing to settle has no entry.
	PushQuality []PushQuality
}

// Total returns the wall-clock load duration.
func (r *Report) Total() time.Duration { return r.Finished.Sub(r.Started) }

// OriginConn is one origin's transport: HTTP/2 (h2.ClientConn) or an
// HTTP/1.1 connection pool (h1.Pool) — anything that can exchange
// request/response pairs under per-attempt header and stall deadlines and
// report push promises.
type OriginConn interface {
	RoundTripTimeout(req *h2.Request, header, stall time.Duration) (*h2.Response, error)
	Promised(path string) (*h2.Request, bool)
	Close() error
}

// selfHealing marks transports that replace broken connections internally
// (h1.Pool); the client never evicts those.
type selfHealing interface{ SelfHealing() bool }

// Per-load bounds on a broken world.
const (
	// retryBudget caps total retries across the load, so a broken world
	// cannot multiply traffic.
	retryBudget = 16
	// breakerThreshold trips an origin's circuit breaker after that many
	// consecutive failures: further fetches fail fast instead of burning
	// timeouts.
	breakerThreshold = 4
	// redirectHops caps how many 3xx hops one fetch follows.
	redirectHops = 5
)

// Client loads pages over real connections, one transport per origin,
// using either Vroom's staged scheduling or plain fetch-on-discovery.
//
// The load path is built to survive broken worlds: per-attempt dial,
// header, and body-stall timeouts; budgeted retries for idempotent GETs;
// eviction of broken connections with one re-dial per origin; a per-origin
// circuit breaker; and an overall load deadline after which LoadPage
// returns a partial — but per-URL complete — Report rather than an error.
type Client struct {
	// Dial opens a raw transport to an origin ("https://host"), carried
	// over HTTP/2. With netem, every origin dials the same emulated
	// listener.
	Dial func(origin string) (net.Conn, error)
	// DialOrigin, when set, takes precedence over Dial and may return any
	// OriginConn — e.g. an h1.Pool for HTTP/1.1 baselines.
	DialOrigin func(origin string) (OriginConn, error)
	// Staged enables Vroom's staged scheduler; false means baseline
	// fetch-ASAP.
	Staged bool

	// DialTimeout bounds one dial attempt (default 10s). HeaderTimeout
	// bounds time-to-response-headers and StallTimeout bounds any gap in
	// body progress (defaults 5s each; h1 uses their sum as one exchange
	// watchdog). LoadDeadline bounds the whole page load (default 2m).
	DialTimeout   time.Duration
	HeaderTimeout time.Duration
	StallTimeout  time.Duration
	LoadDeadline  time.Duration

	// Retry governs per-URL replay of failed idempotent fetches; unset
	// fields take browser.DefaultRetryPolicy's (3 attempts, 250ms first
	// backoff, 4s cap). Across the load, retries stop at retryBudget.
	Retry browser.RetryPolicy

	// Trace, when non-nil, records the load lifecycle on the wall clock:
	// per-fetch spans with outcome args, dial spans, backoff waits, retry
	// and redirect instants, breaker trips, push deliveries. Use
	// obs.NewWall — fetches emit concurrently. Nil costs nothing.
	Trace *obs.Tracer
	// Propagate, with Trace set, mints a per-load trace ID and sends a
	// per-fetch trace context to the server in the obs.TraceHeader request
	// header; the fetch span carries the same context as obs.ArgFlow, so a
	// server recording scraped from /trace can be merged into this load's
	// and stitched by flow events. No-op without Trace (there are no spans
	// to join); the disabled path stays allocation-free.
	Propagate bool
	// Metrics, when non-nil, feeds the live metrics plane: per-origin
	// request/retry/failure/redirect counters, fetch-phase latency
	// histograms, push utilization, breaker and connection gauges. Nil
	// costs nothing.
	Metrics *telemetry.Registry

	mu      sync.Mutex
	origins map[string]*originState
	// seen holds what the load learned about every URL it touched, settled
	// by hints.Settle at load end.
	seen        map[string]urlFacts
	inflight    map[string]*inflightFetch
	retriesUsed int
	// gate holds back Semi and Low fetches under Staged (unused otherwise).
	gate        core.Stages[urlutil.URL]
	pushedResp  map[string]*h2.Response
	pushWaiters map[string][]chan *h2.Response
	report      *Report
	doneCh      chan struct{}
	cancel      chan struct{}
	finished    bool
	lt          loadTelemetry

	// vecs bounds the per-origin metric families; built once on first use
	// (zero value no-ops when Metrics is nil).
	vecsOnce sync.Once
	vecs     clientVecs

	// traceID is the per-load trace identity (zero unless Propagate);
	// fetchSeq numbers the fetch contexts minted under it.
	traceID  uint64
	fetchSeq atomic.Uint64
}

// originState is one origin's connection lifecycle: the live conn, the
// in-flight dial (singleflight), the redial budget, and the breaker count.
type originState struct {
	conn    OriginConn
	dialing chan struct{}
	// everConnected gates the redial budget: initial dial attempts are
	// bounded by the breaker, re-dials after eviction by redials.
	everConnected bool
	redials       int
	// fails counts consecutive failures; breakerThreshold trips on it.
	fails int

	// Telemetry handles, resolved once per origin (nil when metrics are
	// off; nil handles no-op).
	mReqs    *telemetry.Counter
	mBreaker *telemetry.Gauge
	mConns   *telemetry.Gauge
}

// urlFacts is what one load learned about a URL.
type urlFacts struct {
	host               string
	doc                bool
	queued             bool          // a fetch was queued, or a redirect reached it
	hinted             bool          // a hint header named it
	needed             bool          // a body reference named it (the root counts)
	pushed             bool          // its push arrived
	claimed            bool          // a fetch's response came from that push
	neededAt, pushedAt time.Duration // first need and push arrival, from load start
}

type inflightFetch struct {
	prio    hints.Priority
	start   time.Time
	retries int
	// flow is the propagated trace context for this fetch — the
	// obs.TraceHeader value sent on every attempt and the obs.ArgFlow value
	// on the fetch span. Empty when propagation is off. Written once by the
	// fetch goroutine before any attempt; never read by other goroutines.
	flow string
}

// fetchOutcome carries a fetch's failure typing back to the recorder.
type fetchOutcome struct {
	err       error
	kind      ErrKind
	status    int
	timedOut  bool
	redirects int
	finalURL  urlutil.URL
	// degraded is the union of vroom-degraded tokens seen on every
	// response of this fetch — retried 5xx attempts and redirect hops
	// included — not just the final one.
	degraded string
}

// errLoadOver aborts work that outlived the load (deadline or completion).
var errLoadOver = errors.New("wire: load finished")

// errRedialBudget fails an origin whose evicted conn was already re-dialed.
var errRedialBudget = errors.New("wire: origin redial budget exhausted")

// breakerOpenError fails fast on an origin with too many consecutive
// failures.
type breakerOpenError struct{ origin string }

func (e breakerOpenError) Error() string {
	return "wire: circuit breaker open for " + e.origin
}

// dialError wraps any failure to produce a usable origin connection.
type dialError struct {
	origin string
	err    error
}

func (e *dialError) Error() string { return fmt.Sprintf("wire: dial %s: %v", e.origin, e.err) }
func (e *dialError) Unwrap() error { return e.err }

// Defaulted knob accessors.
func (c *Client) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 10 * time.Second
}
func (c *Client) headerTimeout() time.Duration {
	if c.HeaderTimeout > 0 {
		return c.HeaderTimeout
	}
	return 5 * time.Second
}
func (c *Client) stallTimeout() time.Duration {
	if c.StallTimeout > 0 {
		return c.StallTimeout
	}
	return 5 * time.Second
}
func (c *Client) loadDeadline() time.Duration {
	if c.LoadDeadline > 0 {
		return c.LoadDeadline
	}
	return 2 * time.Minute
}

// retry returns c.Retry with each unset field filled from
// browser.DefaultRetryPolicy.
func (c *Client) retry() browser.RetryPolicy {
	p, def := c.Retry, browser.DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = def.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = def.MaxBackoff
	}
	return p
}

// LoadPage fetches the page rooted at root and reports per-resource
// timings. A Client instance performs one load. Degraded worlds never
// produce an opaque error: failed fetches carry typed ErrKind/Retries
// fields, and if LoadDeadline passes, the partial Report (DeadlineHit set,
// every started or queued URL accounted for) is returned with a nil error.
// The only error is misconfiguration (no dialer).
func (c *Client) LoadPage(root urlutil.URL) (*Report, error) {
	if c.Dial == nil && c.DialOrigin == nil {
		return nil, fmt.Errorf("wire: Client.Dial not set")
	}
	c.origins = make(map[string]*originState)
	c.seen = make(map[string]urlFacts)
	c.inflight = make(map[string]*inflightFetch)
	c.pushedResp = make(map[string]*h2.Response)
	c.pushWaiters = make(map[string][]chan *h2.Response)
	c.gate = core.Stages[urlutil.URL]{}
	c.report = &Report{Root: root.String(), Started: time.Now()}
	c.doneCh = make(chan struct{})
	c.cancel = make(chan struct{})
	c.lt = newLoadTelemetry(c.Metrics)
	c.lt.loads.Inc()
	var loadSpan obs.Span
	if c.Trace.Enabled() {
		if c.Propagate {
			c.traceID = obs.NewTraceID()
			loadSpan = c.Trace.Begin(obs.TrackLoad, "load",
				obs.Arg{Key: "root", Val: root.String()},
				obs.Arg{Key: obs.ArgTrace, Val: obs.TraceContext{Trace: c.traceID}.TraceID()})
		} else {
			loadSpan = c.Trace.Begin(obs.TrackLoad, "load", obs.Arg{Key: "root", Val: root.String()})
		}
	}

	c.mu.Lock()
	c.enqueue(root, hints.High, false)
	c.mu.Unlock()

	timer := time.NewTimer(c.loadDeadline())
	defer timer.Stop()
	var deadlineHit bool
	select {
	case <-c.doneCh:
	case <-timer.C:
		deadlineHit = true
	}

	c.mu.Lock()
	if deadlineHit && !c.finished {
		c.finished = true
		c.report.DeadlineHit = true
		c.lt.deadlines.Inc()
		c.Trace.Instant(obs.TrackLoad, "load-deadline")
		now := time.Now()
		for key, fl := range c.inflight {
			c.report.Fetches = append(c.report.Fetches, FetchRecord{
				URL: key, Priority: fl.prio, Start: fl.start, Done: now,
				Err: "wire: load deadline exceeded", ErrKind: FetchDeadline,
				Retries: fl.retries, TimedOut: true,
			})
			c.report.Failed++
			c.report.Retries += fl.retries
		}
		c.inflight = make(map[string]*inflightFetch)
		for p, queue := range c.gate.Drain() {
			for _, u := range queue {
				c.report.Fetches = append(c.report.Fetches, FetchRecord{
					URL: u.String(), Priority: hints.Priority(p), Start: now, Done: now,
					Err:     "wire: load deadline exceeded before fetch started",
					ErrKind: FetchDeadline, TimedOut: true,
				})
				c.report.Failed++
			}
		}
	}
	c.report.Finished = time.Now()
	c.settleLocked()
	conns := make([]OriginConn, 0, len(c.origins))
	for _, os := range c.origins {
		if os.conn != nil {
			conns = append(conns, os.conn)
			os.conn = nil
		}
		os.mConns.Set(0)
	}
	report := c.report
	c.mu.Unlock()

	// Unblock backoff sleeps, push waits, and dial waits, then cut every
	// connection so no fetch goroutine can park on a dead read.
	close(c.cancel)
	for _, cc := range conns {
		cc.Close()
	}
	if loadSpan.Active() {
		loadSpan.End(obs.Arg{Key: "fetches", Val: strconv.Itoa(len(report.Fetches))},
			obs.Arg{Key: "failed", Val: strconv.Itoa(report.Failed)})
	}
	return report, nil
}

// settleLocked scores every URL the load touched with hints.Settle, and
// fills Report.Pushed, Report.PushQuality and the records of pushes the
// page never asked for from that one result. Caller holds c.mu.
func (c *Client) settleLocked() {
	rep := c.report
	// A load's outcomes span about the origins it dialed.
	byHost := make(map[string]int, len(c.origins))
	rep.PushQuality = make([]PushQuality, 0, len(c.origins))
	for key, f := range c.seen {
		o := hints.Outcome{Host: f.host, Hinted: f.hinted, Required: f.needed, Doc: f.doc,
			Pushed: f.pushed, Claimed: f.claimed, NeededAt: f.neededAt, ArrivedAt: f.pushedAt}
		resp := c.pushedResp[key]
		if f.pushed {
			o.Bytes = int64(len(resp.Body))
		}
		d := hints.Settle(o)
		if d == (hints.QualityDelta{}) {
			continue
		}
		rep.Pushed += int(d.PushedCount)
		c.lt.pushClaimed.Add(d.PushUsed)
		c.lt.pushUnclaimed.Add(d.PushWasted)
		if d.PushLeads > 0 {
			c.lt.pushLeadMs.Observe(d.PushLeadMs)
		}
		if d.PushWasted > 0 && !f.queued {
			rep.Fetches = append(rep.Fetches, FetchRecord{
				URL: key, Priority: hints.Low, Pushed: true, Status: resp.Status,
				Bytes: len(resp.Body), Start: rep.Finished, Done: rep.Finished,
			})
			rep.Bytes += o.Bytes
		}
		i, ok := byHost[f.host]
		if !ok {
			i = len(rep.PushQuality)
			byHost[f.host] = i
			rep.PushQuality = append(rep.PushQuality, PushQuality{Origin: f.host})
		}
		rep.PushQuality[i].Add(d)
	}
	slices.SortFunc(rep.PushQuality, func(a, b PushQuality) int { return strings.Compare(a.Origin, b.Origin) })
}

// facts returns key's facts (new ones for u) for the caller to update and
// store back. Caller holds c.mu.
func (c *Client) facts(u urlutil.URL, key string) urlFacts {
	f, ok := c.seen[key]
	if !ok {
		f = urlFacts{host: u.Host, doc: webpage.TypeFromURL(u) == webpage.HTML}
	}
	return f
}

// enqueue schedules a fetch of a URL a hint header or a body reference
// named: at once, or under Staged when the gate says so. A URL the gate
// still holds is handed to it again, so one the page now needs at a more
// urgent class moves up. Caller holds c.mu.
func (c *Client) enqueue(u urlutil.URL, prio hints.Priority, hinted bool) {
	key := u.String()
	f := c.facts(u, key)
	if hinted {
		f.hinted = true
	} else if !f.needed {
		f.needed, f.neededAt = true, time.Since(c.report.Started)
	}
	queued := f.queued
	f.queued = true
	c.seen[key] = f
	if queued {
		if !c.Staged {
			return
		}
		if _, held := c.gate.Queued(u); !held {
			return
		}
	}
	if !c.Staged || c.gate.Want(u, prio) {
		c.issue(u, prio)
	}
}

// issue starts a fetch goroutine. Caller holds c.mu.
func (c *Client) issue(u urlutil.URL, prio hints.Priority) {
	// Register before the goroutine exists so a load deadline always finds
	// (and records) every issued fetch.
	c.inflight[u.String()] = &inflightFetch{prio: prio, start: time.Now()}
	go c.fetch(u, prio)
}

func (c *Client) fetch(u urlutil.URL, prio hints.Priority) {
	key := u.String()
	c.mu.Lock()
	fl := c.inflight[key]
	c.mu.Unlock()
	if fl == nil {
		return // load already over; the deadline path wrote this record
	}

	sp := c.beginFetchSpan(fl, key, prio.String())
	resp, out := c.doFetch(u, fl)
	done := time.Now()

	rec := FetchRecord{
		URL: key, Priority: prio, Start: fl.start, Done: done,
		Redirects: out.redirects,
		// Degradation tags are unioned across every attempt and redirect
		// hop, so a fetch that saw degraded service and then failed (or was
		// retried into success) still reports it — keeping client-side
		// degradation counts in step with the server's shed counters.
		Degraded: out.degraded,
	}
	if out.err != nil {
		rec.Err = out.err.Error()
		rec.ErrKind = out.kind
		rec.Status = out.status
		rec.TimedOut = out.timedOut
	} else {
		rec.Pushed = resp.Pushed
		rec.Status = resp.Status
		rec.Bytes = len(resp.Body)
		rec.FinalURL = out.finalURL.String()
	}
	c.endFetchSpan(sp, &rec)
	if c.Metrics != nil {
		ms := float64(done.Sub(fl.start)) / float64(time.Millisecond)
		if rec.Failed() {
			c.lt.fetchErrMs.ObserveExemplar(ms, fl.flow)
			c.cv().fails.WithLabels(u.Origin(), telemetry.L("kind", string(rec.ErrKind))).Inc()
		} else {
			c.lt.fetchOkMs.ObserveExemplar(ms, fl.flow)
		}
		if rec.Redirects > 0 {
			c.cv().redirects.With(u.Origin()).Add(int64(rec.Redirects))
		}
	}

	// Discover referenced resources and hints before re-locking; relative
	// references resolve against the post-redirect URL.
	var discovered []hints.Hint
	var nHinted int
	if out.err == nil && resp.Status == 200 {
		discovered, nHinted = c.analyze(out.finalURL, resp)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	rec.Retries = fl.retries
	delete(c.inflight, key)
	if c.finished {
		return // the partial report was already handed to the caller
	}
	c.report.Fetches = append(c.report.Fetches, rec)
	c.report.Bytes += int64(rec.Bytes)
	c.report.Retries += rec.Retries
	if rec.Failed() {
		c.report.Failed++
	}
	if rec.Degraded != "" {
		c.report.Degraded++
	}
	if rec.Pushed {
		// The response came from the push cache: the push is claimed.
		f := c.seen[rec.FinalURL]
		f.claimed = true
		c.seen[rec.FinalURL] = f
	}
	for i, h := range discovered {
		c.enqueue(h.URL, h.Priority, i < nHinted)
	}
	if c.Staged {
		if key == c.report.Root {
			c.gate.RootArrived()
		}
		c.gate.Arrived(u)
		for {
			p, queue, ok := c.gate.Release()
			if !ok {
				break
			}
			for _, q := range queue {
				c.issue(q, p)
			}
		}
	}
	c.maybeFinish()
}

func (c *Client) maybeFinish() {
	if c.finished || len(c.inflight) > 0 || c.gate.Pending() > 0 {
		return
	}
	c.finished = true
	close(c.doneCh)
}

// analyze extracts hints and body references from a response; the first
// hinted of them came from hint headers.
func (c *Client) analyze(u urlutil.URL, resp *h2.Response) (jobs []hints.Hint, hinted int) {
	jobs = hints.Parse(resp.Header)
	hinted = len(jobs)
	typ := webpage.TypeFromURL(u)
	if typ.NeedsProcessing() {
		res := &webpage.Resource{URL: u, Type: typ, Body: string(resp.Body)}
		for _, d := range webpage.ExtractRefs(res) {
			jobs = append(jobs, hints.Hint{URL: d.URL, Priority: d.Priority()})
		}
	}
	return jobs, hinted
}

// doFetch fetches one URL, following redirects up to the hop cap.
func (c *Client) doFetch(u urlutil.URL, fl *inflightFetch) (*h2.Response, fetchOutcome) {
	cur := u
	hops := 0
	degraded := ""
	for {
		resp, out := c.fetchOne(cur, fl)
		out.redirects = hops
		degraded = mergeDegraded(degraded, out.degraded)
		out.degraded = degraded
		if out.err != nil {
			return nil, out
		}
		loc := redirectLocation(resp)
		if loc == "" {
			out.finalURL = cur
			return resp, out
		}
		if hops >= redirectHops {
			return nil, fetchOutcome{
				err:    fmt.Errorf("wire: %s: more than %d redirect hops", u, redirectHops),
				kind:   FetchRedirect,
				status: resp.Status, redirects: hops, degraded: degraded,
			}
		}
		next, ok := urlutil.Resolve(cur, loc)
		if !ok {
			return nil, fetchOutcome{
				err:    fmt.Errorf("wire: %s: unresolvable location %q", cur, loc),
				kind:   FetchRedirect,
				status: resp.Status, redirects: hops, degraded: degraded,
			}
		}
		hops++
		c.mu.Lock()
		nextKey := next.String()
		f := c.facts(next, nextKey)
		already := f.queued
		f.queued = true
		c.seen[nextKey] = f
		c.mu.Unlock()
		if already {
			// Another fetch owns (or owned) the target; this record just
			// reports the hop.
			out.finalURL = cur
			return resp, out
		}
		cur = next
	}
}

// mergeDegraded unions two comma-separated degradation-token lists,
// preserving first-seen order.
func mergeDegraded(a, b string) string {
	if b == "" {
		return a
	}
	if a == "" {
		return b
	}
	out := a
	for _, tok := range strings.Split(b, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" || hasToken(out, tok) {
			continue
		}
		out += ", " + tok
	}
	return out
}

// hasToken reports whether a comma-separated token list contains tok.
func hasToken(list, tok string) bool {
	for _, t := range strings.Split(list, ",") {
		if strings.TrimSpace(t) == tok {
			return true
		}
	}
	return false
}

func redirectLocation(resp *h2.Response) string {
	switch resp.Status {
	case 301, 302, 303, 307, 308:
	default:
		return ""
	}
	if vals := resp.Header["location"]; len(vals) > 0 {
		return vals[0]
	}
	return ""
}

// fetchOne fetches one URL with budgeted, backed-off retries. Degradation
// tags accumulate across attempts: a 503 shed that is later retried into a
// 200 still reports shed-request.
func (c *Client) fetchOne(u urlutil.URL, fl *inflightFetch) (*h2.Response, fetchOutcome) {
	var last fetchOutcome
	degraded := ""
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if !c.takeRetryToken(fl) {
				last.err = fmt.Errorf("%v (retry budget exhausted)", last.err)
				return nil, last
			}
			if c.Metrics != nil {
				c.cv().retries.With(u.Origin()).Inc()
			}
			var bs obs.Span
			if c.Trace.Enabled() {
				bs = c.Trace.Begin(obs.TrackLoad, "backoff",
					obs.Arg{Key: "url", Val: u.String()},
					obs.Arg{Key: "attempt", Val: strconv.Itoa(attempt)})
			}
			ok := c.sleepBackoff(c.retry().Backoff(attempt))
			bs.End()
			if !ok {
				return nil, fetchOutcome{err: errLoadOver, kind: FetchDeadline, degraded: degraded}
			}
		}
		resp, err := c.attempt(u, fl)
		if err == nil {
			if vals := resp.Header[HeaderDegraded]; len(vals) > 0 {
				degraded = mergeDegraded(degraded, vals[0])
			}
		}
		if err == nil && resp.Status < 500 {
			return resp, fetchOutcome{degraded: degraded}
		}
		if err == nil {
			// 5xx: transient server verdicts redraw per attempt — replay.
			last = fetchOutcome{
				err:    fmt.Errorf("wire: %s answered %d", u.String(), resp.Status),
				kind:   FetchHTTP,
				status: resp.Status, degraded: degraded,
			}
		} else {
			kind, timedOut := classifyErr(err)
			last = fetchOutcome{err: err, kind: kind, timedOut: timedOut, degraded: degraded}
			if !retryableErr(err) {
				return nil, last
			}
		}
		if attempt+1 >= c.retry().MaxAttempts {
			return nil, last
		}
	}
}

// takeRetryToken charges one retry against the per-load budget.
func (c *Client) takeRetryToken(fl *inflightFetch) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || c.retriesUsed >= retryBudget {
		return false
	}
	c.retriesUsed++
	fl.retries++
	return true
}

// sleepBackoff sleeps d unless the load ends first.
func (c *Client) sleepBackoff(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.cancel:
		return false
	}
}

// attempt performs one try at a URL: push cache, breaker, promised-push
// wait, then a deadline-bound round trip.
func (c *Client) attempt(u urlutil.URL, fl *inflightFetch) (*h2.Response, error) {
	key := u.String()
	origin := u.Origin()
	c.mu.Lock()
	if resp, ok := c.pushedResp[key]; ok {
		c.mu.Unlock()
		return resp, nil
	}
	os := c.originState(origin)
	if os.fails >= breakerThreshold {
		c.mu.Unlock()
		return nil, breakerOpenError{origin: origin}
	}
	c.mu.Unlock()

	cc, err := c.conn(origin, u.Host)
	if err != nil {
		return nil, err
	}

	// If the server promised a push for this path, wait for it instead of
	// double-fetching — but only as long as a round trip would be allowed
	// to take: a promise orphaned by a dying conn must not park the fetch.
	if _, promised := cc.Promised(u.Path); promised {
		ch := make(chan *h2.Response, 1)
		c.mu.Lock()
		c.pushWaiters[key] = append(c.pushWaiters[key], ch)
		c.mu.Unlock()
		wait := time.NewTimer(c.headerTimeout() + c.stallTimeout())
		select {
		case resp := <-ch:
			wait.Stop()
			return resp, nil
		case <-wait.C:
			c.dropPushWaiter(key, ch)
			// Stale promise: fall through to a real round trip.
		case <-c.cancel:
			wait.Stop()
			c.dropPushWaiter(key, ch)
			return nil, errLoadOver
		}
	}

	// Propagate the per-attempt budget: the server's admission queue and
	// push decisions see how long this client will actually wait for
	// headers, so it never holds or feeds a request its client has
	// abandoned.
	deadlineMS := strconv.FormatInt(int64(c.headerTimeout()/time.Millisecond), 10)
	hdr := map[string][]string{HeaderDeadline: {deadlineMS}}
	if fl.flow != "" {
		// Propagate this fetch's trace context so the server's admission,
		// hint-lookup, and push spans carry the same flow ID as our fetch
		// span.
		hdr[obs.TraceHeader] = []string{fl.flow}
	}
	req := &h2.Request{Method: "GET", Scheme: u.Scheme, Authority: u.Host, Path: u.Path,
		Header: hdr}
	os.mReqs.Inc()
	resp, err := cc.RoundTripTimeout(req, c.headerTimeout(), c.stallTimeout())
	if err != nil {
		c.noteConnFailure(origin, cc, err)
		return nil, err
	}
	c.noteSuccess(origin)
	return resp, nil
}

func (c *Client) dropPushWaiter(key string, ch chan *h2.Response) {
	c.mu.Lock()
	ws := c.pushWaiters[key]
	for i, w := range ws {
		if w == ch {
			c.pushWaiters[key] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// cv returns the client's bounded per-origin metric families, building
// them on first use. Safe (and free) when Metrics is nil.
func (c *Client) cv() *clientVecs {
	c.vecsOnce.Do(func() { c.vecs = newClientVecs(c.Metrics) })
	return &c.vecs
}

// originState returns (creating if needed) an origin's lifecycle state.
// Caller holds c.mu.
func (c *Client) originState(origin string) *originState {
	os, ok := c.origins[origin]
	if !ok {
		os = &originState{}
		if c.Metrics != nil {
			cv := c.cv()
			os.mReqs = cv.reqs.With(origin)
			os.mBreaker = cv.breakOpen.With(origin)
			os.mConns = cv.conns.WithLabels(origin, telemetry.L("proto", "h2"))
		}
		c.origins[origin] = os
	}
	return os
}

// conn returns the origin's connection, dialing at most once concurrently
// (other fetches wait on the in-flight dial rather than racing their own).
func (c *Client) conn(origin, host string) (OriginConn, error) {
	for {
		c.mu.Lock()
		os := c.originState(origin)
		if os.conn != nil {
			cc := os.conn
			c.mu.Unlock()
			return cc, nil
		}
		if os.dialing != nil {
			ch := os.dialing
			c.mu.Unlock()
			select {
			case <-ch:
			case <-c.cancel:
				return nil, errLoadOver
			}
			continue
		}
		if os.everConnected {
			if os.redials >= 1 {
				c.mu.Unlock()
				return nil, errRedialBudget
			}
			os.redials++
		}
		ch := make(chan struct{})
		os.dialing = ch
		c.mu.Unlock()

		var ds obs.Span
		if c.Trace.Enabled() {
			ds = c.Trace.Begin(obs.TrackNet, "dial", obs.Arg{Key: "origin", Val: origin})
		}
		var dialStart time.Time
		if c.Metrics != nil {
			dialStart = time.Now()
		}
		cc, err := c.dialOrigin(origin, host)
		if c.Metrics != nil {
			c.lt.dialMs.Observe(float64(time.Since(dialStart)) / float64(time.Millisecond))
		}
		if ds.Active() {
			if err != nil {
				ds.End(obs.Arg{Key: "error", Val: err.Error()})
			} else {
				ds.End()
			}
		}

		c.mu.Lock()
		os.dialing = nil
		if err != nil {
			os.fails++
		} else if c.finished {
			// The load ended mid-dial; the report is out, so this conn
			// belongs to nobody.
			c.mu.Unlock()
			close(ch)
			cc.Close()
			return nil, errLoadOver
		} else {
			os.conn = cc
			os.everConnected = true
			os.mConns.Set(1)
		}
		c.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, &dialError{origin: origin, err: err}
		}
		return cc, nil
	}
}

// dialOrigin opens one transport with the dial timeout applied.
func (c *Client) dialOrigin(origin, host string) (OriginConn, error) {
	type res struct {
		oc  OriginConn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		oc, err := c.dialRaw(origin, host)
		ch <- res{oc, err}
	}()
	t := time.NewTimer(c.dialTimeout())
	defer t.Stop()
	select {
	case r := <-ch:
		return r.oc, r.err
	case <-t.C:
		// Reap the conn if the straggling dial ever completes.
		go func() {
			if r := <-ch; r.err == nil && r.oc != nil {
				r.oc.Close()
			}
		}()
		return nil, fmt.Errorf("dial timed out after %v", c.dialTimeout())
	}
}

func (c *Client) dialRaw(origin, host string) (OriginConn, error) {
	var oc OriginConn
	var err error
	if c.DialOrigin != nil {
		oc, err = c.DialOrigin(origin)
	} else {
		var nc net.Conn
		if nc, err = c.Dial(origin); err == nil {
			oc, err = h2.NewClientConn(nc)
		}
	}
	if err != nil {
		return nil, err
	}
	if cc, ok := oc.(*h2.ClientConn); ok {
		cc.OnPush = func(resp *h2.Response) { c.onPush(host, resp) }
		cc.Instrument(c.Trace, "conn:"+origin, c.Metrics)
	}
	return oc, nil
}

// noteSuccess clears the origin's breaker count.
func (c *Client) noteSuccess(origin string) {
	c.mu.Lock()
	os := c.originState(origin)
	os.fails = 0
	os.mBreaker.Set(0)
	c.mu.Unlock()
}

// noteConnFailure counts a failure toward the breaker and evicts the conn
// when the error says the whole connection — not just one stream — is
// broken, so the (budgeted) re-dial starts fresh.
func (c *Client) noteConnFailure(origin string, cc OriginConn, err error) {
	evict := false
	tripped := false
	c.mu.Lock()
	os := c.originState(origin)
	os.fails++
	if os.fails == breakerThreshold {
		tripped = true
		os.mBreaker.Set(1)
	}
	var se h2.StreamError
	if sh, ok := cc.(selfHealing); (!ok || !sh.SelfHealing()) && !errors.As(err, &se) {
		if os.conn == cc {
			os.conn = nil
			os.mConns.Set(0)
			evict = true
		}
	}
	c.mu.Unlock()
	if tripped {
		if c.Metrics != nil {
			c.cv().trips.With(origin).Inc()
		}
		if c.Trace.Enabled() {
			c.Trace.Instant(obs.TrackNet, "breaker-open", obs.Arg{Key: "origin", Val: origin})
		}
	}
	if evict {
		if c.Trace.Enabled() {
			c.Trace.Instant(obs.TrackNet, "conn-evicted", obs.Arg{Key: "origin", Val: origin})
		}
		cc.Close()
	}
}

// classifyErr maps a fetch error to its typed kind and whether it was a
// client-imposed timeout.
func classifyErr(err error) (ErrKind, bool) {
	var te *h2.TimeoutError
	if errors.As(err, &te) {
		if te.Phase == "headers" {
			return FetchTimeoutHeaders, true
		}
		return FetchTimeoutStall, true
	}
	var be breakerOpenError
	if errors.As(err, &be) {
		return FetchBreaker, false
	}
	if errors.Is(err, errLoadOver) {
		return FetchDeadline, false
	}
	var de *dialError
	if errors.As(err, &de) {
		return FetchDial, false
	}
	var se h2.StreamError
	if errors.As(err, &se) {
		return FetchStream, false
	}
	return FetchConn, false
}

// retryableErr reports whether replaying the (idempotent GET) fetch could
// help.
func retryableErr(err error) bool {
	if errors.Is(err, errLoadOver) || errors.Is(err, errRedialBudget) {
		return false
	}
	var be breakerOpenError
	if errors.As(err, &be) {
		return false
	}
	var te *h2.TimeoutError
	if errors.As(err, &te) {
		return true
	}
	if h2.Retryable(err) {
		return true // REFUSED_STREAM, CANCEL, graceful GOAWAY
	}
	var se h2.StreamError
	if errors.As(err, &se) {
		return false // protocol-class stream reset: a replay hits the same bug
	}
	var ce h2.ConnError
	if errors.As(err, &ce) {
		return false // protocol integrity failure
	}
	var ga h2.GoAwayError
	if errors.As(err, &ga) {
		return false // errored GOAWAY
	}
	// Dial failures, broken pipes, evicted conns: replayable for GETs.
	return true
}

// onPush stores pushed responses in the push cache and satisfies waiters.
// Pushed bodies are analyzed only when the page references them (through
// doFetch); pushes no fetch claims settle as waste at load end.
func (c *Client) onPush(host string, resp *h2.Response) {
	if resp.Request == nil {
		return
	}
	u := urlutil.URL{Scheme: "https", Host: resp.Request.Authority, Path: resp.Request.Path}
	key := u.String()
	c.lt.pushReceived.Inc()
	if c.Trace.Enabled() {
		c.Trace.Instant(obs.TrackLoad, "push-received", obs.Arg{Key: "url", Val: key})
	}
	c.mu.Lock()
	if f := c.facts(u, key); !f.pushed {
		f.pushed, f.pushedAt = true, time.Since(c.report.Started)
		c.seen[key] = f
	}
	c.pushedResp[key] = resp
	waiters := c.pushWaiters[key]
	delete(c.pushWaiters, key)
	c.mu.Unlock()
	for _, ch := range waiters {
		ch <- resp
	}
}
