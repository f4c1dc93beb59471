// Package browser implements a deterministic simulated mobile browser
// engine: a single main thread that parses HTML, executes scripts in
// document order, and decodes subresources, coupled to a transport through
// which it fetches resources. Fetch issuance is delegated to a pluggable
// Scheduler so that the baseline (fetch on discovery), Vroom's staged
// scheduler, and Polaris-style prioritization can be compared on identical
// engine mechanics.
//
// The engine models the two couplings the paper identifies (§2-§3): the CPU
// cannot process a resource before the network delivers it, and the network
// cannot fetch a resource before CPU-driven parsing/execution (or a server
// hint) discovers it.
package browser

import (
	"fmt"
	"time"

	"vroom/internal/event"
	"vroom/internal/hints"
	"vroom/internal/obs"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// Fetched is a completed response delivered by the transport.
type Fetched struct {
	URL urlutil.URL
	// Res is the resource content; nil when the server had no content for
	// the URL (a stale hint), in which case the body was a small error
	// page.
	Res *webpage.Resource
	// Size is the number of bytes transferred.
	Size int
	// Pushed marks server-initiated delivery (HTTP/2 PUSH).
	Pushed bool
	// NotModified marks a 304 revalidation: the client's expired cached
	// copy is still valid and only headers crossed the network.
	NotModified bool
	// Failed marks a terminal transport failure (connection refused, 5xx,
	// truncated transfer); FailReason names it. The browser may retry.
	Failed     bool
	FailReason string
	// RedirectTo, when set, is where a stale hinted URL now points; the
	// response itself carried no content.
	RedirectTo urlutil.URL
	// Hints are the dependency hints carried on the response headers.
	Hints []hints.Hint
}

// Transport issues fetches on behalf of the browser. Implementations attach
// the server model and simulated network. started (may be nil) fires when
// the response headers reach the client — the browser uses it to disarm
// its response timeout, since a transfer that has started will complete.
// The returned abort func (may be nil) cancels the fetch from the
// client side; after an abort, done must not be called.
type Transport interface {
	Fetch(u urlutil.URL, started func(), done func(*Fetched)) (abort func())
}

// EntryState tracks a resource's lifecycle within a load.
type EntryState int

// Entry states.
const (
	StateKnown EntryState = iota // URL known, no fetch issued
	StateInFlight
	StateArrived
	StateProcessed
)

// Entry is the per-URL bookkeeping of a load.
type Entry struct {
	URL urlutil.URL
	Res *webpage.Resource

	State EntryState
	// Required: the page load cannot complete without this resource (it
	// was discovered by actual parsing/execution, not just hinted).
	Required bool
	// Hinted: the URL was learned from a dependency hint, so its prefetch
	// is advisory — a failure degrades to vanilla discovery.
	Hinted bool
	// Priority classifies the entry for scheduling (derived from how the
	// page uses it, or from its hint).
	Priority hints.Priority
	Pushed   bool
	// pushLate marks a push that arrived after the entry already had its
	// bytes: it was transferred but never used.
	pushLate bool

	// Size is the number of bytes transferred for this entry.
	Size int

	// FailReason names the terminal transport failure when the entry
	// degraded to an error body ("" otherwise).
	FailReason string

	DiscoveredAt time.Time // first knowledge (hint, push promise, or parse)
	RequiredAt   time.Time
	RequestedAt  time.Time
	// FirstByteAt is when response headers first reached the client for
	// this entry (zero if no response ever started).
	FirstByteAt time.Time
	// PushPromisedAt is when the PUSH_PROMISE for this entry reached the
	// client (zero if never promised).
	PushPromisedAt time.Time
	ArrivedAt      time.Time
	ProcessedAt    time.Time

	waiters           []func(*Entry)
	procWaiters       []func()
	processingStarted bool
	gated             bool // executed by a document's sync-script pump
	execAsync         bool

	attempts  int // fetch attempts made for the current in-flight cycle
	abort     func()
	timeoutEv *event.Event
	fetchSpan obs.Span
}

// Load is one page load in progress.
type Load struct {
	Eng       *event.Engine
	Transport Transport
	Cfg       Config
	Sched     Scheduler

	Root  urlutil.URL
	start time.Time

	entries map[string]*Entry
	order   []string

	// main-thread accounting
	cpuFreeAt time.Time
	busyTotal time.Duration

	outstandingRequired int
	finished            bool
	finishedAt          time.Time
	finalizeQueued      bool

	// fault/degradation accounting
	retries       int
	timeouts      int
	failedFetches int
	hintsFailed   int

	paints []paintEvent

	// syncChains tracks in-order execution of synchronous scripts per
	// document.
	docs map[string]*docState

	// via names the resource whose processing is currently discovering
	// references, so discovery events carry dependency edges.
	via string
}

type paintEvent struct {
	at     time.Time
	weight float64
}

// Config parameterizes the engine.
type Config struct {
	// CPUScale divides all CPU costs (1.0 = Nexus-6-class phone; larger
	// is faster). Zero means 1.0.
	CPUScale float64
	// Cache is the warm browser cache; nil means cold.
	Cache *Cache
	// NoProcessing zeroes all CPU costs (the network-bottleneck lower
	// bound of §2: resources fetched but not evaluated).
	NoProcessing bool
	// FetchTimeout bounds one fetch attempt's time to response headers:
	// when it expires before any response has started the attempt is
	// aborted and counts as failed. It is deliberately not a
	// total-transfer bound — a loaded link can take longer than any
	// reasonable timeout to finish a transfer that is making progress, and
	// killing it only to re-download wastes the bandwidth that made it
	// slow. Zero disables timeouts — the pre-fault-injection behaviour.
	FetchTimeout time.Duration
	// Retry is the policy for reissuing failed fetch attempts.
	Retry RetryPolicy
	// OnFetchFailure, when set, observes every terminal per-attempt failure
	// (the runner uses it to mark origins unhealthy).
	OnFetchFailure func(u urlutil.URL, reason string)
	// Trace records main-thread task slices and per-resource fetch
	// lifecycle events. Nil disables tracing.
	Trace *obs.Tracer
}

// RetryPolicy caps retries of failed fetches with exponential backoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Zero or one means no retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy mirrors common browser/CDN client defaults: three
// attempts, 250ms initial backoff, 4s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 250 * time.Millisecond, MaxBackoff: 4 * time.Second}
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay before the given retry (attempt counts the
// tries already made, so the first retry sees attempt == 1).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = 250 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

func (c Config) scale() float64 {
	if c.CPUScale <= 0 {
		return 1.0
	}
	return c.CPUScale
}

// docState tracks incremental parsing of one HTML document.
type docState struct {
	entry    *Entry
	steps    []docStep
	idx      int
	running  bool
	waiting  bool
	finished bool
	inline   []webpage.Discovered
	iframes  []webpage.Discovered
}

// NewLoad prepares a page load for the given root URL.
func NewLoad(eng *event.Engine, tr Transport, cfg Config, sched Scheduler, root urlutil.URL) *Load {
	if sched == nil {
		sched = &FetchASAP{}
	}
	l := &Load{
		Eng:       eng,
		Transport: tr,
		Cfg:       cfg,
		Sched:     sched,
		Root:      root,
		entries:   make(map[string]*Entry),
		docs:      make(map[string]*docState),
	}
	return l
}

// Start begins the load at the current simulation time.
func (l *Load) Start() {
	l.start = l.Eng.Now()
	l.cpuFreeAt = l.start
	l.Sched.Start(l)
	l.Require(l.Root, hints.High)
}

// StartTime returns when the load began.
func (l *Load) StartTime() time.Time { return l.start }

// Tracer returns the load's tracer (nil when tracing is disabled).
// Schedulers and the server farm use it to emit onto the shared recording.
func (l *Load) Tracer() *obs.Tracer { return l.Cfg.Trace }

// Entry returns (creating) the bookkeeping entry for a URL.
func (l *Load) Entry(u urlutil.URL) *Entry {
	key := u.String()
	e, ok := l.entries[key]
	if !ok {
		e = &Entry{URL: u, DiscoveredAt: l.Eng.Now(), Priority: hints.Low}
		l.entries[key] = e
		l.order = append(l.order, key)
		if l.Cfg.Trace.Enabled() {
			l.Cfg.Trace.Instant(obs.TrackLoad, "discover:"+key, obs.Arg{Key: "by", Val: l.via})
		}
	}
	return e
}

// Entries returns all entries in discovery order.
func (l *Load) Entries() []*Entry {
	out := make([]*Entry, 0, len(l.order))
	for _, k := range l.order {
		out = append(out, l.entries[k])
	}
	return out
}

// Hint registers a dependency hint: the URL becomes known and is handed to
// the scheduler, which decides when (or whether) to fetch it.
func (l *Load) Hint(h hints.Hint) {
	e := l.Entry(h.URL)
	e.Hinted = true
	if h.Priority < e.Priority {
		e.Priority = h.Priority
	}
	l.Sched.OnHint(l, e, h)
}

// Require marks a resource as needed by the page (discovered through actual
// parsing/execution, or the root itself). The scheduler is told so it can
// issue or reorder the fetch.
func (l *Load) Require(u urlutil.URL, prio hints.Priority) *Entry {
	e := l.Entry(u)
	if prio < e.Priority {
		e.Priority = prio
	}
	if !e.Required {
		e.Required = true
		e.RequiredAt = l.Eng.Now()
		if l.Cfg.Trace.Enabled() {
			l.Cfg.Trace.Instant(obs.TrackLoad, "require:"+u.String(), obs.Arg{Key: "by", Val: l.via})
		}
		l.outstandingRequired++
		if e.State == StateArrived {
			l.beginProcessing(e)
		} else {
			l.Sched.OnRequired(l, e)
		}
	}
	return e
}

// FetchNow issues the network fetch for an entry unless one is already in
// flight or the resource is already local. Schedulers call this.
func (l *Load) FetchNow(e *Entry) {
	if e.State != StateKnown {
		return
	}
	e.State = StateInFlight
	e.RequestedAt = l.Eng.Now()
	e.attempts = 0
	if l.Cfg.Cache != nil {
		if res, ok := l.Cfg.Cache.Get(e.URL.String(), l.Eng.Now()); ok {
			if l.Cfg.Trace.Enabled() {
				l.Cfg.Trace.Instant(obs.TrackLoad, "cache-hit:"+e.URL.String())
			}
			l.Eng.ScheduleAfter(cacheHitDelay, "cache-hit", func() {
				l.deliver(e, &Fetched{URL: e.URL, Res: res, Size: 0})
			})
			return
		}
	}
	l.fetchAttempt(e)
}

// fetchAttempt issues one transport attempt for an in-flight entry, arming
// the per-attempt first-byte timeout.
func (l *Load) fetchAttempt(e *Entry) {
	e.attempts++
	settled := false
	if tr := l.Cfg.Trace; tr.Enabled() {
		e.fetchSpan = tr.Begin(obs.TrackLoad, "fetch:"+e.URL.String(),
			obs.Arg{Key: "attempt", Val: fmt.Sprint(e.attempts)})
	}
	e.abort = l.Transport.Fetch(e.URL, func() {
		if settled {
			return
		}
		// Headers arrived: the response is live, so stop the clock. Faults
		// that strike after this point (truncation, 5xx body) surface
		// through the done callback, not the timeout.
		if e.FirstByteAt.IsZero() {
			e.FirstByteAt = l.Eng.Now()
		}
		if l.Cfg.Trace.Enabled() {
			l.Cfg.Trace.Instant(obs.TrackLoad, "headers:"+e.URL.String())
		}
		l.clearTimeout(e)
	}, func(f *Fetched) {
		if settled {
			return
		}
		settled = true
		l.clearTimeout(e)
		e.abort = nil
		if f.Failed {
			l.endFetchSpan(e, "failed:"+f.FailReason)
			l.onFetchFailed(e, f.FailReason)
			return
		}
		l.endFetchSpan(e, "ok")
		l.deliver(e, f)
	})
	if l.Cfg.FetchTimeout > 0 {
		e.timeoutEv = l.Eng.ScheduleAfter(l.Cfg.FetchTimeout, "fetch-timeout@"+e.URL.String(), func() {
			if settled {
				return
			}
			settled = true
			e.timeoutEv = nil
			l.timeouts++
			if e.abort != nil {
				e.abort() // stream reset: frees a wedged connection
				e.abort = nil
			}
			l.endFetchSpan(e, "timeout")
			l.onFetchFailed(e, "timeout")
		})
	}
}

// endFetchSpan closes the entry's open fetch-attempt span with its outcome.
func (l *Load) endFetchSpan(e *Entry, outcome string) {
	if e.fetchSpan.Active() {
		e.fetchSpan.End(obs.Arg{Key: "outcome", Val: outcome})
		e.fetchSpan = obs.Span{}
	}
}

// onFetchFailed handles one failed attempt: retry with capped exponential
// backoff while budget remains, otherwise degrade. Only required work earns
// retries — an advisory prefetch is pure speculation, and a speculative
// fetch grinding through its backoff schedule holds the scheduler's stage
// gates hostage for something the page may never need. It degrades to
// vanilla discovery after a single failure instead, and if parsing later
// requires the URL the fetch reissues with a full fresh budget.
func (l *Load) onFetchFailed(e *Entry, reason string) {
	l.failedFetches++
	if l.Cfg.OnFetchFailure != nil {
		l.Cfg.OnFetchFailure(e.URL, reason)
	}
	if e.Required && e.attempts < l.Cfg.Retry.maxAttempts() {
		l.retries++
		delay := l.Cfg.Retry.Backoff(e.attempts)
		if tr := l.Cfg.Trace; tr.Enabled() {
			now := l.Eng.Now()
			tr.BeginAt(now, obs.TrackLoad, "backoff:"+e.URL.String(),
				obs.Arg{Key: "after", Val: reason}).EndAt(now.Add(delay))
		}
		l.Eng.ScheduleAfter(delay, "retry@"+e.URL.String(), func() {
			if e.State != StateInFlight {
				return
			}
			l.fetchAttempt(e)
		})
		return
	}
	l.giveUp(e, reason)
}

// giveUp retires an entry whose retry budget is exhausted (for advisory
// prefetches, after the single attempt they get). The invariant: a failed
// fetch must never block parse/execute progress.
//
//   - A required resource degrades to an error body — the page renders
//     without it rather than hanging (browsers fire onerror and move on).
//   - An advisory (hinted) prefetch reverts to vanilla discovery: the entry
//     returns to StateKnown so that if parsing later requires the URL, the
//     fetch is reissued with a fresh budget.
func (l *Load) giveUp(e *Entry, reason string) {
	if e.Hinted {
		l.hintsFailed++
	}
	if l.Cfg.Trace.Enabled() {
		l.Cfg.Trace.Instant(obs.TrackLoad, "give-up:"+e.URL.String(), obs.Arg{Key: "reason", Val: reason})
	}
	if e.Required {
		l.deliver(e, &Fetched{URL: e.URL, Failed: true, FailReason: reason})
		return
	}
	e.State = StateKnown
	e.attempts = 0
	l.Sched.OnArrived(l, e) // retire the issue so stages advance past it
}

// clearTimeout cancels an entry's pending attempt timeout, if any.
func (l *Load) clearTimeout(e *Entry) {
	if e.timeoutEv != nil {
		l.Eng.Cancel(e.timeoutEv)
		e.timeoutEv = nil
	}
}

// PushPromise records a server's announcement that it will push u; the
// browser will not issue its own request for a promised resource. There is
// no timer on a promise: every way a push can die in the network (stalled,
// 5xx, truncated stream) reports back through PushFailed, and a slow push
// that is merely queued behind other responses will arrive.
func (l *Load) PushPromise(u urlutil.URL) {
	e := l.Entry(u)
	if e.State != StateKnown {
		return
	}
	e.State = StateInFlight
	e.Pushed = true
	e.RequestedAt = l.Eng.Now()
	e.PushPromisedAt = l.Eng.Now()
	if l.Cfg.Trace.Enabled() {
		l.Cfg.Trace.Instant(obs.TrackLoad, "push-promise:"+u.String())
	}
}

// PushFailed tells the browser a promised push died before delivering (the
// server stream was reset). The entry re-enters the normal fetch path.
func (l *Load) PushFailed(u urlutil.URL, reason string) {
	e := l.Entry(u)
	if e.State != StateInFlight {
		return
	}
	l.failedFetches++
	if l.Cfg.OnFetchFailure != nil {
		l.Cfg.OnFetchFailure(u, reason)
	}
	if l.Cfg.Trace.Enabled() {
		l.Cfg.Trace.Instant(obs.TrackLoad, "push-failed:"+u.String(), obs.Arg{Key: "reason", Val: reason})
	}
	l.pushBroken(e)
}

// pushBroken recovers an entry whose promised push never delivered: it
// returns to StateKnown, and if the page already required it the scheduler
// is re-asked so the fetch goes out client-initiated.
func (l *Load) pushBroken(e *Entry) {
	l.clearTimeout(e)
	e.State = StateKnown
	e.attempts = 0
	if e.Required {
		l.Sched.OnRequired(l, e)
	}
}

// PushArrived delivers a pushed response body.
func (l *Load) PushArrived(f *Fetched) {
	e := l.Entry(f.URL)
	e.Pushed = true
	if e.State == StateProcessed || e.State == StateArrived {
		e.pushLate = true // a push of something we already have
		return
	}
	e.State = StateInFlight
	l.deliver(e, f)
}

// deliver finalizes arrival of a response (fetched, pushed, cache hit, or
// an exhausted-retries error body).
func (l *Load) deliver(e *Entry, f *Fetched) {
	if e.State == StateArrived || e.State == StateProcessed {
		return
	}
	l.clearTimeout(e)
	e.abort = nil
	e.State = StateArrived
	e.ArrivedAt = l.Eng.Now()
	e.Res = f.Res
	e.Size = f.Size
	if f.Failed {
		e.FailReason = f.FailReason
	}
	if tr := l.Cfg.Trace; tr.Enabled() {
		args := []obs.Arg{{Key: "bytes", Val: fmt.Sprint(f.Size)}}
		if f.Pushed {
			args = append(args, obs.Arg{Key: "pushed", Val: "1"})
		}
		if f.Failed {
			args = append(args, obs.Arg{Key: "failed", Val: f.FailReason})
		}
		tr.Instant(obs.TrackLoad, "arrived:"+e.URL.String(), args...)
	}
	if f.Pushed {
		e.Pushed = true
	}
	if e.Hinted && f.Res == nil && !f.NotModified && !f.Failed && f.RedirectTo.Host == "" {
		l.hintsFailed++ // stale hint: the server 404ed the prefetch
	}
	if l.Cfg.Cache != nil && f.Res != nil && f.Res.Cacheable {
		l.Cfg.Cache.Put(e.URL.String(), f.Res, l.Eng.Now())
	}
	if len(f.Hints) > 0 {
		restore := l.setVia(e)
		for _, h := range f.Hints {
			l.Hint(h)
		}
		restore()
	}
	if f.RedirectTo.Host != "" {
		// A stale hint that redirects: follow to the fresh URL as a new
		// hint-driven prefetch, paying the extra round trip.
		l.Hint(hints.Hint{URL: f.RedirectTo, Priority: e.Priority})
	}
	if e.Required {
		l.beginProcessing(e)
	}
	for _, w := range e.waiters {
		w(e)
	}
	e.waiters = nil
	l.Sched.OnArrived(l, e)
}

// onEntryDone marks a required entry fully processed and checks completion.
func (l *Load) onEntryDone(e *Entry) {
	if e.State == StateProcessed {
		return
	}
	e.State = StateProcessed
	e.ProcessedAt = l.Eng.Now()
	if l.Cfg.Trace.Enabled() {
		l.Cfg.Trace.Instant(obs.TrackLoad, "processed:"+e.URL.String())
	}
	if e.Res != nil && e.Res.ViewportWeight > 0 {
		l.paints = append(l.paints, paintEvent{at: e.ProcessedAt, weight: e.Res.ViewportWeight})
	}
	for _, w := range e.procWaiters {
		w()
	}
	e.procWaiters = nil
	if e.Required {
		l.outstandingRequired--
		l.checkFinished()
	}
}

// checkFinished fires the onload event once every required resource is
// fetched and processed, after a final layout task.
func (l *Load) checkFinished() {
	if l.finished || l.outstandingRequired > 0 || l.finalizeQueued {
		return
	}
	l.finalizeQueued = true
	l.runTask(l.cost(MobileCosts().Finalize), "finalize", func() {
		l.finalizeQueued = false
		if l.outstandingRequired > 0 {
			return // finalize raced with a late discovery; it will re-run
		}
		l.finished = true
		l.finishedAt = l.Eng.Now()
	})
}

// Finished reports whether onload has fired.
func (l *Load) Finished() bool { return l.finished }

// cost scales a CPU cost by the configured CPU speed.
func (l *Load) cost(d time.Duration) time.Duration {
	if l.Cfg.NoProcessing {
		return 0
	}
	return time.Duration(float64(d) / l.Cfg.scale())
}

// runTask queues a task on the main thread (FIFO) and invokes fn when it
// completes.
func (l *Load) runTask(d time.Duration, name string, fn func()) {
	now := l.Eng.Now()
	start := l.cpuFreeAt
	if start.Before(now) {
		start = now
	}
	end := start.Add(d)
	l.cpuFreeAt = end
	l.busyTotal += d
	if tr := l.Cfg.Trace; tr.Enabled() && d > 0 {
		tr.BeginAt(start, obs.TrackMain, name).EndAt(end)
	}
	l.Eng.Schedule(end, "task:"+name, fn)
}

// setVia records e as the resource currently discovering references, so
// discover/require instants carry the dependency edge. It returns a restore
// func for the previous context (discovery can nest: a sync script's
// document.write runs inside the document pump).
func (l *Load) setVia(e *Entry) func() {
	prev := l.via
	l.via = e.URL.String()
	return func() { l.via = prev }
}

// onArrivedOrNow runs fn immediately if the entry has arrived, or when it
// does.
func (l *Load) onArrivedOrNow(e *Entry, fn func(*Entry)) {
	if e.State == StateArrived || e.State == StateProcessed {
		fn(e)
		return
	}
	e.waiters = append(e.waiters, fn)
}

// onProcessed runs fn immediately if the entry is fully processed, or when
// it becomes so.
func (l *Load) onProcessed(e *Entry, fn func()) {
	if e.State == StateProcessed {
		fn()
		return
	}
	e.procWaiters = append(e.procWaiters, fn)
}

func (l *Load) String() string {
	return fmt.Sprintf("load(%s, %d entries, required out %d)", l.Root, len(l.entries), l.outstandingRequired)
}
