package wire

import (
	"strconv"

	"vroom/internal/obs"
	"vroom/internal/telemetry"
)

// Client-side metric names. Per-origin series are labelled origin; phase
// histograms are labelled phase (dial on this side; headers/body come from
// h2, exchange from h1 — all into the same family).
const (
	mRequests   = "vroom_wire_requests_total"
	mRetries    = "vroom_wire_retries_total"
	mFailures   = "vroom_wire_failures_total"
	mRedirects  = "vroom_wire_redirects_total"
	mFetchMs    = "vroom_wire_fetch_ms"
	mPhaseMs    = "vroom_wire_fetch_phase_ms"
	mPush       = "vroom_wire_push_total"
	mPushLeadMs = "vroom_wire_push_lead_ms"
	mBreakTrips = "vroom_wire_breaker_trips_total"
	mBreakOpen  = "vroom_wire_breaker_open"
	mActiveConn = "vroom_wire_active_conns"
	mLoads      = "vroom_wire_loads_total"
	mDeadlines  = "vroom_wire_deadline_total"
)

// loadTelemetry bundles the handles one page load updates on its hot path,
// resolved once at LoadPage start. The zero value (all-nil handles) is the
// disabled fast path: every method call no-ops without allocating, the
// same contract as a nil *obs.Tracer.
type loadTelemetry struct {
	loads         *telemetry.Counter
	deadlines     *telemetry.Counter
	fetchOkMs     *telemetry.Histogram
	fetchErrMs    *telemetry.Histogram
	dialMs        *telemetry.Histogram
	pushReceived  *telemetry.Counter
	pushClaimed   *telemetry.Counter
	pushUnclaimed *telemetry.Counter
	pushLeadMs    *telemetry.Histogram
}

func newLoadTelemetry(reg *telemetry.Registry) loadTelemetry {
	if reg == nil {
		return loadTelemetry{}
	}
	describeClientMetrics(reg)
	return loadTelemetry{
		loads:         reg.Counter(mLoads),
		deadlines:     reg.Counter(mDeadlines),
		fetchOkMs:     reg.Histogram(mFetchMs, telemetry.L("outcome", "ok")),
		fetchErrMs:    reg.Histogram(mFetchMs, telemetry.L("outcome", "error")),
		dialMs:        reg.Histogram(mPhaseMs, telemetry.L("phase", "dial")),
		pushReceived:  reg.Counter(mPush, telemetry.L("state", "received")),
		pushClaimed:   reg.Counter(mPush, telemetry.L("state", "claimed")),
		pushUnclaimed: reg.Counter(mPush, telemetry.L("state", "unclaimed")),
		pushLeadMs:    reg.Histogram(mPushLeadMs),
	}
}

// describeClientMetrics attaches HELP text for every client-side family.
func describeClientMetrics(reg *telemetry.Registry) {
	reg.Describe(mRequests, "Round-trip attempts issued per origin.")
	reg.Describe(mRetries, "Fetch retries spent per origin.")
	reg.Describe(mFailures, "Fetches that ended in a typed error, per origin and kind.")
	reg.Describe(mRedirects, "Redirect hops followed per origin.")
	reg.Describe(mFetchMs, "Whole-fetch latency in milliseconds by outcome.")
	reg.Describe(mPhaseMs, "Fetch phase latency in milliseconds (dial, headers, body, exchange).")
	reg.Describe(mPush, "Server pushes by fate: received on the wire, then settled at load end as claimed by a fetch or unclaimed.")
	reg.Describe(mPushLeadMs, "How far ahead of the page's first need a claimed push arrived, in milliseconds.")
	reg.Describe(mBreakTrips, "Circuit-breaker trips per origin.")
	reg.Describe(mBreakOpen, "Whether an origin's circuit breaker is currently open.")
	reg.Describe(mActiveConn, "Live transport connections per origin and protocol.")
	reg.Describe(mLoads, "Page loads started.")
	reg.Describe(mDeadlines, "Page loads cut short by the load deadline.")
}

// clientVecs bounds every client-side per-origin metric family: a
// hostile or merely huge origin set must not grow the exposition without
// limit, so each family folds past-cap origins into the shared
// telemetry.OverflowLabel series. Built lazily once per Client; the zero
// value (nil handles, as when metrics are off) no-ops.
type clientVecs struct {
	reqs      *telemetry.CounterVec
	retries   *telemetry.CounterVec
	fails     *telemetry.CounterVec
	redirects *telemetry.CounterVec
	trips     *telemetry.CounterVec
	breakOpen *telemetry.GaugeVec
	conns     *telemetry.GaugeVec
}

func newClientVecs(reg *telemetry.Registry) clientVecs {
	return clientVecs{
		reqs:      reg.CounterVec(mRequests, "origin", 0),
		retries:   reg.CounterVec(mRetries, "origin", 0),
		fails:     reg.CounterVec(mFailures, "origin", 0),
		redirects: reg.CounterVec(mRedirects, "origin", 0),
		trips:     reg.CounterVec(mBreakTrips, "origin", 0),
		breakOpen: reg.GaugeVec(mBreakOpen, "origin", 0),
		conns:     reg.GaugeVec(mActiveConn, "origin", 0),
	}
}

// beginFetchSpan opens the per-fetch span on the load track, minting the
// fetch's propagated trace context when the client is both tracing and
// propagating. Split out so the zero-overhead contract is benchmarkable:
// with a nil tracer (or propagation off) the disabled work must not
// allocate.
func (c *Client) beginFetchSpan(fl *inflightFetch, key string, prio string) obs.Span {
	if !c.Trace.Enabled() {
		return obs.Span{}
	}
	if c.traceID != 0 {
		tc := obs.TraceContext{Trace: c.traceID, Span: c.fetchSeq.Add(1)}
		fl.flow = tc.String()
		return c.Trace.Begin(obs.TrackLoad, "fetch",
			obs.Arg{Key: "url", Val: key}, obs.Arg{Key: "prio", Val: prio},
			obs.Arg{Key: obs.ArgFlow, Val: fl.flow},
			obs.Arg{Key: obs.ArgTrace, Val: tc.TraceID()})
	}
	return c.Trace.Begin(obs.TrackLoad, "fetch",
		obs.Arg{Key: "url", Val: key}, obs.Arg{Key: "prio", Val: prio})
}

// endFetchSpan closes a fetch span with its outcome.
func (c *Client) endFetchSpan(sp obs.Span, rec *FetchRecord) {
	if !sp.Active() {
		return
	}
	if rec.Failed() {
		sp.End(obs.Arg{Key: "error", Val: string(rec.ErrKind)},
			obs.Arg{Key: "retries", Val: strconv.Itoa(rec.Retries)})
		return
	}
	sp.End(obs.Arg{Key: "status", Val: strconv.Itoa(rec.Status)},
		obs.Arg{Key: "bytes", Val: strconv.Itoa(rec.Bytes)})
}
