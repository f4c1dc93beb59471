package hintstore

import (
	"sync/atomic"

	"vroom/internal/hints"
	"vroom/internal/hintstore/persist"
	"vroom/internal/telemetry"
)

// Hint-quality metric families: the per-tenant efficacy surface. All are
// bounded-cardinality Vec families labeled by origin (capped at the store's
// MaxTenants, overflow folded into "other") so a tenant storm cannot grow
// the exposition. Precision and recall are computed at scrape/audit time
// from the counters, never stored.
const (
	MetricHintsEmitted = "vroom_hint_quality_hints_emitted_total"
	MetricHintsUsed    = "vroom_hint_quality_hints_used_total"
	MetricHintsUnused  = "vroom_hint_quality_hints_unused_total"
	MetricHintsMissed  = "vroom_hint_quality_hints_missed_total"
	MetricPushedBytes  = "vroom_hint_quality_pushed_bytes_total"
	MetricWastedPush   = "vroom_hint_quality_wasted_push_bytes_total"
	MetricPushLeadMs   = "vroom_hint_quality_push_lead_ms"
	MetricStalenessMs  = "vroom_hint_quality_staleness_ms"
)

// Quality is one tenant's hint-efficacy ledger, accumulated alongside the
// shard's lookup/retrain counters and persisted with them, so efficacy
// history survives a restart the same way trained tables do.
//
// The accounting rules (DESIGN.md §13): a hint is "emitted" when it is
// served to a client on a page response; "used" when that client requests
// the hinted URL within the accounting window; "unused" when the window
// expires first. A "missed" request is a subresource fetch the table never
// hinted — the recall denominator's other half. Push-byte usage is settled
// client-side (a claimed push never re-crosses the wire), so
// WastedPushBytes here is fed by whichever reconciler can see it: the wire
// accountant's redundant pushes, or the simulator's hints.Settle outcomes.
// The per-push used/wasted counts of a hints.QualityDelta are not kept.
type Quality struct {
	HintsEmitted atomic.Int64
	HintsUsed    atomic.Int64
	HintsUnused  atomic.Int64
	HintsMissed  atomic.Int64

	PushedCount     atomic.Int64
	PushedBytes     atomic.Int64
	WastedPushBytes atomic.Int64

	// PushLeadMsSum/PushLeads accumulate push lead time — how far ahead of
	// the client's need a pushed resource arrived.
	PushLeadMsSum atomic.Int64
	PushLeads     atomic.Int64
	// StaleServeMsSum/StaleServes accumulate the served table's staleness
	// age (now - trainedAt) at hint-serving time.
	StaleServeMsSum atomic.Int64
	StaleServes     atomic.Int64
}

// apply folds the delta into the ledger.
func (q *Quality) apply(d hints.QualityDelta) {
	if q == nil {
		return
	}
	addPos(&q.HintsEmitted, d.HintsEmitted)
	addPos(&q.HintsUsed, d.HintsUsed)
	addPos(&q.HintsUnused, d.HintsUnused)
	addPos(&q.HintsMissed, d.HintsMissed)
	addPos(&q.PushedCount, d.PushedCount)
	addPos(&q.PushedBytes, d.PushedBytes)
	addPos(&q.WastedPushBytes, d.WastedPushBytes)
	if d.PushLeads > 0 {
		q.PushLeadMsSum.Add(int64(d.PushLeadMs))
		q.PushLeads.Add(d.PushLeads)
	}
	if d.StaleObs > 0 {
		q.StaleServeMsSum.Add(int64(d.StaleMs))
		q.StaleServes.Add(d.StaleObs)
	}
}

func addPos(c *atomic.Int64, n int64) {
	if n > 0 {
		c.Add(n)
	}
}

// QualitySnapshot is a point-in-time copy of a tenant's ledger.
type QualitySnapshot struct {
	Origin string
	persist.QualityState
}

// state copies the ledger into its durable form, the one shape both a
// QualitySnapshot and a snapshot or WAL record carry.
func (q *Quality) state() persist.QualityState {
	return persist.QualityState{
		HintsEmitted:    q.HintsEmitted.Load(),
		HintsUsed:       q.HintsUsed.Load(),
		HintsUnused:     q.HintsUnused.Load(),
		HintsMissed:     q.HintsMissed.Load(),
		PushedCount:     q.PushedCount.Load(),
		PushedBytes:     q.PushedBytes.Load(),
		WastedPushBytes: q.WastedPushBytes.Load(),
		PushLeadMsSum:   q.PushLeadMsSum.Load(),
		PushLeads:       q.PushLeads.Load(),
		StaleServeMsSum: q.StaleServeMsSum.Load(),
		StaleServes:     q.StaleServes.Load(),
	}
}

// restore seeds the ledger from a recovered snapshot.
func (q *Quality) restore(s persist.QualityState) {
	q.HintsEmitted.Store(s.HintsEmitted)
	q.HintsUsed.Store(s.HintsUsed)
	q.HintsUnused.Store(s.HintsUnused)
	q.HintsMissed.Store(s.HintsMissed)
	q.PushedCount.Store(s.PushedCount)
	q.PushedBytes.Store(s.PushedBytes)
	q.WastedPushBytes.Store(s.WastedPushBytes)
	q.PushLeadMsSum.Store(s.PushLeadMsSum)
	q.PushLeads.Store(s.PushLeads)
	q.StaleServeMsSum.Store(s.StaleServeMsSum)
	q.StaleServes.Store(s.StaleServes)
}

// qualityVecs is the store's bundle of per-origin efficacy metric handles;
// the zero value (Instrument never called) no-ops on every path.
type qualityVecs struct {
	emitted *telemetry.CounterVec
	used    *telemetry.CounterVec
	unused  *telemetry.CounterVec
	missed  *telemetry.CounterVec
	pushedB *telemetry.CounterVec
	wastedB *telemetry.CounterVec
	leadMs  *telemetry.HistogramVec
	staleMs *telemetry.HistogramVec
}

func (st *Store) instrumentQuality(reg *telemetry.Registry) {
	reg.Describe(MetricHintsEmitted, "Hints served to clients, by origin.")
	reg.Describe(MetricHintsUsed, "Hints the client requested within the accounting window.")
	reg.Describe(MetricHintsUnused, "Hints whose accounting window expired unrequested.")
	reg.Describe(MetricHintsMissed, "Subresource requests the hint table failed to predict.")
	reg.Describe(MetricPushedBytes, "Bytes pushed ahead of request, by origin.")
	reg.Describe(MetricWastedPush, "Pushed bytes never used by the client.")
	reg.Describe(MetricPushLeadMs, "Push lead time: how far ahead of need a push arrived (ms).")
	reg.Describe(MetricStalenessMs, "Served hint-table staleness age at lookup (ms).")
	cap := st.cfg.maxTenants()
	st.qual = qualityVecs{
		emitted: reg.CounterVec(MetricHintsEmitted, "origin", cap),
		used:    reg.CounterVec(MetricHintsUsed, "origin", cap),
		unused:  reg.CounterVec(MetricHintsUnused, "origin", cap),
		missed:  reg.CounterVec(MetricHintsMissed, "origin", cap),
		pushedB: reg.CounterVec(MetricPushedBytes, "origin", cap),
		wastedB: reg.CounterVec(MetricWastedPush, "origin", cap),
		leadMs:  reg.HistogramVec(MetricPushLeadMs, "origin", cap),
		staleMs: reg.HistogramVec(MetricStalenessMs, "origin", cap),
	}
}

// NoteQuality folds one batch of efficacy observations into origin's ledger
// and the per-origin metric families. Unknown origins (evicted tenants,
// misses) still reach the metrics so the scrape surface is complete, but
// have no shard ledger to persist. Safe on a nil store.
func (st *Store) NoteQuality(origin string, d hints.QualityDelta) {
	if st == nil {
		return
	}
	st.mu.RLock()
	sh := st.tenants[origin]
	st.mu.RUnlock()
	if sh != nil {
		sh.quality.apply(d)
	}
	q := &st.qual
	addVec(q.emitted, origin, d.HintsEmitted)
	addVec(q.used, origin, d.HintsUsed)
	addVec(q.unused, origin, d.HintsUnused)
	addVec(q.missed, origin, d.HintsMissed)
	addVec(q.pushedB, origin, d.PushedBytes)
	addVec(q.wastedB, origin, d.WastedPushBytes)
	if d.PushLeads > 0 {
		q.leadMs.With(origin).Observe(d.PushLeadMs)
	}
	if d.StaleObs > 0 {
		q.staleMs.With(origin).Observe(d.StaleMs)
	}
}

func addVec(cv *telemetry.CounterVec, origin string, n int64) {
	if cv == nil || n <= 0 {
		return
	}
	cv.With(origin).Add(n)
}

// QualityOf returns a point-in-time snapshot of one tenant's efficacy
// ledger (zero snapshot for unknown origins or a nil store).
func (st *Store) QualityOf(origin string) QualitySnapshot {
	if st == nil {
		return QualitySnapshot{Origin: origin}
	}
	st.mu.RLock()
	sh := st.tenants[origin]
	st.mu.RUnlock()
	if sh == nil {
		return QualitySnapshot{Origin: origin}
	}
	return QualitySnapshot{Origin: origin, QualityState: sh.quality.state()}
}

// QualityAll snapshots every resident tenant's ledger, sorted by origin via
// the caller if needed (map iteration order here).
func (st *Store) QualityAll() []QualitySnapshot {
	if st == nil {
		return nil
	}
	st.mu.RLock()
	out := make([]QualitySnapshot, 0, len(st.tenants))
	for origin, sh := range st.tenants {
		out = append(out, QualitySnapshot{Origin: origin, QualityState: sh.quality.state()})
	}
	st.mu.RUnlock()
	return out
}
