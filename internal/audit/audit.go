// Package audit distills a load run into one vroom-audit/v1 report: the
// client side of the storm, the server's /metrics scrapes, the merged storm
// recording and the flight-recorder dumps. The scrape part is the read side
// of the hint-quality accounting the wire server and hint store keep —
// precision, recall, wasted push bytes, push lead time and table staleness
// per tenant — next to the serving figures (shed share, hint-lookup
// latency, degradation modes, cold-start recovery), cross-checked against
// client-side fetch latencies from the trace.
//
// The package is pure computation over already-collected data. cmd/vroom-load
// writes the whole report for its own storm (-json-out); cmd/vroom-audit
// builds and gates the scrape part offline, from a series written by
// vroom-load -scrape-out, or from one live scrape.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/loadgen"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/wire"
)

// Schema versions the report JSON.
const Schema = "vroom-audit/v1"

// ServerTrackPrefix marks the server's tracks in a merged storm recording:
// vroom-load passes the server's /trace recording through obs.PrefixTracks
// with it before obs.Merge.
const ServerTrackPrefix = "srv:"

// Report is the merged view of one run.
type Report struct {
	Schema     string  `json:"schema"`
	Scrapes    int     `json:"scrapes"`
	ScrapeGaps int     `json:"scrape_gaps"`
	WindowMs   float64 `json:"window_ms,omitempty"`

	Storm   *Storm        `json:"storm,omitempty"`
	Totals  Totals        `json:"totals"`
	Origins []OriginStats `json:"origins,omitempty"`

	Recovery *Recovery      `json:"recovery,omitempty"`
	Runtime  *RuntimeHealth `json:"runtime,omitempty"`
	Trace    *TraceStats    `json:"trace,omitempty"`
	Flight   *FlightStats   `json:"flight,omitempty"`
}

// Storm is the client side of a vroom-load storm.
type Storm struct {
	Loads       int     `json:"loads"`
	Hung        int     `json:"hung"`
	DeadlineHit int     `json:"deadline_hit"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	// QPS is the server's served requests per storm second; zero when no
	// scrape landed.
	QPS float64 `json:"qps,omitempty"`

	Fetches       int `json:"fetches"`
	FailedFetches int `json:"failed_fetches"`
	Retries       int `json:"retries"`
	Pushed        int `json:"pushed"`
	// DegradedResps counts responses carrying any degradation tag, once
	// each however many modes they carry; DegradedShare is DegradedResps
	// over Fetches. DegradedModes counts the tags by mode.
	DegradedResps int              `json:"degraded_resps"`
	DegradedShare float64          `json:"degraded_share"`
	DegradedModes map[string]int64 `json:"degraded_modes,omitempty"`

	// Classes holds per-client-class load times, sorted by class.
	Classes []ClassStats `json:"classes,omitempty"`
}

// ClassStats is one client class's completed-load times in milliseconds.
type ClassStats struct {
	Class  string  `json:"class"`
	N      int     `json:"n"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
}

// Totals aggregates the scrape across every origin. Precision and recall
// are recomputed here from the summed counters — never averaged over
// per-origin ratios, which would weight a one-hint tenant equally with a
// thousand-hint one.
type Totals struct {
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed,omitempty"`
	// ShedShare is Shed / (Requests + Shed): a shed request is never
	// counted as served.
	ShedShare float64 `json:"shed_share,omitempty"`
	// DegradedModes counts degradation tags by mode. The server counts a
	// response once per mode it carries, so the modes do not sum to a
	// response count; Storm.DegradedShare is the per-response figure.
	DegradedModes map[string]int64 `json:"degraded_modes,omitempty"`
	// StaleRestoreShare is stale-restore-tagged responses / Requests: how
	// much of the run was answered from disk-restored tables that
	// retraining had not yet refreshed.
	StaleRestoreShare float64 `json:"stale_restore_share,omitempty"`
	HintLookupP50Ms   float64 `json:"hint_lookup_p50_ms,omitempty"`
	HintLookupP99Ms   float64 `json:"hint_lookup_p99_ms,omitempty"`

	HintsEmitted int64   `json:"hints_emitted"`
	HintsUsed    int64   `json:"hints_used"`
	HintsUnused  int64   `json:"hints_unused"`
	HintsMissed  int64   `json:"hints_missed"`
	Precision    float64 `json:"precision"`
	Recall       float64 `json:"recall"`

	PushedBytes     int64 `json:"pushed_bytes,omitempty"`
	WastedPushBytes int64 `json:"wasted_push_bytes,omitempty"`

	PushLeadP50Ms  float64 `json:"push_lead_p50_ms,omitempty"`
	PushLeadP99Ms  float64 `json:"push_lead_p99_ms,omitempty"`
	StalenessP50Ms float64 `json:"staleness_p50_ms,omitempty"`
	StalenessP99Ms float64 `json:"staleness_p99_ms,omitempty"`
}

// OriginStats is one origin's row in the per-tenant breakdown. Settlement
// counters attribute to the hinted URL's host while emissions attribute to
// the hinting document's origin, so cross-origin hints make used+unused ≤
// emitted hold only over the aggregate, not per row.
type OriginStats struct {
	Origin   string `json:"origin"`
	Requests int64  `json:"requests,omitempty"`
	Shed     int64  `json:"shed,omitempty"`
	// DegradedTags counts degradation tags, one per mode a response
	// carries, as the server's per-origin counter does.
	DegradedTags    int64   `json:"degraded_tags,omitempty"`
	HintsEmitted    int64   `json:"hints_emitted,omitempty"`
	HintsUsed       int64   `json:"hints_used,omitempty"`
	HintsUnused     int64   `json:"hints_unused,omitempty"`
	HintsMissed     int64   `json:"hints_missed,omitempty"`
	Precision       float64 `json:"precision,omitempty"`
	Recall          float64 `json:"recall,omitempty"`
	PushedBytes     int64   `json:"pushed_bytes,omitempty"`
	WastedPushBytes int64   `json:"wasted_push_bytes,omitempty"`
}

// Recovery is the cold-start restore of a server running with -state-dir:
// how long the snapshot load and WAL replay took, how many origin tables
// it brought back, how many corrupt or torn artifacts it set aside, and
// the WAL fsync p99 each retrain publish has paid since.
type Recovery struct {
	Ms            float64 `json:"ms"`
	Tables        int64   `json:"tables"`
	Quarantined   int64   `json:"quarantined,omitempty"`
	WALFsyncP99Ms float64 `json:"wal_fsync_p99_ms,omitempty"`
}

// RuntimeHealth is the server's Go-runtime vitals at the final scrape.
type RuntimeHealth struct {
	HeapBytes     float64 `json:"heap_bytes"`
	Goroutines    float64 `json:"goroutines"`
	GCCycles      float64 `json:"gc_cycles"`
	GCPauseP99Ms  float64 `json:"gc_pause_p99_ms,omitempty"`
	SchedLatP99Ms float64 `json:"sched_lat_p99_ms,omitempty"`
	SampleErrors  float64 `json:"sample_errors,omitempty"`
}

// TraceStats summarizes the merged storm recording: client fetch latencies
// (per origin, joined into the table by origin name) and how many flows
// actually stitched the client and server recordings together.
type TraceStats struct {
	Events      int                     `json:"events"`
	Fetches     int                     `json:"fetches"`
	FetchP50Ms  float64                 `json:"fetch_p50_ms,omitempty"`
	FetchP95Ms  float64                 `json:"fetch_p95_ms,omitempty"`
	ServerSpans int                     `json:"server_spans,omitempty"`
	CrossFlows  int                     `json:"cross_flows,omitempty"`
	ByOrigin    map[string]TraceFetches `json:"by_origin,omitempty"`
}

// TraceFetches is one origin's client-side fetch latency digest.
type TraceFetches struct {
	Fetches int     `json:"fetches"`
	P50Ms   float64 `json:"p50_ms"`
}

// FlightStats summarizes the flight-recorder dumps a storm left behind —
// each one is a load that ended degraded, failed, late, or hung.
type FlightStats struct {
	Dumps   int   `json:"dumps"`
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped,omitempty"`
}

// Summarize builds a report from a scrape series. Counters come from the
// newest usable scrape (they are cumulative, so the last scrape is the
// whole run); the gap count reports how much of the storm the series
// failed to observe. It is the one reader of a scrape.
func Summarize(points []loadgen.ScrapePoint) *Report {
	r := &Report{Schema: Schema, Scrapes: len(points), ScrapeGaps: loadgen.Gaps(points)}
	if len(points) > 1 {
		r.WindowMs = float64(points[len(points)-1].At.Sub(points[0].At).Milliseconds())
	}
	sc := loadgen.Last(points)
	if sc == nil {
		return r
	}

	t := Totals{
		Requests:        int64(sc.Sum("vroom_server_requests_total", nil)),
		Shed:            int64(sc.Sum("vroom_server_shed_total", nil)),
		HintLookupP50Ms: sc.HistogramQuantile("vroom_store_hint_lookup_ms", 50),
		HintLookupP99Ms: sc.HistogramQuantile("vroom_store_hint_lookup_ms", 99),
		HintsEmitted:    int64(sc.Sum(hintstore.MetricHintsEmitted, nil)),
		HintsUsed:       int64(sc.Sum(hintstore.MetricHintsUsed, nil)),
		HintsUnused:     int64(sc.Sum(hintstore.MetricHintsUnused, nil)),
		HintsMissed:     int64(sc.Sum(hintstore.MetricHintsMissed, nil)),
		PushedBytes:     int64(sc.Sum(hintstore.MetricPushedBytes, nil)),
		WastedPushBytes: int64(sc.Sum(hintstore.MetricWastedPush, nil)),
		PushLeadP50Ms:   sc.HistogramQuantile(hintstore.MetricPushLeadMs, 50),
		PushLeadP99Ms:   sc.HistogramQuantile(hintstore.MetricPushLeadMs, 99),
		StalenessP50Ms:  sc.HistogramQuantile(hintstore.MetricStalenessMs, 50),
		StalenessP99Ms:  sc.HistogramQuantile(hintstore.MetricStalenessMs, 99),
	}
	if t.Requests+t.Shed > 0 {
		t.ShedShare = float64(t.Shed) / float64(t.Requests+t.Shed)
	}
	if modes := sc.SumBy("vroom_server_degraded_total", "mode"); len(modes) > 0 {
		t.DegradedModes = make(map[string]int64, len(modes))
		for m, n := range modes {
			t.DegradedModes[m] = int64(n)
		}
	}
	if t.Requests > 0 {
		t.StaleRestoreShare = float64(t.DegradedModes[wire.DegradedStaleRestore]) / float64(t.Requests)
	}
	t.Precision, t.Recall = precisionRecall(t.HintsUsed, t.HintsUnused, t.HintsMissed)
	r.Totals = t
	r.Origins = originRows(sc)

	if sc.Has("vroom_persist_recovered_tables") {
		r.Recovery = &Recovery{
			Ms:            sc.Sum("vroom_persist_recovery_ms", nil),
			Tables:        int64(sc.Sum("vroom_persist_recovered_tables", nil)),
			Quarantined:   int64(sc.Sum("vroom_persist_quarantined_total", nil)),
			WALFsyncP99Ms: sc.HistogramQuantile("vroom_persist_wal_fsync_ms", 99),
		}
	}
	if sc.Has(telemetry.MRuntimeGoroutines) || sc.Has(telemetry.MRuntimeHeapBytes) {
		r.Runtime = &RuntimeHealth{
			HeapBytes:     sc.Sum(telemetry.MRuntimeHeapBytes, nil),
			Goroutines:    sc.Sum(telemetry.MRuntimeGoroutines, nil),
			GCCycles:      sc.Sum(telemetry.MRuntimeGCCycles, nil),
			GCPauseP99Ms:  sc.HistogramQuantile(telemetry.MRuntimeGCPauseMs, 99),
			SchedLatP99Ms: sc.HistogramQuantile(telemetry.MRuntimeSchedLatMs, 99),
			SampleErrors:  sc.Sum(telemetry.MRuntimeSampleErrors, nil),
		}
	}
	return r
}

// precisionRecall scores settled hint counts by the hints.QualityDelta
// formulas.
func precisionRecall(used, unused, missed int64) (float64, float64) {
	q := hints.QualityDelta{HintsUsed: used, HintsUnused: unused, HintsMissed: missed}
	return q.Precision(), q.Recall()
}

// originRows reassembles per-origin rows from the flat exposition: the
// union of origins across the serving and hint-quality families, one row
// each, sorted by origin. Per-row precision/recall are computed from that
// row's own counters; because settlements attribute to the hinted URL's
// host while emissions attribute to the hinting document, cross-origin
// hints can make a row's used+unused exceed its emitted — the aggregate
// in Totals is the invariant-bearing number.
func originRows(sc *loadgen.Scrape) []OriginStats {
	families := map[string]map[string]float64{
		"req":    sc.SumBy("vroom_server_origin_requests_total", "origin"),
		"shed":   sc.SumBy("vroom_server_origin_shed_total", "origin"),
		"degr":   sc.SumBy("vroom_server_origin_degraded_total", "origin"),
		"emit":   sc.SumBy(hintstore.MetricHintsEmitted, "origin"),
		"used":   sc.SumBy(hintstore.MetricHintsUsed, "origin"),
		"unused": sc.SumBy(hintstore.MetricHintsUnused, "origin"),
		"missed": sc.SumBy(hintstore.MetricHintsMissed, "origin"),
		"pushed": sc.SumBy(hintstore.MetricPushedBytes, "origin"),
		"wasted": sc.SumBy(hintstore.MetricWastedPush, "origin"),
	}
	set := make(map[string]bool)
	for _, m := range families {
		for o := range m {
			if o != "" {
				set[o] = true
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	origins := make([]string, 0, len(set))
	for o := range set {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	rows := make([]OriginStats, 0, len(origins))
	for _, o := range origins {
		row := OriginStats{
			Origin:          o,
			Requests:        int64(families["req"][o]),
			Shed:            int64(families["shed"][o]),
			DegradedTags:    int64(families["degr"][o]),
			HintsEmitted:    int64(families["emit"][o]),
			HintsUsed:       int64(families["used"][o]),
			HintsUnused:     int64(families["unused"][o]),
			HintsMissed:     int64(families["missed"][o]),
			PushedBytes:     int64(families["pushed"][o]),
			WastedPushBytes: int64(families["wasted"][o]),
		}
		row.Precision, row.Recall = precisionRecall(row.HintsUsed, row.HintsUnused, row.HintsMissed)
		rows = append(rows, row)
	}
	return rows
}

// AddStorm fills the Storm block from a finished storm. Call it after
// Summarize: QPS divides the scraped request count by the storm's wall
// time.
func (r *Report) AddStorm(res *loadgen.Result) {
	st := &Storm{
		Loads:         res.Loads,
		Hung:          res.Hung,
		DeadlineHit:   res.DeadlineHit,
		ElapsedMs:     float64(res.Elapsed) / float64(time.Millisecond),
		Fetches:       res.Fetches,
		FailedFetches: res.FailedFetches,
		Retries:       res.Retries,
		Pushed:        res.Pushed,
		DegradedResps: res.DegradedResps,
	}
	if len(res.DegradedModes) > 0 {
		st.DegradedModes = make(map[string]int64, len(res.DegradedModes))
		for m, n := range res.DegradedModes {
			st.DegradedModes[m] = int64(n)
		}
	}
	if res.Fetches > 0 {
		st.DegradedShare = float64(res.DegradedResps) / float64(res.Fetches)
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		st.QPS = float64(r.Totals.Requests) / secs
	}
	classes := make([]string, 0, len(res.ByClass))
	for cl := range res.ByClass {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	for _, cl := range classes {
		d := telemetry.NewDist()
		for _, ms := range res.ByClass[cl] {
			d.Add(ms)
		}
		st.Classes = append(st.Classes, ClassStats{Class: cl, N: d.N(),
			MeanMs: d.Mean(), P50Ms: d.Median(), P95Ms: d.Percentile(95)})
	}
	r.Storm = st
}

// AddTrace digests the merged storm recording: client fetch spans, paired
// Begin to End by event ID, give the latency digest overall and per
// origin; Begin events on ServerTrackPrefix tracks count as server spans;
// CrossFlows is obs.FlowJoinCount over the same prefix.
func (r *Report) AddTrace(rec *obs.Recording) {
	ts := &TraceStats{Events: len(rec.Events), CrossFlows: obs.FlowJoinCount(rec, ServerTrackPrefix)}
	open := make(map[uint64]obs.Event)
	durs := telemetry.NewDist()
	byOrigin := make(map[string]*telemetry.Dist)
	for _, ev := range rec.Events {
		server := strings.HasPrefix(ev.Track, ServerTrackPrefix)
		switch {
		case ev.Kind == obs.KindBegin && server:
			ts.ServerSpans++
		case ev.Kind == obs.KindBegin && ev.Name == "fetch":
			open[ev.ID] = ev
		case ev.Kind == obs.KindEnd:
			b, ok := open[ev.ID]
			if !ok {
				continue
			}
			delete(open, ev.ID)
			ms := float64(ev.At.Sub(b.At)) / float64(time.Millisecond)
			durs.Add(ms)
			if u, err := urlutil.Parse(b.Arg("url")); err == nil {
				if byOrigin[u.Host] == nil {
					byOrigin[u.Host] = telemetry.NewDist()
				}
				byOrigin[u.Host].Add(ms)
			}
		}
	}
	ts.Fetches = durs.N()
	if ts.Fetches > 0 {
		ts.FetchP50Ms, ts.FetchP95Ms = durs.Median(), durs.Percentile(95)
	}
	if len(byOrigin) > 0 {
		ts.ByOrigin = make(map[string]TraceFetches, len(byOrigin))
		for o, d := range byOrigin {
			ts.ByOrigin[o] = TraceFetches{Fetches: d.N(), P50Ms: d.Median()}
		}
	}
	r.Trace = ts
}

// AddFlight counts and sizes the storm's flight-recorder dumps.
// Unreadable files are skipped — a torn dump must not fail the report.
func (r *Report) AddFlight(paths []string) {
	fs := &FlightStats{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		rec, err := obs.ReadEvents(f)
		f.Close()
		if err != nil {
			continue
		}
		fs.Dumps++
		fs.Events += len(rec.Events)
		for _, ev := range rec.Events {
			if ev.Kind == obs.KindInstant && ev.Name == "events-dropped" {
				fs.Dropped++
			}
		}
	}
	r.Flight = fs
}

// Render prints the report as a terminal table: the storm block (when
// present), the scrape aggregate (when any scrape was taken), then the
// per-origin rows sorted by hints emitted (ties by origin), capped at top
// rows (0 = all).
func (r *Report) Render(w io.Writer, top int) {
	if s := r.Storm; s != nil {
		fmt.Fprintf(w, "storm: %d loads in %.1fs (%d hung, %d deadline-hit)",
			s.Loads, s.ElapsedMs/1000, s.Hung, s.DeadlineHit)
		if s.QPS > 0 {
			fmt.Fprintf(w, ", server %.1f qps", s.QPS)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "fetches: %d (%d failed, %d retries), %d pushed, %d degraded responses (%.1f%%)\n",
			s.Fetches, s.FailedFetches, s.Retries, s.Pushed, s.DegradedResps, 100*s.DegradedShare)
		if len(s.DegradedModes) > 0 {
			fmt.Fprintf(w, "degradation: %s\n", modeList(s.DegradedModes))
		}
		for _, c := range s.Classes {
			fmt.Fprintf(w, "  %-20s n=%-4d p50=%7.1fms p95=%7.1fms\n", c.Class, c.N, c.P50Ms, c.P95Ms)
		}
	}
	if r.Scrapes > 0 {
		r.renderScrape(w, top)
	}
	if r.Trace != nil {
		tr := r.Trace
		fmt.Fprintf(w, "trace: %d fetch span(s), p50 %.1fms p95 %.1fms, %d server span(s), %d cross-process flow(s)\n",
			tr.Fetches, tr.FetchP50Ms, tr.FetchP95Ms, tr.ServerSpans, tr.CrossFlows)
	}
	if r.Flight != nil {
		fmt.Fprintf(w, "flight: %d dump(s), %d event(s)\n", r.Flight.Dumps, r.Flight.Events)
	}
}

func (r *Report) renderScrape(w io.Writer, top int) {
	fmt.Fprintf(w, "hint efficacy — %d scrape(s), %d gap(s)", r.Scrapes, r.ScrapeGaps)
	if r.WindowMs > 0 {
		fmt.Fprintf(w, ", %.1fs window", r.WindowMs/1000)
	}
	fmt.Fprintln(w)
	t := r.Totals
	fmt.Fprintf(w, "  requests %d  shed %d (%.1f%%)  hint lookup p50 %.2fms p99 %.2fms\n",
		t.Requests, t.Shed, 100*t.ShedShare, t.HintLookupP50Ms, t.HintLookupP99Ms)
	if len(t.DegradedModes) > 0 {
		fmt.Fprintf(w, "  degradation tags: %s\n", modeList(t.DegradedModes))
	}
	fmt.Fprintf(w, "  hints: emitted %d  used %d  unused %d  missed %d  precision %.3f  recall %.3f\n",
		t.HintsEmitted, t.HintsUsed, t.HintsUnused, t.HintsMissed, t.Precision, t.Recall)
	fmt.Fprintf(w, "  push: %s pushed, %s wasted, lead p50 %.1fms  staleness p50 %.0fms\n",
		fmtBytes(t.PushedBytes), fmtBytes(t.WastedPushBytes), t.PushLeadP50Ms, t.StalenessP50Ms)
	if rc := r.Recovery; rc != nil {
		fmt.Fprintf(w, "  recovery: %.0fms, %d table(s), %d quarantined, wal fsync p99 %.2fms, stale-restore %.1f%%\n",
			rc.Ms, rc.Tables, rc.Quarantined, rc.WALFsyncP99Ms, 100*t.StaleRestoreShare)
	}
	if rt := r.Runtime; rt != nil {
		fmt.Fprintf(w, "  runtime: heap %s  goroutines %.0f  gc %.0f (pause p99 %.2fms)  sched p99 %.2fms\n",
			fmtBytes(int64(rt.HeapBytes)), rt.Goroutines, rt.GCCycles, rt.GCPauseP99Ms, rt.SchedLatP99Ms)
	}
	if len(r.Origins) == 0 {
		fmt.Fprintln(w, "  (no per-origin accounting in scrape — no hints served yet?)")
		return
	}

	rows := append([]OriginStats(nil), r.Origins...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].HintsEmitted != rows[j].HintsEmitted {
			return rows[i].HintsEmitted > rows[j].HintsEmitted
		}
		return rows[i].Origin < rows[j].Origin
	})
	shown := rows
	if top > 0 && len(rows) > top {
		shown = rows[:top]
	}
	fmt.Fprintf(w, "\n  %-34s %8s %6s %6s %6s %6s %6s %9s %9s %9s\n",
		"origin", "reqs", "emit", "used", "unused", "miss", "prec", "recall", "pushed", "wasted")
	for _, row := range shown {
		fmt.Fprintf(w, "  %-34s %8d %6d %6d %6d %6d %6.3f %9.3f %9s %9s",
			clip(row.Origin, 34), row.Requests, row.HintsEmitted, row.HintsUsed,
			row.HintsUnused, row.HintsMissed, row.Precision, row.Recall,
			fmtBytes(row.PushedBytes), fmtBytes(row.WastedPushBytes))
		if r.Trace != nil {
			if tf, ok := r.Trace.ByOrigin[row.Origin]; ok {
				fmt.Fprintf(w, "  fetch p50 %.1fms", tf.P50Ms)
			}
		}
		fmt.Fprintln(w)
	}
	if len(shown) < len(rows) {
		fmt.Fprintf(w, "  … %d more origin(s)\n", len(rows)-len(shown))
	}
}

// modeList formats mode counts as "a=1 b=2", sorted by mode.
func modeList(modes map[string]int64) string {
	names := make([]string, 0, len(modes))
	for m := range modes {
		names = append(names, m)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, m := range names {
		parts[i] = fmt.Sprintf("%s=%d", m, modes[m])
	}
	return strings.Join(parts, " ")
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fmtBytes(n int64) string {
	switch {
	case n >= 10<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 10<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Save writes the report JSON, indented for diffable artifacts.
func (r *Report) Save(path string) error {
	r.Schema = Schema
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
