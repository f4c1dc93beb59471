// Package audit distills a load run's observability exhaust — periodic
// /metrics scrapes, the merged Perfetto trace, flight-recorder dumps —
// into one per-origin hint-efficacy report. It is the read side of the
// hint-quality accounting the wire server and hint store keep: precision,
// recall, wasted push bytes, push lead time, and table staleness, broken
// down per tenant and cross-checked against client-side trace latencies.
//
// The package is pure computation over already-collected artifacts so it
// can run offline: cmd/vroom-audit feeds it a scrape-series file written
// by vroom-load -scrape-out (or a single live scrape), and vroom-load
// itself uses FoldInto to stamp the same numbers into its vroom-bench/v1
// artifact.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vroom/internal/benchfmt"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/loadgen"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
)

// Schema versions the report JSON cmd/vroom-audit emits.
const Schema = "vroom-audit/v1"

// Report is the merged efficacy view of one run.
type Report struct {
	Schema     string  `json:"schema"`
	Scrapes    int     `json:"scrapes"`
	ScrapeGaps int     `json:"scrape_gaps"`
	WindowMs   float64 `json:"window_ms,omitempty"`

	Totals  Totals                 `json:"totals"`
	Origins []benchfmt.OriginStats `json:"origins,omitempty"`

	Runtime *RuntimeHealth `json:"runtime,omitempty"`
	Trace   *TraceStats    `json:"trace,omitempty"`
	Flight  *FlightStats   `json:"flight,omitempty"`
}

// Totals aggregates the efficacy counters across every origin. Precision
// and recall are recomputed here from the summed counters — never averaged
// over per-origin ratios, which would weight a one-hint tenant equally
// with a thousand-hint one.
type Totals struct {
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed,omitempty"`
	Degraded int64 `json:"degraded,omitempty"`

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

// RuntimeHealth is the server's Go-runtime vitals at the final scrape.
type RuntimeHealth struct {
	HeapBytes     float64 `json:"heap_bytes"`
	Goroutines    float64 `json:"goroutines"`
	GCCycles      float64 `json:"gc_cycles"`
	GCPauseP99Ms  float64 `json:"gc_pause_p99_ms,omitempty"`
	SchedLatP99Ms float64 `json:"sched_lat_p99_ms,omitempty"`
	SampleErrors  float64 `json:"sample_errors,omitempty"`
}

// TraceStats summarizes the merged storm trace: client fetch latencies
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
// failed to observe.
func Summarize(points []loadgen.ScrapePoint) *Report {
	r := &Report{Schema: Schema, Scrapes: len(points), ScrapeGaps: loadgen.Gaps(points)}
	if len(points) > 1 {
		r.WindowMs = float64(points[len(points)-1].At.Sub(points[0].At).Milliseconds())
	}
	sc := loadgen.Last(points)
	if sc == nil {
		return r
	}

	r.Totals = Totals{
		Requests:        int64(sc.Sum("vroom_server_requests_total", nil)),
		Shed:            int64(sc.Sum("vroom_server_shed_total", nil)),
		Degraded:        int64(sc.Sum("vroom_server_degraded_total", nil)),
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
	r.Totals.Precision, r.Totals.Recall = precisionRecall(r.Totals.HintsUsed, r.Totals.HintsUnused, r.Totals.HintsMissed)
	r.Origins = originRows(sc)

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
func originRows(sc *loadgen.Scrape) []benchfmt.OriginStats {
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
	rows := make([]benchfmt.OriginStats, 0, len(origins))
	for _, o := range origins {
		row := benchfmt.OriginStats{
			Origin:          o,
			Requests:        int64(families["req"][o]),
			Shed:            int64(families["shed"][o]),
			Degraded:        int64(families["degr"][o]),
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

// FoldInto stamps the report's efficacy view into a vroom-bench/v1 Server
// block, leaving the block's serving-side figures (QPS, lookup latency)
// alone — those come from the load run itself.
func (r *Report) FoldInto(st *benchfmt.ServerStats) {
	if st == nil {
		return
	}
	st.HintPrecision = r.Totals.Precision
	st.HintRecall = r.Totals.Recall
	st.HintsEmitted = r.Totals.HintsEmitted
	st.PushedBytes = r.Totals.PushedBytes
	st.WastedPushBytes = r.Totals.WastedPushBytes
	st.PushLeadP50Ms = r.Totals.PushLeadP50Ms
	st.StalenessP50Ms = r.Totals.StalenessP50Ms
	st.Scrapes = r.Scrapes
	st.ScrapeGaps = r.ScrapeGaps
	st.Origins = append([]benchfmt.OriginStats(nil), r.Origins...)
}

// AddTrace merges a Perfetto storm trace (vroom-load -trace-out) into the
// report: fetch-span latencies per origin and the count of flows that
// joined the client and server recordings.
func (r *Report) AddTrace(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ts, err := summarizeTrace(b)
	if err != nil {
		return fmt.Errorf("audit: %s: %w", path, err)
	}
	r.Trace = ts
	return nil
}

// AddFlightDir counts and sizes the flight-recorder dumps under dir.
// Unreadable files are skipped — a torn dump must not fail the audit.
func (r *Report) AddFlightDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	fs := &FlightStats{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
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
	return nil
}

// perfetto-side parsing, private to the audit.

type perfettoEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"` // microseconds
	Tid  int               `json:"tid"`
	ID   string            `json:"id,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

func summarizeTrace(data []byte) (*TraceStats, error) {
	var f struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	ts := &TraceStats{Events: len(f.TraceEvents)}

	// Recover track names from thread_name metadata, so server-side spans
	// (tracks prefixed "srv:" by the merge) are tellable from client ones.
	srvTid := make(map[int]bool)
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			srvTid[ev.Tid] = strings.HasPrefix(ev.Args["name"], "srv:")
		}
	}

	// Pair fetch spans: nested B/E by per-tid stack, async b/e by tid+id.
	type open struct {
		ts     int64
		origin string
	}
	stacks := make(map[int][]open)
	async := make(map[string]open)
	durs := telemetry.NewDist()
	byOrigin := make(map[string]*telemetry.Dist)
	record := func(o open, end int64) {
		ms := float64(end-o.ts) / 1000
		durs.Add(ms)
		if o.origin != "" {
			if byOrigin[o.origin] == nil {
				byOrigin[o.origin] = telemetry.NewDist()
			}
			byOrigin[o.origin].Add(ms)
		}
	}
	originOf := func(ev perfettoEvent) string {
		u, err := urlutil.Parse(ev.Args["url"])
		if err != nil {
			return ""
		}
		return u.Host
	}
	flowTids := make(map[string]map[bool]bool)
	for _, ev := range f.TraceEvents {
		if ev.Ph == "s" || ev.Ph == "f" {
			m := flowTids[ev.ID]
			if m == nil {
				m = make(map[bool]bool)
				flowTids[ev.ID] = m
			}
			m[srvTid[ev.Tid]] = true
			continue
		}
		if srvTid[ev.Tid] && (ev.Ph == "B" || ev.Ph == "b") {
			ts.ServerSpans++
		}
		if ev.Name != "fetch" {
			continue
		}
		switch ev.Ph {
		case "B":
			stacks[ev.Tid] = append(stacks[ev.Tid], open{ev.Ts, originOf(ev)})
		case "E":
			st := stacks[ev.Tid]
			if n := len(st); n > 0 {
				record(st[n-1], ev.Ts)
				stacks[ev.Tid] = st[:n-1]
			}
		case "b":
			async[fmt.Sprintf("%d|%s", ev.Tid, ev.ID)] = open{ev.Ts, originOf(ev)}
		case "e":
			key := fmt.Sprintf("%d|%s", ev.Tid, ev.ID)
			if o, ok := async[key]; ok {
				record(o, ev.Ts)
				delete(async, key)
			}
		}
	}
	for _, sides := range flowTids {
		if sides[true] && sides[false] {
			ts.CrossFlows++
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
	return ts, nil
}

// Render prints the report as a terminal table: an aggregate header, then
// the per-origin rows sorted by hints emitted (ties by origin), capped at
// top rows (0 = all).
func (r *Report) Render(w io.Writer, top int) {
	fmt.Fprintf(w, "hint efficacy — %d scrape(s), %d gap(s)", r.Scrapes, r.ScrapeGaps)
	if r.WindowMs > 0 {
		fmt.Fprintf(w, ", %.1fs window", r.WindowMs/1000)
	}
	fmt.Fprintln(w)
	t := r.Totals
	fmt.Fprintf(w, "  requests %d  shed %d  degraded %d\n", t.Requests, t.Shed, t.Degraded)
	fmt.Fprintf(w, "  hints: emitted %d  used %d  unused %d  missed %d  precision %.3f  recall %.3f\n",
		t.HintsEmitted, t.HintsUsed, t.HintsUnused, t.HintsMissed, t.Precision, t.Recall)
	fmt.Fprintf(w, "  push: %s pushed, %s wasted, lead p50 %.1fms  staleness p50 %.0fms\n",
		fmtBytes(t.PushedBytes), fmtBytes(t.WastedPushBytes), t.PushLeadP50Ms, t.StalenessP50Ms)
	if r.Runtime != nil {
		rt := r.Runtime
		fmt.Fprintf(w, "  runtime: heap %s  goroutines %.0f  gc %.0f (pause p99 %.2fms)  sched p99 %.2fms\n",
			fmtBytes(int64(rt.HeapBytes)), rt.Goroutines, rt.GCCycles, rt.GCPauseP99Ms, rt.SchedLatP99Ms)
	}
	if r.Trace != nil {
		tr := r.Trace
		fmt.Fprintf(w, "  trace: %d fetch span(s), p50 %.1fms p95 %.1fms, %d server span(s), %d cross-process flow(s)\n",
			tr.Fetches, tr.FetchP50Ms, tr.FetchP95Ms, tr.ServerSpans, tr.CrossFlows)
	}
	if r.Flight != nil {
		fmt.Fprintf(w, "  flight: %d dump(s), %d event(s)\n", r.Flight.Dumps, r.Flight.Events)
	}
	if len(r.Origins) == 0 {
		fmt.Fprintln(w, "  (no per-origin accounting in scrape — server running without -accounting?)")
		return
	}

	rows := append([]benchfmt.OriginStats(nil), r.Origins...)
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
