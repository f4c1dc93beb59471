package audit

import (
	"math"
	"strings"
	"testing"
	"time"

	"vroom/internal/loadgen"
	"vroom/internal/obs"
)

const exposition = `
# HELP vroom_server_requests_total Requests served, by protocol.
vroom_server_requests_total{proto="h2"} 90
vroom_server_requests_total{proto="h1"} 10
vroom_server_shed_total 5
vroom_server_degraded_total{mode="stale-hints"} 3
vroom_server_degraded_total{mode="shed-push"} 2
vroom_server_degraded_total{mode="stale-restore"} 4
vroom_store_hint_lookup_ms_bucket{le="0.5"} 40
vroom_store_hint_lookup_ms_bucket{le="1"} 80
vroom_store_hint_lookup_ms_bucket{le="4"} 100
vroom_store_hint_lookup_ms_bucket{le="+Inf"} 100
vroom_persist_recovery_ms 12
vroom_persist_recovered_tables 2
vroom_persist_quarantined_total 1
vroom_persist_wal_fsync_ms_bucket{le="2"} 10
vroom_persist_wal_fsync_ms_bucket{le="+Inf"} 10
vroom_server_origin_requests_total{origin="news.example"} 80
vroom_server_origin_requests_total{origin="cdn.example"} 20
vroom_hint_quality_hints_emitted_total{origin="news.example"} 40
vroom_hint_quality_hints_used_total{origin="news.example"} 18
vroom_hint_quality_hints_used_total{origin="cdn.example"} 12
vroom_hint_quality_hints_unused_total{origin="news.example"} 6
vroom_hint_quality_hints_unused_total{origin="cdn.example"} 4
vroom_hint_quality_hints_missed_total{origin="cdn.example"} 10
vroom_hint_quality_pushed_bytes_total{origin="cdn.example"} 4096
vroom_hint_quality_wasted_push_bytes_total{origin="cdn.example"} 1024
vroom_hint_quality_push_lead_ms_bucket{le="5"} 2
vroom_hint_quality_push_lead_ms_bucket{le="50"} 10
vroom_hint_quality_push_lead_ms_bucket{le="+Inf"} 10
vroom_runtime_heap_bytes 1048576
vroom_runtime_goroutines 42
vroom_runtime_gc_cycles_total 7
`

func seriesFrom(t *testing.T, text string) []loadgen.ScrapePoint {
	t.Helper()
	sc, err := loadgen.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(100, 0)
	return []loadgen.ScrapePoint{
		{At: base, Gap: true, Err: "connection refused"},
		{At: base.Add(2 * time.Second), Scrape: sc},
	}
}

func TestSummarizeTotalsAndOrigins(t *testing.T) {
	r := Summarize(seriesFrom(t, exposition))

	if r.Scrapes != 2 || r.ScrapeGaps != 1 {
		t.Fatalf("scrapes/gaps = %d/%d, want 2/1", r.Scrapes, r.ScrapeGaps)
	}
	tot := r.Totals
	if tot.Requests != 100 || tot.Shed != 5 {
		t.Fatalf("serving totals wrong: %+v", tot)
	}
	// A shed request never counts as served: 5 / (100 + 5).
	if want := 5.0 / 105.0; tot.ShedShare != want {
		t.Fatalf("shed share = %v, want %v", tot.ShedShare, want)
	}
	if m := tot.DegradedModes; len(m) != 3 || m["stale-hints"] != 3 || m["shed-push"] != 2 || m["stale-restore"] != 4 {
		t.Fatalf("degraded modes = %v, want stale-hints=3 shed-push=2 stale-restore=4", m)
	}
	if tot.StaleRestoreShare != 0.04 {
		t.Fatalf("stale-restore share = %v, want 4/100", tot.StaleRestoreShare)
	}
	// Lookup buckets 40 ≤0.5ms, 80 ≤1ms, 100 ≤4ms: p50 interpolates a
	// quarter into (0.5, 1], p99 nineteen twentieths into (1, 4].
	if !near(tot.HintLookupP50Ms, 0.625) || !near(tot.HintLookupP99Ms, 3.85) {
		t.Fatalf("hint lookup p50/p99 = %v/%v, want 0.625/3.85", tot.HintLookupP50Ms, tot.HintLookupP99Ms)
	}
	// used 30, unused 10 → precision 0.75; missed 10 → recall 0.75.
	if tot.HintsEmitted != 40 || tot.HintsUsed != 30 || tot.HintsUnused != 10 || tot.HintsMissed != 10 {
		t.Fatalf("hint totals wrong: %+v", tot)
	}
	if tot.Precision != 0.75 || tot.Recall != 0.75 {
		t.Fatalf("precision/recall = %v/%v, want 0.75/0.75", tot.Precision, tot.Recall)
	}
	if tot.PushedBytes != 4096 || tot.WastedPushBytes != 1024 {
		t.Fatalf("push bytes wrong: %+v", tot)
	}
	if tot.PushLeadP50Ms <= 0 || tot.PushLeadP50Ms > 50 {
		t.Fatalf("push lead p50 = %v, want within (0, 50]", tot.PushLeadP50Ms)
	}

	if len(r.Origins) != 2 {
		t.Fatalf("want 2 origin rows, got %+v", r.Origins)
	}
	// Sorted by origin: cdn first.
	cdn, news := r.Origins[0], r.Origins[1]
	if cdn.Origin != "cdn.example" || news.Origin != "news.example" {
		t.Fatalf("rows not sorted by origin: %+v", r.Origins)
	}
	if cdn.HintsUsed != 12 || cdn.HintsMissed != 10 || cdn.PushedBytes != 4096 {
		t.Fatalf("cdn row wrong: %+v", cdn)
	}
	if got, want := cdn.Precision, 12.0/16.0; got != want {
		t.Fatalf("cdn precision = %v, want %v", got, want)
	}
	if news.HintsEmitted != 40 || news.Requests != 80 {
		t.Fatalf("news row wrong: %+v", news)
	}

	if r.Runtime == nil || r.Runtime.Goroutines != 42 || r.Runtime.HeapBytes != 1048576 {
		t.Fatalf("runtime health missing or wrong: %+v", r.Runtime)
	}
	rc := r.Recovery
	if rc == nil || rc.Ms != 12 || rc.Tables != 2 || rc.Quarantined != 1 || !near(rc.WALFsyncP99Ms, 1.98) {
		t.Fatalf("recovery block = %+v, want 12ms, 2 tables, 1 quarantined, fsync p99 1.98ms", rc)
	}
}

func near(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestDegradedShareCountsResponses pins the per-response degraded share:
// one response tagged both stale-hints and shed-push bumps the server's
// degraded counter once per mode, so the share comes from the client's
// response count, and the modes stay per-mode counts.
func TestDegradedShareCountsResponses(t *testing.T) {
	r := Summarize(seriesFrom(t, `
vroom_server_requests_total{proto="h2"} 1
vroom_server_degraded_total{mode="stale-hints"} 1
vroom_server_degraded_total{mode="shed-push"} 1
`))
	if m := r.Totals.DegradedModes; len(m) != 2 || m["stale-hints"] != 1 || m["shed-push"] != 1 {
		t.Fatalf("degraded modes = %v, want one tag of each", m)
	}
	r.AddStorm(&loadgen.Result{
		Loads: 1, Fetches: 1, DegradedResps: 1,
		DegradedModes: map[string]int{"stale-hints": 1, "shed-push": 1},
		ByClass:       map[string][]float64{"phone": {10, 20, 30}},
		Elapsed:       2 * time.Second,
	})
	st := r.Storm
	if st.DegradedShare != 1 {
		t.Fatalf("degraded share = %v, want 1 (one response, two tags)", st.DegradedShare)
	}
	if st.QPS != 0.5 {
		t.Fatalf("qps = %v, want 1 request / 2s", st.QPS)
	}
	if len(st.Classes) != 1 || st.Classes[0] != (ClassStats{Class: "phone", N: 3, MeanMs: 20, P50Ms: 20, P95Ms: 29}) {
		t.Fatalf("class stats = %+v", st.Classes)
	}
	var sb strings.Builder
	r.Render(&sb, 0)
	if out := sb.String(); !strings.Contains(out, "1 degraded responses (100.0%)") ||
		!strings.Contains(out, "degradation tags: shed-push=1 stale-hints=1") {
		t.Fatalf("render miscounts degradation:\n%s", out)
	}
}

func TestSummarizeAllGapsDegradesGracefully(t *testing.T) {
	base := time.Unix(100, 0)
	r := Summarize([]loadgen.ScrapePoint{{At: base, Gap: true, Err: "down"}})
	if r.Scrapes != 1 || r.ScrapeGaps != 1 || len(r.Origins) != 0 || r.Totals.Requests != 0 {
		t.Fatalf("all-gap summary should be empty, got %+v", r)
	}
	var sb strings.Builder
	r.Render(&sb, 0)
	if !strings.Contains(sb.String(), "no per-origin accounting") {
		t.Fatalf("render missing empty-table note:\n%s", sb.String())
	}
}

func TestRenderTable(t *testing.T) {
	r := Summarize(seriesFrom(t, exposition))
	var sb strings.Builder
	r.Render(&sb, 1)
	out := sb.String()
	for _, want := range []string{"precision 0.750", "news.example", "… 1 more origin(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Top-1 by emitted: news (40) shown, cdn clipped.
	if strings.Contains(out, "cdn.example") {
		t.Fatalf("top=1 should clip the cdn row:\n%s", out)
	}
}

// TestSummarizeTrace builds a merged storm recording the way vroom-load
// does — a client and a server tracer, the server's tracks prefixed, then
// Merge — and pins the digest: fetch spans pair by event ID even though
// both tracers numbered their spans from 1, server spans are told apart
// by the prefix, and CrossFlows is obs.FlowJoinCount's answer.
func TestSummarizeTrace(t *testing.T) {
	base := time.Unix(1000, 0)
	ms := func(n int) time.Time { return base.Add(time.Duration(n) * time.Millisecond) }

	client := &obs.Recording{Start: base}
	ct := obs.NewWall(client)
	load := ct.BeginAt(ms(0), obs.TrackLoad, "load")
	ct.BeginAt(ms(0), obs.TrackLoad, "fetch",
		obs.Arg{Key: "url", Val: "https://news.example/"}, obs.Arg{Key: obs.ArgFlow, Val: "1:1"}).EndAt(ms(8))
	ct.BeginAt(ms(1), obs.TrackLoad, "fetch",
		obs.Arg{Key: "url", Val: "https://cdn.example/a.js"}).EndAt(ms(3))
	ct.BeginAt(ms(9), obs.TrackLoad, "fetch",
		obs.Arg{Key: "url", Val: "https://news.example/b.css"}).EndAt(ms(13))
	load.EndAt(ms(14))

	server := &obs.Recording{Start: base}
	st := obs.NewWall(server)
	st.BeginAt(ms(2), obs.TrackServer, "serve", obs.Arg{Key: obs.ArgFlow, Val: "1:1"}).EndAt(ms(5))
	st.BeginAt(ms(10), obs.TrackServer, "serve").EndAt(ms(11))

	merged := obs.Merge(client, obs.PrefixTracks(server, ServerTrackPrefix))
	var r Report
	r.AddTrace(merged)
	ts := r.Trace
	if ts.Events != len(merged.Events) {
		t.Fatalf("events = %d, want %d", ts.Events, len(merged.Events))
	}
	if ts.Fetches != 3 {
		t.Fatalf("fetches = %d, want 3", ts.Fetches)
	}
	if ts.ServerSpans != 2 {
		t.Fatalf("server spans = %d, want 2", ts.ServerSpans)
	}
	if want := obs.FlowJoinCount(merged, ServerTrackPrefix); ts.CrossFlows != want || want != 1 {
		t.Fatalf("cross flows = %d, FlowJoinCount = %d, want both 1", ts.CrossFlows, want)
	}
	if ts.FetchP50Ms != 4 {
		t.Fatalf("fetch p50 = %v, want 4 (of 8, 2, 4)", ts.FetchP50Ms)
	}
	if tf := ts.ByOrigin["news.example"]; tf.Fetches != 2 || tf.P50Ms != 6 {
		t.Fatalf("news fetch digest wrong: %+v", ts.ByOrigin)
	}
	if tf := ts.ByOrigin["cdn.example"]; tf.Fetches != 1 || tf.P50Ms != 2 {
		t.Fatalf("cdn fetch digest wrong: %+v", ts.ByOrigin)
	}
}
