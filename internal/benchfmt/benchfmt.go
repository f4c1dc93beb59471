// Package benchfmt defines the machine-readable load-run artifact
// cmd/vroom-load emits (-json-out) and cmd/vroom-audit -bench folds hint
// efficacy into. The schema is versioned so a reader rejects an artifact
// from a different generation instead of misreading it.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"

	"vroom/internal/telemetry"
)

// Schema identifies the artifact layout. Bump on incompatible change.
const Schema = "vroom-bench/v1"

// File is one load run: its configuration plus the run's distilled series.
type File struct {
	Schema    string   `json:"schema"`
	Scale     string   `json:"scale"`
	Seed      int64    `json:"seed"`
	Faults    string   `json:"faults"`
	Workers   int      `json:"workers"`
	ElapsedMs float64  `json:"elapsed_ms"`
	Figures   []Figure `json:"figures"`
}

// Figure is one titled set of series.
type Figure struct {
	ID        string   `json:"id"`
	Title     string   `json:"title"`
	ElapsedMs float64  `json:"elapsed_ms"`
	Series    []Series `json:"series"`
	Notes     []string `json:"notes,omitempty"`
	// Server carries the serving side of the run: offered rate,
	// hint-lookup latency, shed and degradation rates. Absent when the
	// scrape failed.
	Server *ServerStats `json:"server,omitempty"`
}

// ServerStats is the server-side series block a load run records.
type ServerStats struct {
	// QPS is requests served per wall-clock second over the run.
	QPS float64 `json:"qps"`
	// HintLookupP50/P99 are hint-store lookup latencies in milliseconds.
	HintLookupP50 float64 `json:"hint_lookup_p50_ms"`
	HintLookupP99 float64 `json:"hint_lookup_p99_ms"`
	// ShedRate is shed requests / (served + shed).
	ShedRate float64 `json:"shed_rate"`
	// DegradedRate is degraded responses / served.
	DegradedRate float64 `json:"degraded_rate"`
	// Requests and Shed are the raw counters behind the rates.
	Requests int64 `json:"requests"`
	Shed     int64 `json:"shed"`
	// RecoveryMs, RecoveredTables, and Quarantined report the server's
	// cold-start restore when it ran with -state-dir: how long the
	// snapshot-load + WAL-replay pass took, how many origin tables it
	// brought back, and how many corrupt or torn artifacts it set aside.
	// All zero (and omitted) on a server without durable state.
	RecoveryMs      float64 `json:"recovery_ms,omitempty"`
	RecoveredTables int64   `json:"recovered_tables,omitempty"`
	Quarantined     int64   `json:"quarantined,omitempty"`
	// WALFsyncP99 is the WAL fsync latency p99 in milliseconds — the
	// durability tax each retrain publish pays under -state-dir.
	WALFsyncP99 float64 `json:"wal_fsync_p99_ms,omitempty"`
	// StaleRestoreRate is stale-restore-tagged responses / served: how much
	// of the storm was answered from disk-restored tables not yet refreshed
	// by background retraining.
	StaleRestoreRate float64 `json:"stale_restore_rate,omitempty"`
	// Hint-efficacy block, aggregated across every origin from the
	// server's vroom_hint_quality_* families. Precision is used hints /
	// settled hints; Recall is used hints / (used + missed fetches). All
	// omitted when the server ran without accounting.
	HintPrecision   float64 `json:"hint_precision,omitempty"`
	HintRecall      float64 `json:"hint_recall,omitempty"`
	HintsEmitted    int64   `json:"hints_emitted,omitempty"`
	PushedBytes     int64   `json:"pushed_bytes,omitempty"`
	WastedPushBytes int64   `json:"wasted_push_bytes,omitempty"`
	// PushLeadP50Ms is the median time a pushed resource sat ready before
	// the client needed it; StalenessP50Ms the median age of served hint
	// tables.
	PushLeadP50Ms  float64 `json:"push_lead_p50_ms,omitempty"`
	StalenessP50Ms float64 `json:"staleness_p50_ms,omitempty"`
	// Scrapes and ScrapeGaps report the periodic-scrape series the stats
	// were merged from: how many scrapes landed and how many gapped (both
	// the attempt and its retry failed). A gappy series means the numbers
	// above may under-count a mid-storm outage window.
	Scrapes    int `json:"scrapes,omitempty"`
	ScrapeGaps int `json:"scrape_gaps,omitempty"`
	// Origins breaks the efficacy and serving counters down per origin,
	// sorted by origin name. The telemetry layer bounds cardinality, so a
	// trailing "other" row may absorb past-cap origins.
	Origins []OriginStats `json:"origins,omitempty"`
}

// OriginStats is one origin's row in the per-tenant efficacy breakdown.
// Settlement counters attribute to the hinted URL's host while emissions
// attribute to the hinting document's origin, so cross-origin hints make
// used+unused ≤ emitted hold only over the aggregate, not per row.
type OriginStats struct {
	Origin          string  `json:"origin"`
	Requests        int64   `json:"requests,omitempty"`
	Shed            int64   `json:"shed,omitempty"`
	Degraded        int64   `json:"degraded,omitempty"`
	HintsEmitted    int64   `json:"hints_emitted,omitempty"`
	HintsUsed       int64   `json:"hints_used,omitempty"`
	HintsUnused     int64   `json:"hints_unused,omitempty"`
	HintsMissed     int64   `json:"hints_missed,omitempty"`
	Precision       float64 `json:"precision,omitempty"`
	Recall          float64 `json:"recall,omitempty"`
	PushedBytes     int64   `json:"pushed_bytes,omitempty"`
	WastedPushBytes int64   `json:"wasted_push_bytes,omitempty"`
}

// Series is one labelled distribution, distilled to the quartiles the
// terminal table prints plus mean and p95.
type Series struct {
	Label string  `json:"label"`
	N     int     `json:"n"`
	Mean  float64 `json:"mean"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P95   float64 `json:"p95"`
}

// SeriesOf distills a labelled distribution into a Series. An empty
// distribution reports zeros, never NaN, which encoding/json rejects.
func SeriesOf(label string, d *telemetry.Dist) Series {
	if d.N() == 0 {
		return Series{Label: label}
	}
	return Series{
		Label: label, N: d.N(), Mean: d.Mean(),
		P25: d.Percentile(25), P50: d.Median(), P75: d.Percentile(75), P95: d.Percentile(95),
	}
}

// Load reads and validates one artifact.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s: schema %q, want %q", path, f.Schema, Schema)
	}
	return &f, nil
}

// Save writes one artifact, indented for diffable commits.
func Save(path string, f *File) error {
	f.Schema = Schema
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
