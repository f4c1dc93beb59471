package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name with HELP/TYPE headers,
// series sorted by label set, histograms as cumulative le-bucketed series
// with _sum and _count. Safe to call while every series is being updated.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.snapshotFamilies() {
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, ss := range f.series {
			if err := writeSeries(w, f, ss); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *familySnap, ss seriesSnap) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ss.key, ss.s.ctr.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, ss.key, ss.s.gauge.Value())
		return err
	default:
		snap := ss.s.hist.snapshot(DefaultBuckets)
		for i, b := range DefaultBuckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				withLabel(ss.key, "le", formatBound(b)), snap.cumulative[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			withLabel(ss.key, "le", "+Inf"), snap.count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, ss.key, formatFloat(snap.sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, ss.key, snap.count)
		return err
	}
}

// withLabel appends one label to an already-rendered label set.
func withLabel(key, name, val string) string {
	extra := name + `="` + escapeLabel(val) + `"`
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// formatBound renders a bucket bound without trailing zeros (25, 2.5).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'f', -1, 64)
}

func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonHist is a histogram series in the JSON dump.
type jsonHist struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// Exemplar names one concrete recent observation's trace context, so a
	// distribution in a dump can be chased back to a specific load in the
	// merged Perfetto trace. The Prometheus text endpoint deliberately
	// omits exemplars: its consumers here are line-oriented parsers.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// jsonDump is the WriteJSON shape: series keyed by "name{labels}".
type jsonDump struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms map[string]jsonHist `json:"histograms,omitempty"`
}

// WriteJSON dumps the registry as JSON, the machine-readable counterpart of
// the text scrape (vroom-load -metrics-out). Histograms carry count, sum,
// extremes, and headline quantiles instead of raw buckets.
func (r *Registry) WriteJSON(w io.Writer) error {
	dump := jsonDump{}
	if r != nil {
		for _, f := range r.snapshotFamilies() {
			for _, ss := range f.series {
				key := f.name + ss.key
				switch f.kind {
				case kindCounter:
					if dump.Counters == nil {
						dump.Counters = make(map[string]int64)
					}
					dump.Counters[key] = ss.s.ctr.Value()
				case kindGauge:
					if dump.Gauges == nil {
						dump.Gauges = make(map[string]int64)
					}
					dump.Gauges[key] = ss.s.gauge.Value()
				default:
					if dump.Histograms == nil {
						dump.Histograms = make(map[string]jsonHist)
					}
					hist := ss.s.hist
					snap := hist.snapshot(nil)
					dump.Histograms[key] = jsonHist{
						Count: snap.count, Sum: snap.sum, Min: snap.min, Max: snap.max,
						P50: hist.Quantile(50), P90: hist.Quantile(90), P99: hist.Quantile(99),
						Exemplar: hist.Exemplar(),
					}
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// Text renders the registry for a text report: one entry per series in name
// order, joined by sep. A counter or gauge reads "name=value"; a histogram
// reads its name padded to a column, then its headline quantiles and mean
// in the observed unit. Histograms that saw no sample are left out. The
// experiments render their per-figure distributions and event counts with
// it.
func (r *Registry) Text(sep string) string {
	if r == nil {
		return ""
	}
	var parts []string
	for _, f := range r.snapshotFamilies() {
		for _, ss := range f.series {
			name := f.name + ss.key
			switch f.kind {
			case kindCounter:
				parts = append(parts, fmt.Sprintf("%s=%d", name, ss.s.ctr.Value()))
			case kindGauge:
				parts = append(parts, fmt.Sprintf("%s=%d", name, ss.s.gauge.Value()))
			default:
				h := ss.s.hist
				if n := h.N(); n > 0 {
					parts = append(parts, fmt.Sprintf("%-28s p50=%.2f p90=%.2f p99=%.2f mean=%.2f n=%d",
						name, h.Quantile(50), h.Quantile(90), h.Quantile(99), h.Mean(), n))
				}
			}
		}
	}
	return strings.Join(parts, sep)
}
