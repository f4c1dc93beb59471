// Package metrics provides the distribution statistics the evaluation
// reports: CDFs, percentiles, significance tests, and formatted comparison
// tables, plus the constant-memory log-bucketed Histogram that
// internal/telemetry wraps.
//
// Scope note: this package is pure statistics — sample containers rendered
// into experiment reports (the Registry here is a per-report set of named
// histograms, not a live scrape surface). Runtime observability — counters,
// gauges, labeled families, Prometheus/JSON exposition, and the experiment
// Counters set — lives in internal/telemetry, which is the one runtime
// registry.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Dist is a sample distribution.
type Dist struct {
	values []float64
	sorted bool
}

// NewDist returns an empty distribution.
func NewDist() *Dist { return &Dist{} }

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.values = append(d.values, v)
	d.sorted = false
}

// AddDuration appends a duration sample in seconds.
func (d *Dist) AddDuration(v time.Duration) { d.Add(v.Seconds()) }

// N returns the sample count.
func (d *Dist) N() int { return len(d.values) }

func (d *Dist) sort() {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by linear
// interpolation. It returns NaN for an empty distribution.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.values) == 0 {
		return math.NaN()
	}
	d.sort()
	if p <= 0 {
		return d.values[0]
	}
	if p >= 100 {
		return d.values[len(d.values)-1]
	}
	rank := p / 100 * float64(len(d.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.values[lo]
	}
	frac := rank - float64(lo)
	return d.values[lo]*(1-frac) + d.values[hi]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Mean returns the arithmetic mean.
func (d *Dist) Mean() float64 {
	if len(d.values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range d.values {
		s += v
	}
	return s / float64(len(d.values))
}

// Min and Max return the extremes.
func (d *Dist) Min() float64 { return d.Percentile(0) }

// Max returns the largest sample.
func (d *Dist) Max() float64 { return d.Percentile(100) }

// Summary formats the quartiles.
func (d *Dist) Summary() string {
	return fmt.Sprintf("p25=%.2f p50=%.2f p75=%.2f p95=%.2f n=%d",
		d.Percentile(25), d.Median(), d.Percentile(75), d.Percentile(95), d.N())
}

// Table renders a fixed-width comparison table: one row per labelled
// distribution, quartile columns. Rows appear in the given order.
func Table(title string, rows []TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-26s %8s %8s %8s %8s %6s\n", "policy", "p25", "p50", "p75", "p95", "n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %8.2f %8.2f %8.2f %8.2f %6d\n",
			r.Label, r.Dist.Percentile(25), r.Dist.Median(), r.Dist.Percentile(75), r.Dist.Percentile(95), r.Dist.N())
	}
	return b.String()
}

// TableRow is one labelled distribution in a Table.
type TableRow struct {
	Label string
	Dist  *Dist
}

// ASCIICDF renders a rough CDF plot for terminal output: one line per
// labelled distribution sampled at deciles.
func ASCIICDF(title, unit string, rows []TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s at p10..p90)\n", title, unit)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s", r.Label)
		for p := 10.0; p <= 90; p += 10 {
			fmt.Fprintf(&b, " %6.2f", r.Dist.Percentile(p))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
