// Package telemetry holds the repository's statistics: a scrape-safe
// registry of counters, gauges, and log-bucketed histograms, and the
// raw-sample Dist that experiment reports and load artifacts quote.
//
// The registry serves both the live wire stack (Prometheus text exposition
// and a JSON dump) and the simulated experiments (a per-figure registry
// rendered into the report by Text). Handles are cheap on the hot path: a
// handle is resolved once (one locked map lookup) and then updated with a
// single atomic operation or a short critical section, so instrumented code
// can hold handles across a load. Every handle type is nil-safe — methods
// on a nil *Counter/*Gauge/*Histogram no-op — mirroring the nil-*obs.Tracer
// contract, so call sites resolve handles through a possibly-nil *Registry
// and use them unconditionally.
//
// Scrapes (WritePrometheus, WriteJSON, Text) take a snapshot of the series
// list under a read lock and read each series atomically, so a scrape racing
// thousands of updates sees a consistent, if instantaneous, view and never
// blocks writers for longer than a map read.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension on a series (e.g. origin, phase, kind).
type Label struct {
	Key string
	Val string
}

// L is shorthand for building a Label.
func L(key, val string) Label { return Label{Key: key, Val: val} }

// Counter is a monotonically increasing series. A nil *Counter no-ops.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters only
// rise).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can rise and fall (active connections, drain
// state). A nil *Gauge no-ops.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc and Dec move the gauge by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultBuckets are the exposition upper bounds (milliseconds) used for
// every histogram family: roughly logarithmic from 1ms to a minute, wide
// enough for dial/header/body phases on broken links.
var DefaultBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// kind tags a series family for TYPE exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labelled time series.
type series struct {
	name   string
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups the series of one metric name.
type family struct {
	name   string
	kind   kind
	help   string
	series map[string]*series // keyed by rendered label set
}

// Registry is a named set of series. The zero value is not usable; call
// NewRegistry. A nil *Registry resolves nil handles, so instrumented code
// works unconditionally.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Describe attaches HELP text to a metric name (before or after first use).
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, series: make(map[string]*series)}
		r.families[name] = f
	}
	f.help = help
	r.mu.Unlock()
}

// lookup returns (creating) the series for name+labels with the given kind.
// A name reused with a different kind keeps its first kind and the call
// returns a fresh unregistered series, so exposition stays well-formed.
func (r *Registry) lookup(k kind, name string, labels []Label) *series {
	key := labelKey(labels)

	r.mu.RLock()
	f, ok := r.families[name]
	if ok {
		s, ok2 := f.series[key]
		kindOK := f.kind == k || len(f.series) == 0
		r.mu.RUnlock()
		if ok2 {
			return s
		}
		if !kindOK {
			return newSeries(k, name, labels)
		}
	} else {
		r.mu.RUnlock()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok = r.families[name]
	if !ok {
		f = &family{name: name, kind: k, series: make(map[string]*series)}
		r.families[name] = f
	}
	if len(f.series) == 0 {
		f.kind = k
	}
	if f.kind != k {
		return newSeries(k, name, labels)
	}
	s, ok := f.series[key]
	if !ok {
		s = newSeries(k, name, labels)
		f.series[key] = s
	}
	return s
}

func newSeries(k kind, name string, labels []Label) *series {
	s := &series{name: name, labels: append([]Label(nil), labels...)}
	sort.SliceStable(s.labels, func(i, j int) bool { return s.labels[i].Key < s.labels[j].Key })
	switch k {
	case kindCounter:
		s.ctr = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	default:
		s.hist = &Histogram{}
	}
	return s
}

// Counter returns (creating) the named counter series. Nil registry returns
// a nil (no-op) handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(kindCounter, name, labels).ctr
}

// Gauge returns (creating) the named gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(kindGauge, name, labels).gauge
}

// Histogram returns (creating) the named histogram series.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(kindHistogram, name, labels).hist
}

// labelKey renders a sorted, escaped label set: {k1="v1",k2="v2"} or "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Val))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// snapshotFamilies returns a sorted copy of the family list with sorted
// series, taken under the read lock; values are read atomically afterwards.
func (r *Registry) snapshotFamilies() []*familySnap {
	r.mu.RLock()
	fams := make([]*familySnap, 0, len(r.families))
	for _, f := range r.families {
		fs := &familySnap{name: f.name, kind: f.kind, help: f.help}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fs.series = append(fs.series, seriesSnap{key: k, s: f.series[k]})
		}
		fams = append(fams, fs)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

type familySnap struct {
	name   string
	kind   kind
	help   string
	series []seriesSnap
}

type seriesSnap struct {
	key string
	s   *series
}
