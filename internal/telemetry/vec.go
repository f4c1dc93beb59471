package telemetry

import (
	"sync"
	"sync/atomic"
)

// OverflowLabel is the label value every series past a Vec's cardinality cap
// folds into. A tenant storm can mint unbounded origin strings; the scrape
// surface must not grow with them, so the cap'th-plus-one distinct value and
// everything after it share one "other" series.
const OverflowLabel = "other"

// DefaultVecCap bounds distinct label values per Vec family when the caller
// passes cap <= 0. 128 origins is far beyond any test corpus while keeping
// the /metrics exposition a few tens of KB.
const DefaultVecCap = 128

// vec is the shared bounded-cardinality handle cache behind CounterVec,
// GaugeVec and HistogramVec: one label key, a hard cap of distinct values,
// and an overflow series receiving every value past the cap. Handles are
// resolved once per value and cached, so the steady-state With is one RLock
// map hit — no label rendering, no allocation — cheap enough for
// per-request hot paths.
type vec struct {
	name string
	key  string
	cap  int
	mk   func(val string) any // builds the handle for one label value

	mu      sync.RWMutex
	handles map[string]any // label value -> cached handle
	other   any            // the OverflowLabel handle, built on first fold
	full    atomic.Bool    // len(handles) reached cap; overflow path skips the write lock
}

func newVec(name, key string, capN int, mk func(string) any) *vec {
	if capN <= 0 {
		capN = DefaultVecCap
	}
	return &vec{name: name, key: key, cap: capN, mk: mk, handles: make(map[string]any)}
}

// with resolves the cached handle for val, folding past-cap values into the
// overflow handle.
func (v *vec) with(val string) any {
	v.mu.RLock()
	h, ok := v.handles[val]
	v.mu.RUnlock()
	if ok {
		return h
	}
	if val == OverflowLabel {
		// A tenant literally named "other" is indistinguishable from the
		// overflow bucket in the exposition, so it shares its series.
		return v.overflow()
	}
	if v.full.Load() {
		// Every slot is taken and slots never free, so an unknown value is
		// overflow without touching the write lock — the storm path.
		return v.overflow()
	}
	v.mu.Lock()
	if h, ok := v.handles[val]; ok {
		v.mu.Unlock()
		return h
	}
	if len(v.handles) >= v.cap {
		v.mu.Unlock()
		return v.overflow()
	}
	h = v.mk(val)
	v.handles[val] = h
	if len(v.handles) >= v.cap {
		v.full.Store(true)
	}
	v.mu.Unlock()
	return h
}

// admit reports whether val keeps its own identity (used by WithLabels,
// which cannot cache handles across its extra-label combinations).
func (v *vec) admit(val string) bool {
	if val == OverflowLabel {
		return false
	}
	v.mu.RLock()
	_, ok := v.handles[val]
	v.mu.RUnlock()
	if ok {
		return true
	}
	// Force the slot (or the fold) through the caching path so admit and
	// with agree on which values are tracked.
	v.with(val)
	v.mu.RLock()
	_, ok = v.handles[val]
	v.mu.RUnlock()
	return ok
}

func (v *vec) overflow() any {
	v.mu.RLock()
	h := v.other
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	if v.other == nil {
		v.other = v.mk(OverflowLabel)
	}
	h = v.other
	v.mu.Unlock()
	return h
}

// CounterVec is a bounded-cardinality family of counters sharing one metric
// name and one label key (typically "origin"). At most cap distinct label
// values get their own series; the rest share the OverflowLabel series, so
// a storm of unique tenants cannot explode the exposition. A nil
// *CounterVec resolves nil (no-op) handles.
type CounterVec struct {
	r *Registry
	v *vec
}

// CounterVec returns a bounded counter family on the registry. cap <= 0
// uses DefaultVecCap. A nil registry returns nil (all methods no-op).
func (r *Registry) CounterVec(name, labelKey string, cap int) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r: r, v: newVec(name, labelKey, cap, func(val string) any {
		return r.Counter(name, L(labelKey, val))
	})}
}

// With resolves the counter for one label value, folding past-cap values
// into the overflow series. Steady state is one read-locked map hit.
func (cv *CounterVec) With(val string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(val).(*Counter)
}

// WithLabels resolves the counter for one vec-keyed value plus constant
// extra labels (e.g. origin-bounded, kind-tagged). Cardinality is enforced
// on the vec key only; extra label values must come from small static
// sets. Unlike With, the handle is not cached across calls.
func (cv *CounterVec) WithLabels(val string, extra ...Label) *Counter {
	if cv == nil {
		return nil
	}
	if !cv.v.admit(val) {
		val = OverflowLabel
	}
	labels := make([]Label, 0, 1+len(extra))
	labels = append(labels, L(cv.v.key, val))
	labels = append(labels, extra...)
	return cv.r.Counter(cv.v.name, labels...)
}

// GaugeVec is the gauge analog of CounterVec.
type GaugeVec struct {
	r *Registry
	v *vec
}

// GaugeVec returns a bounded gauge family on the registry.
func (r *Registry) GaugeVec(name, labelKey string, cap int) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r: r, v: newVec(name, labelKey, cap, func(val string) any {
		return r.Gauge(name, L(labelKey, val))
	})}
}

// With resolves the gauge for one label value.
func (gv *GaugeVec) With(val string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.with(val).(*Gauge)
}

// WithLabels resolves the gauge for one vec-keyed value plus constant
// extra labels. The handle is not cached across calls.
func (gv *GaugeVec) WithLabels(val string, extra ...Label) *Gauge {
	if gv == nil {
		return nil
	}
	if !gv.v.admit(val) {
		val = OverflowLabel
	}
	labels := make([]Label, 0, 1+len(extra))
	labels = append(labels, L(gv.v.key, val))
	labels = append(labels, extra...)
	return gv.r.Gauge(gv.v.name, labels...)
}

// HistogramVec is the histogram analog of CounterVec.
type HistogramVec struct {
	r *Registry
	v *vec
}

// HistogramVec returns a bounded histogram family on the registry.
func (r *Registry) HistogramVec(name, labelKey string, cap int) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{r: r, v: newVec(name, labelKey, cap, func(val string) any {
		return r.Histogram(name, L(labelKey, val))
	})}
}

// With resolves the histogram for one label value.
func (hv *HistogramVec) With(val string) *Histogram {
	if hv == nil {
		return nil
	}
	return hv.v.with(val).(*Histogram)
}
