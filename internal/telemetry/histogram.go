package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// histMin is the lower bound of the first histogram bucket, in the caller's
// unit (milliseconds for the duration histograms recorded here): 10µs, far
// below anything the simulation or the wire stack resolves.
const histMin = 0.01

// histGrowth is the per-bucket growth factor: 2^(1/8), ≈9% relative
// resolution — tight enough that p50/p90/p99 readings are not artifacts of
// bucketing, small enough that a histogram spanning 10µs..100s needs only
// ~190 buckets.
var histGrowth = math.Pow(2, 1.0/8)

// Histogram is a log-bucketed sample distribution with quantile estimation.
// Unlike Dist it never stores individual samples, so it can take millions of
// observations at constant memory. Values are in the unit the caller
// observes; ObserveDuration records milliseconds. It is safe for concurrent
// use, and a nil *Histogram no-ops and reads as empty.
type Histogram struct {
	mu      sync.Mutex
	buckets []uint64 // bucket i covers [histMin*g^i, histMin*g^(i+1))
	zero    uint64   // samples below histMin (including zero and negatives)
	count   uint64
	sum     float64
	min     float64
	max     float64

	// ex is the latest exemplar: one (value, trace context) pair kept per
	// series so a scrape can name a concrete recent trace behind the
	// distribution. Exposed in the JSON dump only — the Prometheus text
	// endpoint stays plain so simple line parsers keep working.
	ex atomic.Pointer[Exemplar]
}

// Exemplar links one observed sample to the trace it came from.
type Exemplar struct {
	Value float64
	// Trace is the caller-supplied trace context string (an
	// obs.TraceContext wire form on the wire stack).
	Trace string
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v < histMin {
		h.zero++
		return
	}
	idx := int(math.Log(v/histMin) / math.Log(histGrowth))
	if idx < 0 {
		idx = 0
	}
	for len(h.buckets) <= idx {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[idx]++
}

// ObserveDuration records a duration sample in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// ObserveExemplar records one sample and, when trace is non-empty, stamps
// it as the series' latest exemplar. With an empty trace it is exactly
// Observe, so call sites can pass their possibly-empty flow ID
// unconditionally.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace != "" {
		h.ex.Store(&Exemplar{Value: v, Trace: trace})
	}
}

// Exemplar returns the latest exemplar, or nil when none was recorded.
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	return h.ex.Load()
}

// N returns the number of samples observed.
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean of the observed samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the p-th percentile (0 < p <= 100) by locating the
// bucket holding the target rank and interpolating linearly inside it. The
// exact observed min and max anchor the extremes. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case h.count == 0:
		return 0
	case p <= 0:
		return h.min
	case p >= 100 || h.count == 1:
		// One sample: every quantile is that sample. Deriving it through the
		// bucket walk risks returning a bucket bound instead when the sample
		// sits exactly on a bucket boundary and the log-index rounds up.
		return h.max
	}
	target := p / 100 * float64(h.count)
	cum := float64(h.zero)
	if target <= cum {
		// Inside the sub-resolution bucket: interpolate min..histMin.
		lo, hi := h.min, math.Min(histMin, h.max)
		return lo + (hi-lo)*target/cum
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if target <= next {
			// Clamp both bounds into the observed range: on an exact bucket
			// boundary the computed bound can drift past the observed extreme
			// (float log/pow round-off), and an unclamped bound would report
			// a value no sample ever took.
			lo := histMin * math.Pow(histGrowth, float64(i))
			hi := lo * histGrowth
			lo = math.Min(math.Max(lo, h.min), h.max)
			hi = math.Max(math.Min(hi, h.max), lo)
			return lo + (hi-lo)*(target-cum)/float64(n)
		}
		cum = next
	}
	return h.max
}

// histSnapshot is an exporter-facing copy of a histogram's state, taken
// under one lock acquisition so exposition sees a consistent
// count/sum/bucket set.
type histSnapshot struct {
	count    uint64
	sum      float64
	min, max float64
	// cumulative holds, per requested bound, how many samples fell at or
	// below it. Membership is decided by bucket upper edge, so boundary
	// error stays within one log bucket's ~9% relative width.
	cumulative []uint64
}

// snapshot exports the histogram against the given ascending upper bounds
// (the exposition buckets; samples above the last bound are only in the
// implicit +Inf bucket, i.e. count).
func (h *Histogram) snapshot(bounds []float64) histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSnapshot{count: h.count, sum: h.sum, min: h.min, max: h.max,
		cumulative: make([]uint64, len(bounds))}
	for bi, b := range bounds {
		if b < 0 {
			continue
		}
		c := h.zero
		for i, n := range h.buckets {
			if histMin*math.Pow(histGrowth, float64(i+1)) > b {
				break
			}
			c += n
		}
		s.cumulative[bi] = c
	}
	return s
}
