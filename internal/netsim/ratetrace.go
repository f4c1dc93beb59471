package netsim

import (
	"math/rand"
	"time"
)

// RateTrace is a Mahimahi-style time-varying link capacity: a sequence of
// piecewise-constant rates at a fixed interval, cycled when the load
// outlasts the trace. Real cellular links vary on sub-second timescales;
// replaying a trace makes the simulated LTE link do the same.
type RateTrace struct {
	// Interval is each sample's duration.
	Interval time.Duration
	// Rates are capacities in bytes/second, one per interval.
	Rates []float64
}

// RateAt returns the capacity at the given offset from the trace start.
func (t *RateTrace) RateAt(since time.Duration) float64 {
	if t == nil || len(t.Rates) == 0 || t.Interval <= 0 {
		return 0
	}
	idx := int(since/t.Interval) % len(t.Rates)
	if idx < 0 {
		idx = 0
	}
	return t.Rates[idx]
}

// NextBoundary returns the offset of the next rate change after since.
func (t *RateTrace) NextBoundary(since time.Duration) time.Duration {
	n := since/t.Interval + 1
	return n * t.Interval
}

// SyntheticLTETrace synthesizes a cellular capacity trace as a bounded
// random walk between floor and ceil bytes/second, the shape of the
// Verizon LTE traces shipped with Mahimahi. The caller supplies the random
// source so traces and fault plans can share one reproducible seed.
func SyntheticLTETrace(r *rand.Rand, samples int, interval time.Duration, floor, ceil float64) *RateTrace {
	if samples <= 0 {
		samples = 600
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	rates := make([]float64, samples)
	cur := (floor + ceil) / 2
	span := ceil - floor
	for i := range rates {
		cur += r.NormFloat64() * span * 0.08
		if cur < floor {
			cur = floor
		}
		if cur > ceil {
			cur = ceil
		}
		rates[i] = cur
	}
	return &RateTrace{Interval: interval, Rates: rates}
}

// DefaultLTETrace matches the steady-state defaults: a 9 Mbit/s-average
// link wobbling between roughly 4 and 14 Mbit/s.
func DefaultLTETrace(seed int64) *RateTrace {
	return SyntheticLTETrace(rand.New(rand.NewSource(seed)), 600, 100*time.Millisecond, 4e6/8, 14e6/8)
}
