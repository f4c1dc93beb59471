package telemetry

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramEmpty pins the empty contract: a histogram that saw no
// sample, nil or not, reads 0 everywhere, never NaN (encoding/json rejects
// NaN, and the JSON dump quotes these values).
func TestHistogramEmpty(t *testing.T) {
	for _, h := range []*Histogram{{}, nil} {
		if h.N() != 0 {
			t.Fatalf("N = %d", h.N())
		}
		if q, m := h.Quantile(50), h.Mean(); q != 0 || m != 0 {
			t.Errorf("empty histogram quantile/mean = %v/%v, want 0/0", q, m)
		}
	}
}

// TestHistogramQuantiles cross-checks the two raw-sample estimators on
// seeded samples: the log-bucketed Histogram.Quantile must agree with the
// exact Dist.Percentile within one log bucket (a factor of 2^(1/8)) across
// several orders of magnitude and distribution shapes, and the extremes
// must be exact.
func TestHistogramQuantiles(t *testing.T) {
	shapes := map[string]func(*rand.Rand) float64{
		// Log-uniform over 0.1ms .. 10s — the range load metrics live in.
		"log-uniform": func(rng *rand.Rand) float64 { return math.Pow(10, -1+5*rng.Float64()) },
		// Exponential with a 400ms mean: a PLT-like right tail.
		"exponential": func(rng *rand.Rand) float64 { return 400 * rng.ExpFloat64() },
		// Normal around 5s, clipped at 1ms: a tight PLT-like body.
		"normal": func(rng *rand.Rand) float64 { return math.Max(1, 5000+800*rng.NormFloat64()) },
	}
	for name, draw := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			h := &Histogram{}
			exact := NewDist()
			for i := 0; i < 20_000; i++ {
				v := draw(rng)
				h.Observe(v)
				exact.Add(v)
			}
			for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9} {
				got, want := h.Quantile(p), exact.Percentile(p)
				if ratio := math.Max(got, want) / math.Min(got, want); ratio > histGrowth {
					t.Errorf("%s seed %d p%v: histogram %.4g vs exact %.4g (ratio %.4f > %.4f)",
						name, seed, p, got, want, ratio, histGrowth)
				}
			}
			if got, want := h.Quantile(0), exact.Percentile(0); got != want {
				t.Errorf("%s seed %d min: %g != %g", name, seed, got, want)
			}
			if got, want := h.Quantile(100), exact.Percentile(100); got != want {
				t.Errorf("%s seed %d max: %g != %g", name, seed, got, want)
			}
		}
	}
}

func TestHistogramZeroAndTiny(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(0)
	h.ObserveDuration(500 * time.Millisecond)
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
	if q := h.Quantile(99); math.Abs(q-500) > 500*0.1 {
		t.Errorf("p99 = %g, want ≈500 (ms)", q)
	}
	if q := h.Quantile(10); q < 0 || q > histMin {
		t.Errorf("p10 = %g, want within the sub-resolution bucket [0, %g]", q, histMin)
	}
}

// TestQuantileTinyHistograms pins the bucket-boundary contract for the
// smallest sample counts: an empty histogram reads 0, a one-sample
// histogram's every quantile is that sample (never a bucket bound), and a
// two-sample histogram's quantiles stay inside the observed range with the
// extremes exact.
func TestQuantileTinyHistograms(t *testing.T) {
	ps := []float64{0.1, 1, 25, 50, 75, 90, 99, 99.9}

	t.Run("0-sample", func(t *testing.T) {
		h := &Histogram{}
		for _, p := range ps {
			if got := h.Quantile(p); got != 0 {
				t.Errorf("empty histogram: p%v = %v, want 0", p, got)
			}
		}
	})

	t.Run("1-sample", func(t *testing.T) {
		samples := []float64{0, 0.004, histMin, 0.7, 1, 42.5, 1e4}
		// Exact bucket boundaries, where a drifting log-index could land the
		// sample one bucket off and an unclamped walk would answer with the
		// bucket's upper bound instead of the sample.
		for k := 0; k <= 160; k += 8 {
			samples = append(samples, histMin*math.Pow(histGrowth, float64(k)))
		}
		for _, v := range samples {
			h := &Histogram{}
			h.Observe(v)
			for _, p := range ps {
				if got := h.Quantile(p); got != v {
					t.Errorf("single sample %v: p%v = %v, want the sample", v, p, got)
				}
			}
		}
	})

	t.Run("2-sample", func(t *testing.T) {
		cases := []struct{ a, b float64 }{
			{1, 1},                          // identical
			{1, 1.05},                       // same bucket
			{1, 100},                        // far-apart buckets
			{0, 5},                          // zero bucket + regular bucket
			{histMin, histMin * histGrowth}, // adjacent boundary values
		}
		for _, c := range cases {
			h := &Histogram{}
			h.Observe(c.a)
			h.Observe(c.b)
			lo, hi := math.Min(c.a, c.b), math.Max(c.a, c.b)
			if got := h.Quantile(0); got != lo {
				t.Errorf("{%v,%v}: p0 = %v, want min %v", c.a, c.b, got, lo)
			}
			if got := h.Quantile(100); got != hi {
				t.Errorf("{%v,%v}: p100 = %v, want max %v", c.a, c.b, got, hi)
			}
			prev := math.Inf(-1)
			for _, p := range ps {
				got := h.Quantile(p)
				if got < lo || got > hi {
					t.Errorf("{%v,%v}: p%v = %v outside [%v,%v]", c.a, c.b, p, got, lo, hi)
				}
				if got < prev {
					t.Errorf("{%v,%v}: p%v = %v < previous quantile %v (not monotone)", c.a, c.b, p, got, prev)
				}
				prev = got
			}
		}
	})
}

// TestSnapshotCumulative checks the exporter snapshot: consistent count/sum
// and non-decreasing cumulative buckets that cover every sample at the last
// bound.
func TestSnapshotCumulative(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{0.5, 2, 2, 40, 900, 0.001} {
		h.Observe(v)
	}
	bounds := []float64{1, 5, 100, 1000}
	s := h.snapshot(bounds)
	if s.count != 6 {
		t.Fatalf("count = %d, want 6", s.count)
	}
	if want := 0.5 + 2 + 2 + 40 + 900 + 0.001; math.Abs(s.sum-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", s.sum, want)
	}
	prev := uint64(0)
	for i, c := range s.cumulative {
		if c < prev {
			t.Errorf("bucket le=%v count %d below previous %d", bounds[i], c, prev)
		}
		prev = c
	}
	if s.cumulative[len(bounds)-1] != s.count {
		t.Errorf("last bucket (le=%v) holds %d of %d samples", bounds[len(bounds)-1],
			s.cumulative[len(bounds)-1], s.count)
	}
}

// TestRegistry records report histograms from several goroutines, as the
// experiments do when they fan loads out, and checks the text rendering:
// one line per non-empty histogram, sorted by name, with its quantiles.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Histogram("a/ttfb").ObserveDuration(time.Duration(i) * time.Millisecond)
				r.Histogram("b/hold").Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	r.Histogram("c/empty")
	if n := r.Histogram("a/ttfb").N(); n != 4000 {
		t.Errorf("a/ttfb N = %d, want 4000", n)
	}
	lines := strings.Split(r.Text("\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "a/ttfb ") || !strings.HasPrefix(lines[1], "b/hold ") {
		t.Fatalf("Text lines = %q, want a/ttfb then b/hold (empty c/empty left out)", lines)
	}
	for _, want := range []string{"p50=", "p90=", "p99=", "mean=", "n=4000"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("rendered line missing %q: %s", want, lines[0])
		}
	}
}
