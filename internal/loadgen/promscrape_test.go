package loadgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vroom/internal/telemetry"
)

const exampleScrape = `# HELP vroom_server_requests_total Requests served, by protocol.
# TYPE vroom_server_requests_total counter
vroom_server_requests_total{proto="h1"} 10
vroom_server_requests_total{proto="h2"} 90
vroom_server_shed_total 7
vroom_store_hint_lookup_ms_bucket{le="1"} 50
vroom_store_hint_lookup_ms_bucket{le="2.5"} 80
vroom_store_hint_lookup_ms_bucket{le="5"} 99
vroom_store_hint_lookup_ms_bucket{le="+Inf"} 100
vroom_store_hint_lookup_ms_sum 190
vroom_store_hint_lookup_ms_count 100
`

func TestParsePromSumAndFilter(t *testing.T) {
	sc, err := ParseProm(strings.NewReader(exampleScrape))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Sum("vroom_server_requests_total", nil); got != 100 {
		t.Errorf("total requests = %v, want 100", got)
	}
	if got := sc.Sum("vroom_server_requests_total", map[string]string{"proto": "h2"}); got != 90 {
		t.Errorf("h2 requests = %v, want 90", got)
	}
	if got := sc.Sum("vroom_server_shed_total", nil); got != 7 {
		t.Errorf("shed = %v, want 7", got)
	}
	if !sc.Has("vroom_server_shed_total") || sc.Has("nope") {
		t.Error("Has misreported families")
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	sc, err := ParseProm(strings.NewReader(exampleScrape))
	if err != nil {
		t.Fatal(err)
	}
	// p50: target 50 of 100 lands exactly on the le=1 bucket boundary.
	if got := sc.HistogramQuantile("vroom_store_hint_lookup_ms", 50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// p80: target 80 lands on le=2.5.
	if got := sc.HistogramQuantile("vroom_store_hint_lookup_ms", 80); got != 2.5 {
		t.Errorf("p80 = %v, want 2.5", got)
	}
	// p90: target 90 interpolates between 2.5 (cum 80) and 5 (cum 99):
	// 2.5 + 2.5*(90-80)/(99-80).
	want := 2.5 + 2.5*10/19
	if got := sc.HistogramQuantile("vroom_store_hint_lookup_ms", 90); math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 = %v, want %v", got, want)
	}
	if got := sc.HistogramQuantile("missing_family", 50); got != 0 {
		t.Errorf("missing family quantile = %v, want 0", got)
	}
}

// TestHistogramQuantileSparse pins the sparse-histogram contract: 0- and
// 1-sample expositions (and degenerate ones) must yield finite, clamped
// estimates, never NaN.
func TestHistogramQuantileSparse(t *testing.T) {
	quantile := func(t *testing.T, exposition string, fam string, p float64) float64 {
		t.Helper()
		sc, err := ParseProm(strings.NewReader(exposition))
		if err != nil {
			t.Fatal(err)
		}
		got := sc.HistogramQuantile(fam, p)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("quantile(%s, p%v) = %v, want finite", fam, p, got)
		}
		return got
	}

	// Empty: every bucket zero (a registered histogram before any Observe).
	empty := `m_bucket{le="1"} 0
m_bucket{le="5"} 0
m_bucket{le="+Inf"} 0
m_count 0
`
	for _, p := range []float64{0, 50, 99, 100} {
		if got := quantile(t, empty, "m", p); got != 0 {
			t.Errorf("empty histogram p%v = %v, want 0", p, got)
		}
	}

	// One sample in one finite bucket: every percentile must land inside
	// that bucket.
	one := `m_bucket{le="1"} 0
m_bucket{le="5"} 1
m_bucket{le="+Inf"} 1
m_count 1
`
	for _, p := range []float64{1, 50, 99, 100} {
		got := quantile(t, one, "m", p)
		if got < 1 || got > 5 {
			t.Errorf("1-sample p%v = %v, want within [1, 5]", p, got)
		}
	}

	// One sample past every finite bound: best estimate is the last bound.
	tail := `m_bucket{le="1"} 0
m_bucket{le="5"} 0
m_bucket{le="+Inf"} 1
m_count 1
`
	if got := quantile(t, tail, "m", 50); got != 5 {
		t.Errorf("+Inf-only sample p50 = %v, want 5", got)
	}

	// Out-of-range p is clamped, not propagated into the interpolation.
	if got := quantile(t, one, "m", 250); got < 1 || got > 5 {
		t.Errorf("p250 = %v, want clamped within [1, 5]", got)
	}
	if got := quantile(t, one, "m", -10); got < 0 || got > 5 {
		t.Errorf("p-10 = %v, want clamped within [0, 5]", got)
	}

	// A non-monotone cumulative series (scrape racing updates) must not
	// produce a negative interpolation denominator.
	skew := `m_bucket{le="1"} 3
m_bucket{le="5"} 2
m_bucket{le="+Inf"} 4
m_count 4
`
	if got := quantile(t, skew, "m", 90); got < 0 || got > 5 {
		t.Errorf("non-monotone p90 = %v, want within [0, 5]", got)
	}

	// NaN bucket values are skipped rather than poisoning the estimate.
	nan := `m_bucket{le="1"} NaN
m_bucket{le="5"} 1
m_bucket{le="+Inf"} 1
m_count 1
`
	if got := quantile(t, nan, "m", 50); got < 0 || got > 5 {
		t.Errorf("NaN-bucket p50 = %v, want within [0, 5]", got)
	}
}

// TestScrapeRoundTrip feeds a real telemetry registry exposition through the
// parser, pinning the scraper to the format the server actually emits.
func TestScrapeRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("vroom_server_shed_total").Add(3)
	reg.Counter("vroom_server_degraded_total", telemetry.L("mode", "stale-hints")).Add(5)
	reg.Counter("vroom_server_degraded_total", telemetry.L("mode", "shed-push")).Add(2)
	h := reg.Histogram("vroom_store_hint_lookup_ms")
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%10) + 0.5)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Sum("vroom_server_shed_total", nil); got != 3 {
		t.Errorf("shed = %v, want 3", got)
	}
	if got := sc.Sum("vroom_server_degraded_total", nil); got != 7 {
		t.Errorf("degraded all modes = %v, want 7", got)
	}
	if got := sc.Sum("vroom_server_degraded_total", map[string]string{"mode": "stale-hints"}); got != 5 {
		t.Errorf("degraded stale-hints = %v, want 5", got)
	}
	p99 := sc.HistogramQuantile("vroom_store_hint_lookup_ms", 99)
	if p99 <= 0 || p99 > 25 {
		t.Errorf("p99 = %v, want within (0, 25]", p99)
	}
}

// TestHistogramQuantileMatchesSource cross-checks the two bucket estimators
// on seeded samples: a telemetry.Histogram written by WritePrometheus and
// parsed back here must report, at p50, p90 and p99, a quantile inside the
// DefaultBuckets interval that holds the histogram's own Quantile. The
// exposition counts a sample under the first bound at or above its log
// bucket's upper edge, so when Quantile sits within one log bucket (a factor
// of 2^(1/8)) below a bound the scrape may land one interval up.
func TestHistogramQuantileMatchesSource(t *testing.T) {
	logBucket := math.Pow(2, 1.0/8)
	// interval returns the exposition bucket [lo, hi] holding v; past the
	// last finite bound both ends are that bound, HistogramQuantile's answer
	// for the +Inf bucket.
	interval := func(v float64) (lo, hi float64) {
		for _, b := range telemetry.DefaultBuckets {
			if v <= b {
				return lo, b
			}
			lo = b
		}
		return lo, lo
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := telemetry.NewRegistry()
		h := reg.Histogram("m_ms")
		for i := 0; i < 5000; i++ {
			h.Observe(math.Pow(10, 5*rng.Float64())) // log-uniform 1ms..100s
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{50, 90, 99} {
			own := h.Quantile(p)
			lo, _ := interval(own)
			_, hi := interval(own * logBucket)
			if got := sc.HistogramQuantile("m_ms", p); got < lo || got > hi {
				t.Errorf("seed %d p%v: scraped %.4g outside [%v, %v], the bucket of Histogram.Quantile %.4g",
					seed, p, got, lo, hi, own)
			}
		}
	}
}
