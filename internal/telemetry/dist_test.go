package telemetry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentiles(t *testing.T) {
	d := NewDist()
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50.5, 100: 100, 25: 25.75, 75: 75.25}
	for p, want := range cases {
		if got := d.Percentile(p); math.Abs(got-want) > 0.01 {
			t.Errorf("P%.0f = %v, want %v", p, got, want)
		}
	}
	if d.Median() != d.Percentile(50) {
		t.Error("median != P50")
	}
}

func TestEmptyDist(t *testing.T) {
	d := NewDist()
	if !math.IsNaN(d.Percentile(50)) || !math.IsNaN(d.Mean()) {
		t.Error("empty distribution should produce NaN")
	}
}

func TestMeanMinMax(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{4, 1, 9, 2} {
		d.Add(v)
	}
	if d.Mean() != 4 {
		t.Errorf("mean %v", d.Mean())
	}
	if min, max := d.Percentile(0), d.Percentile(100); min != 1 || max != 9 {
		t.Errorf("min/max %v/%v", min, max)
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		d := NewDist()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Add(v)
		}
		if d.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	d := NewDist()
	d.Add(1)
	d.Add(2)
	out := Table("demo", []TableRow{{Label: "row", Dist: d}})
	if len(out) == 0 || out[0] != 'd' {
		t.Fatalf("table output %q", out)
	}
	cdf := ASCIICDF("demo", "s", []TableRow{{Label: "row", Dist: d}})
	if len(cdf) == 0 {
		t.Fatal("empty ascii cdf")
	}
}

func TestMannWhitneyDistinguishes(t *testing.T) {
	a, b := NewDist(), NewDist()
	for i := 0; i < 60; i++ {
		a.Add(5 + float64(i%10)*0.1) // around 5.45
		b.Add(7 + float64(i%10)*0.1) // around 7.45
	}
	_, p := MannWhitneyU(a, b)
	if p > 1e-6 {
		t.Fatalf("clearly different samples: p=%v", p)
	}
	if d := CliffsDelta(a, b); d > -0.99 {
		t.Fatalf("effect size %v, want ≈ -1 (a below b)", d)
	}
}

func TestMannWhitneySameDistribution(t *testing.T) {
	a, b := NewDist(), NewDist()
	for i := 0; i < 80; i++ {
		v := float64(i % 13)
		a.Add(v)
		b.Add(v)
	}
	_, p := MannWhitneyU(a, b)
	if p < 0.5 {
		t.Fatalf("identical samples flagged different: p=%v", p)
	}
	if d := CliffsDelta(a, b); math.Abs(d) > 0.01 {
		t.Fatalf("effect size %v for identical samples", d)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, p := MannWhitneyU(NewDist(), NewDist()); !math.IsNaN(p) {
		t.Fatal("empty samples should give NaN")
	}
}
