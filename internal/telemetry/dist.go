package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Dist is a raw-sample distribution: the statistics an experiment report or
// a load artifact quotes (percentiles, CDFs, significance tests) over every
// individual sample. It is the one place raw samples are ranked; the
// constant-memory alternative is Histogram. Not safe for concurrent use.
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
// interpolation between the closest ranks. It returns NaN for an empty
// distribution.
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

// Mean returns the arithmetic mean (NaN when empty).
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

// TableRow is one labelled distribution in a Table.
type TableRow struct {
	Label string
	Dist  *Dist
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

// MannWhitneyU runs the two-sided Mann-Whitney U test (Wilcoxon rank-sum)
// on two sample distributions and returns the U statistic and approximate
// p-value (normal approximation with tie correction, appropriate for the
// corpus sizes used here). It answers whether one policy's PLT
// distribution is stochastically different from another's.
func MannWhitneyU(a, b *Dist) (u, p float64) {
	n1, n2 := len(a.values), len(b.values)
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a.values {
		all = append(all, obs{v, 0})
	}
	for _, v := range b.values {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, tracking ties for the variance correction.
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	u2 := float64(n1)*float64(n2) - u1
	u = math.Min(u1, u2)

	// Normal approximation.
	nn1, nn2 := float64(n1), float64(n2)
	mean := nn1 * nn2 / 2
	n := nn1 + nn2
	variance := nn1 * nn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		if u1 == u2 {
			return u, 1
		}
		return u, 0
	}
	z := (u - mean) / math.Sqrt(variance)
	// Two-sided tail of the standard normal: 2*Φ(-|z|) = erfc(|z|/√2).
	p = math.Erfc(math.Abs(z) / math.Sqrt2)
	if p > 1 {
		p = 1
	}
	return u, p
}

// CliffsDelta measures effect size between two samples: the probability a
// value from a exceeds one from b, minus the reverse. Range [-1, 1]; |d| >
// 0.474 is conventionally a large effect.
func CliffsDelta(a, b *Dist) float64 {
	if len(a.values) == 0 || len(b.values) == 0 {
		return math.NaN()
	}
	bs := append([]float64(nil), b.values...)
	sort.Float64s(bs)
	var gt, lt int
	for _, va := range a.values {
		// Count b-values below and above va.
		lo := sort.SearchFloat64s(bs, va)
		hi := lo
		for hi < len(bs) && bs[hi] == va {
			hi++
		}
		gt += lo
		lt += len(bs) - hi
	}
	n := float64(len(a.values) * len(b.values))
	return (float64(gt) - float64(lt)) / n
}
