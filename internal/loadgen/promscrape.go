package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Scrape is a parsed Prometheus text exposition (version 0.0.4) — just
// enough of the format to let the load generator read the server's counters
// and histogram buckets back out of /metrics.
type Scrape struct {
	samples map[string][]promSample
	raw     string
}

// Raw returns the exposition text the scrape was parsed from, when known
// (ScrapeURL keeps it; ParseProm from an arbitrary reader does not). The
// scrape-series writer persists it so an audit can re-parse offline.
func (s *Scrape) Raw() string { return s.raw }

type promSample struct {
	labels map[string]string
	value  float64
}

// ScrapeURL fetches and parses a /metrics endpoint.
func ScrapeURL(url string) (*Scrape, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("loadgen: scrape %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	sc, err := ParseProm(strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	sc.raw = string(body)
	return sc, nil
}

// ParseProm parses a Prometheus text exposition. Comment and malformed
// lines are skipped; histogram buckets appear under "<family>_bucket" with
// their le label intact.
func ParseProm(r io.Reader) (*Scrape, error) {
	s := &Scrape{samples: make(map[string][]promSample)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, val, ok := parsePromLine(line)
		if !ok {
			continue
		}
		s.samples[name] = append(s.samples[name], promSample{labels: labels, value: val})
	}
	return s, sc.Err()
}

func parsePromLine(line string) (string, map[string]string, float64, bool) {
	var name, labelPart, valPart string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", nil, 0, false
		}
		name, labelPart, valPart = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return "", nil, 0, false
		}
		name, valPart = fields[0], fields[1]
	}
	val, err := strconv.ParseFloat(strings.Fields(valPart)[0], 64)
	if err != nil {
		return "", nil, 0, false
	}
	labels := make(map[string]string)
	for _, kv := range splitLabels(labelPart) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		v := strings.Trim(kv[eq+1:], `"`)
		labels[kv[:eq]] = v
	}
	return name, labels, val, true
}

// splitLabels splits `a="x",b="y,z"` on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// Has reports whether the scrape contains any sample of the family.
func (s *Scrape) Has(family string) bool { return len(s.samples[family]) > 0 }

// SumBy sums a family's samples grouped by one label's value. Samples
// missing the label are folded under "". This is how the audit tool turns
// a flat exposition back into per-origin breakdowns.
func (s *Scrape) SumBy(family, labelKey string) map[string]float64 {
	raw := s.samples[family]
	if len(raw) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, smp := range raw {
		out[smp.labels[labelKey]] += smp.value
	}
	return out
}

// Sum adds every sample of family whose labels include match (nil matches
// all).
func (s *Scrape) Sum(family string, match map[string]string) float64 {
	var total float64
	for _, smp := range s.samples[family] {
		ok := true
		for k, v := range match {
			if smp.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += smp.value
		}
	}
	return total
}

// HistogramQuantile estimates the p-th percentile (0 < p <= 100) of a
// scraped histogram family by linear interpolation over its cumulative
// le-buckets (all label sets of the family summed together). Returns 0 when
// the family is empty; the estimate is always finite and clamped into its
// bucket, so sparse (0- or 1-sample) histograms can never yield NaN or a
// value outside the observed bucket range.
func (s *Scrape) HistogramQuantile(family string, p float64) float64 {
	cum := make(map[float64]float64)
	var inf float64
	for _, smp := range s.samples[family+"_bucket"] {
		if math.IsNaN(smp.value) {
			continue
		}
		le := smp.labels["le"]
		if le == "+Inf" {
			inf += smp.value
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		cum[b] += smp.value
	}
	if inf <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	if p < 0 {
		p = 0
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	target := p / 100 * inf
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		// A scrape racing updates (or a malformed exposition) can yield a
		// non-monotone cumulative series; clamp it so the interpolation
		// denominator stays non-negative.
		if c < prevCum {
			c = prevCum
		}
		if c >= target {
			if c == prevCum {
				return b
			}
			v := prevBound + (b-prevBound)*(target-prevCum)/(c-prevCum)
			// Clamp into the bucket: with one sample (or degenerate
			// counts) the raw interpolation can land outside [prev, b].
			if v < prevBound || math.IsNaN(v) {
				v = prevBound
			}
			if v > b {
				v = b
			}
			return v
		}
		prevBound, prevCum = b, c
	}
	// Target sits in the +Inf bucket: the best point estimate is the last
	// finite bound.
	return prevBound
}
