package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestVecCardinalityHammer storms a bounded counter family with 10k
// distinct origins from many goroutines (run under -race in CI) and proves
// the cardinality contract: at most cap tracked series plus the one
// overflow bucket, every observation accounted for, and the exposition
// bounded regardless of tenant count.
func TestVecCardinalityHammer(t *testing.T) {
	const (
		origins    = 10000
		cap        = 64
		workers    = 8
		perOrigin  = 3
		sizeBudget = 64 << 10 // 64 KiB exposition cap for the whole registry
	)
	reg := NewRegistry()
	cv := reg.CounterVec("vroom_test_origin_requests_total", "origin", cap)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < origins; i += workers {
				origin := fmt.Sprintf("tenant-%04d.example", i)
				for k := 0; k < perOrigin; k++ {
					cv.With(origin).Inc()
				}
			}
		}(w)
	}
	wg.Wait()

	// Every observation must land somewhere: tracked series + other ==
	// origins*perOrigin.
	var total, other int64
	var series int
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "vroom_test_origin_requests_total{") {
			continue
		}
		series++
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable exposition line %q: %v", line, err)
		}
		total += v
		if strings.Contains(line, `origin="`+OverflowLabel+`"`) {
			other = v
		}
	}
	if series != cap+1 {
		t.Errorf("exposed %d series, want cap+overflow = %d", series, cap+1)
	}
	if want := int64(origins * perOrigin); total != want {
		t.Errorf("summed exposition = %d, want %d (observations lost)", total, want)
	}
	if want := int64((origins - cap) * perOrigin); other != want {
		t.Errorf("overflow bucket = %d, want %d", other, want)
	}
	if buf.Len() > sizeBudget {
		t.Errorf("exposition is %d bytes for 10k origins, budget %d", buf.Len(), sizeBudget)
	}
}

// TestVecKindsAndNil covers gauge/histogram vecs, the literal "other"
// tenant folding, and the nil no-op contract.
func TestVecKindsAndNil(t *testing.T) {
	reg := NewRegistry()
	gv := reg.GaugeVec("vroom_test_active", "origin", 2)
	gv.With("a").Set(3)
	gv.With("b").Set(4)
	gv.With("c").Set(5) // past cap -> other
	gv.With(OverflowLabel).Set(9)
	if got := reg.Gauge("vroom_test_active", L("origin", OverflowLabel)).Value(); got != 9 {
		t.Errorf("overflow gauge = %d, want 9 (last write wins)", got)
	}
	if tracked := len(gv.v.handles); tracked != 2 {
		t.Errorf("gauge vec tracked = %d, want 2", tracked)
	}

	hv := reg.HistogramVec("vroom_test_lat_ms", "origin", 1)
	hv.With("a").Observe(5)
	hv.With("b").Observe(50)
	if n := reg.Histogram("vroom_test_lat_ms", L("origin", OverflowLabel)).N(); n != 1 {
		t.Errorf("overflow histogram N = %d, want 1", n)
	}

	var nilReg *Registry
	ncv := nilReg.CounterVec("x", "origin", 4)
	if c := ncv.With("a"); c != nil {
		t.Errorf("nil vec resolved a live counter %v", c)
	}
	ncv.With("a").Inc() // must not panic
	nilReg.GaugeVec("x", "o", 1).With("a").Set(1)
	nilReg.HistogramVec("x", "o", 1).With("a").Observe(1)
}
