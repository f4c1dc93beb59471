package hints_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vroom/internal/core"
	"vroom/internal/hints"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// formatReference is Format as it was before values were concatenated and
// slices presized: the byte-for-byte reference the wire depends on.
func formatReference(hs []hints.Hint) map[string][]string {
	out := make(map[string][]string, 3)
	for _, h := range hs {
		switch h.Priority {
		case hints.High:
			out[hints.HeaderLink] = append(out[hints.HeaderLink], fmt.Sprintf("<%s>; rel=preload", h.URL))
		case hints.Semi:
			out[hints.HeaderSemi] = append(out[hints.HeaderSemi], h.URL.String())
		default:
			out[hints.HeaderLow] = append(out[hints.HeaderLow], h.URL.String())
		}
	}
	if len(out) > 0 {
		out[hints.HeaderExpose] = []string{hints.ExposeValue}
	}
	return out
}

// TestFormatParseGeneratedSites runs a trained resolver's real hint lists
// (≈130 hints, query strings, third-party hosts) through Format and Parse:
// the header set is byte-identical to the reference rendering and parses
// back to exactly the hints that went in.
func TestFormatParseGeneratedSites(t *testing.T) {
	at := time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)
	cats := []webpage.Category{webpage.News, webpage.Sports, webpage.Top100}
	for seed := int64(0); seed < 24; seed++ {
		site := webpage.NewSite(fmt.Sprintf("fmt%02d", seed), cats[seed%3], 2017+seed)
		r := core.NewResolver(core.DefaultResolverConfig())
		r.Train(site, at, webpage.PhoneSmall)
		sn := site.Snapshot(at, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1 + seed}, uint64(seed)+1)
		hs := r.HintsFor(site.RootURL(), sn.RootResource().Body, webpage.PhoneSmall)
		if len(hs) == 0 {
			t.Fatalf("seed %d: no hints", seed)
		}
		got := hints.Format(hs)
		if want := formatReference(hs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Format differs from the reference rendering:\n got %v\nwant %v", seed, got, want)
		}
		if back := hints.Parse(got); !reflect.DeepEqual(back, hs) {
			t.Fatalf("seed %d: Parse(Format(hs)) != hs: %d hints in, %d out", seed, len(hs), len(back))
		}
	}
}

// TestFormatEdges pins the cases the generated sites do not reach: no
// hints, one class only, and a priority outside the vocabulary (rendered
// low, as before).
func TestFormatEdges(t *testing.T) {
	u := func(raw string) hints.Hint { return hints.Hint{URL: urlutil.MustParse(raw)} }
	odd := u("https://a.com/odd?x=1")
	odd.Priority = hints.Priority(7)
	semi := u("https://a.com/s.js")
	semi.Priority = hints.Semi
	for _, hs := range [][]hints.Hint{nil, {}, {semi}, {odd}, {u("https://a.com/h.css?v=2"), semi, odd}} {
		if got, want := hints.Format(hs), formatReference(hs); !reflect.DeepEqual(got, want) {
			t.Errorf("Format(%v) = %v, want %v", hs, got, want)
		}
	}
}
