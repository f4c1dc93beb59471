// Benchmarks regenerating every table and figure in the paper's evaluation
// (one benchmark per figure; see DESIGN.md §4 for the mapping), plus
// ablation benchmarks for the design choices DESIGN.md §5 calls out and
// micro-benchmarks of the hot substrates.
//
// Figure benchmarks run the experiment at a reduced corpus scale per
// iteration and report the headline median as a benchmark metric, so
// `go test -bench` both exercises the full pipeline and prints the
// reproduced numbers. cmd/vroom-bench runs the same experiments at the
// paper's full scale.
package vroom_test

import (
	"fmt"
	"testing"
	"time"

	"vroom"
	"vroom/internal/experiments"
	"vroom/internal/h2"
	"vroom/internal/obs"
	"vroom/internal/runner"
	"vroom/internal/webpage"
)

func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.NewsSites, o.SportsSites, o.Top100Sites = 4, 4, 8
	return o
}

// benchFigure runs one experiment per iteration and reports its first
// series' median.
func benchFigure(b *testing.B, id string, metricUnit string) {
	b.Helper()
	o := benchOptions()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Registry[id](o)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil && len(last.Series) > 0 {
		for _, row := range last.Series {
			b.ReportMetric(row.Dist.Median(), sanitizeMetric(row.Label)+"-"+metricUnit)
		}
	}
}

func sanitizeMetric(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		switch {
		case r == ' ' || r == ',' || r == '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFig01_StatusQuoPLT(b *testing.B)     { benchFigure(b, "fig01", "s") }
func BenchmarkFig02_LowerBound(b *testing.B)       { benchFigure(b, "fig02", "s") }
func BenchmarkFig03_H2Adoption(b *testing.B)       { benchFigure(b, "fig03", "s") }
func BenchmarkFig04_CriticalPathWait(b *testing.B) { benchFigure(b, "fig04", "frac") }
func BenchmarkFig07_Persistence(b *testing.B)      { benchFigure(b, "fig07", "frac") }
func BenchmarkFig09_DeviceIoU(b *testing.B)        { benchFigure(b, "fig09", "iou") }
func BenchmarkFig11_ReceiptTimes(b *testing.B)     { benchFigure(b, "fig11", "s") }
func BenchmarkFig13_MainResult(b *testing.B)       { benchFigure(b, "fig13", "s") }
func BenchmarkFig14_Polaris(b *testing.B)          { benchFigure(b, "fig14", "s") }
func BenchmarkFig16_Discovery(b *testing.B)        { benchFigure(b, "fig16", "frac") }
func BenchmarkFig17_PrevLoadDeps(b *testing.B)     { benchFigure(b, "fig17", "s") }
func BenchmarkFig18_PushOnly(b *testing.B)         { benchFigure(b, "fig18", "s") }
func BenchmarkFig19_Scheduling(b *testing.B)       { benchFigure(b, "fig19", "s") }
func BenchmarkFig20_WarmCache(b *testing.B)        { benchFigure(b, "fig20", "s") }
func BenchmarkFig21_ResolverAccuracy(b *testing.B) { benchFigure(b, "fig21", "frac") }

// BenchmarkExt01_TemplateHints measures the §7 scalability extension:
// per-page-type template hints for pages the server never crawled.
func BenchmarkExt01_TemplateHints(b *testing.B) { benchFigure(b, "ext01", "frac") }

// BenchmarkOnlineParseOverhead measures the server-side on-the-fly HTML
// analysis the paper reports at ~100 ms median for large pages (§4.1.2) —
// here as pure parser throughput over generated root documents.
func BenchmarkOnlineParseOverhead(b *testing.B) {
	site := vroom.NewSite("parsebench", vroom.CategoryNews, 2)
	sn := site.Snapshot(time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC), vroom.Profile{}, 1)
	root := sn.RootResource()
	b.SetBytes(int64(len(root.Body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs := webpage.ExtractRefs(root)
		if len(refs) == 0 {
			b.Fatal("no refs")
		}
	}
}

// Ablation: Vroom with and without request-order response serialization
// (§5.1). The metric is median PLT over a small corpus.
func BenchmarkAblation_ResponseOrdering(b *testing.B) {
	for _, pol := range []runner.Policy{runner.Vroom, runner.VroomNoSerialize} {
		pol := pol
		b.Run(string(pol), func(b *testing.B) {
			benchPolicy(b, pol)
		})
	}
}

// Ablation: excluding iframe-derived dependencies from hints (§4.2) versus
// hinting them (stale personalized content, wasted fetches).
func BenchmarkAblation_IframeExclusion(b *testing.B) {
	for _, pol := range []runner.Policy{runner.Vroom, runner.VroomIframeDeps} {
		pol := pol
		b.Run(string(pol), func(b *testing.B) {
			benchPolicy(b, pol)
		})
	}
}

func benchPolicy(b *testing.B, pol runner.Policy) {
	b.Helper()
	sites := make([]*vroom.Site, 4)
	for i := range sites {
		sites[i] = vroom.NewSite(fmt.Sprintf("ablation%d", i), vroom.CategoryNews, int64(300+i))
	}
	var plt time.Duration
	var waste int64
	for i := 0; i < b.N; i++ {
		plt, waste = 0, 0
		for _, s := range sites {
			// A real user (non-zero UserID) so personalized iframe
			// content differs from the server crawler's view.
			res, err := runner.Run(s, pol, runner.Options{Nonce: 1,
				Profile: webpage.Profile{Device: webpage.PhoneSmall, UserID: 7}})
			if err != nil {
				b.Fatal(err)
			}
			plt += res.PLT
			waste += res.WastedBytes
		}
	}
	b.ReportMetric(plt.Seconds()/float64(len(sites)), "mean-plt-s")
	b.ReportMetric(float64(waste)/1024/float64(len(sites)), "wasted-KB")
}

// Micro-benchmarks of the substrates.

func BenchmarkHPACKEncodeDecode(b *testing.B) {
	fields := []h2.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":path", Value: "/img/photo12-ab34cd56ef.jpg"},
		{Name: ":scheme", Value: "https"},
		{Name: ":authority", Value: "img.dailynews00.com"},
		{Name: "link", Value: "<https://static.dailynews00.com/js/app0.js>; rel=preload"},
		{Name: "x-unimportant", Value: "https://img.dailynews00.com/img/photo1.jpg"},
	}
	enc := h2.NewHPACKEncoder()
	dec := h2.NewHPACKDecoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := enc.Encode(nil, fields)
		if _, err := dec.Decode(block); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotGeneration(b *testing.B) {
	site := vroom.NewSite("genbench", vroom.CategoryNews, 3)
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn := site.Snapshot(at, vroom.Profile{}, uint64(i))
		if sn.RootResource() == nil {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkSimulatedVroomLoad(b *testing.B) {
	site := vroom.NewSite("loadbench", vroom.CategoryNews, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vroom.LoadPage(site, vroom.PolicyVroom, vroom.LoadOptions{Nonce: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracerOverhead measures the cost the observability layer adds to
// a full simulated load: "disabled" is the nil-tracer fast path every normal
// experiment runs on (must stay within ~2% of an untraced load), "recording"
// pays for event capture into an in-memory recording.
func BenchmarkTracerOverhead(b *testing.B) {
	site := vroom.NewSite("tracebench", vroom.CategoryNews, 6)
	opts := func(i int) runner.Options {
		return runner.Options{Nonce: uint64(i + 1),
			Profile: webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}}
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runner.Run(site, runner.Vroom, opts(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recording", func(b *testing.B) {
		var events int
		for i := 0; i < b.N; i++ {
			o := opts(i)
			o.Trace = &obs.Recording{}
			if _, err := runner.Run(site, runner.Vroom, o); err != nil {
				b.Fatal(err)
			}
			events = o.Trace.Len()
		}
		b.ReportMetric(float64(events), "events")
	})
}

func BenchmarkResolverTraining(b *testing.B) {
	site := vroom.NewSite("trainbench", vroom.CategoryNews, 5)
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := vroom.NewResolver(vroom.DefaultResolverConfig())
		r.Train(site, at, vroom.DevicePhoneSmall)
	}
}
