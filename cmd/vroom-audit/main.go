// vroom-audit distills a load run's observability exhaust into a
// per-origin hint-efficacy report: precision, recall, wasted push bytes,
// push lead time, and hint-table staleness per tenant, plus the server's
// runtime vitals, cross-checked against the storm's merged trace and
// flight-recorder dumps.
//
// Usage, offline (the usual CI shape — vroom-load wrote the inputs):
//
//	vroom-audit -scrapes storm-scrapes.json -trace storm.json \
//	    -flight-dir flight/ -json-out audit.json
//
// or live, against a running vroom-server:
//
//	vroom-audit -scrape http://127.0.0.1:9090/metrics
//
// With -bench the efficacy block is also folded into an existing
// vroom-bench/v1 artifact's Server stats (in place, or to -bench-out),
// the one vroom-load -json-out writes.
//
// Exit status: 0 on success; 1 when no usable scrape was found, when an
// input failed to parse, or when a -min-precision / -min-recall gate
// failed.
package main

import (
	"flag"
	"fmt"
	"os"

	"vroom/internal/audit"
	"vroom/internal/benchfmt"
	"vroom/internal/loadgen"
)

func main() {
	var (
		scrapesIn  = flag.String("scrapes", "", "scrape-series file written by vroom-load -scrape-out")
		scrapeURL  = flag.String("scrape", "", "live server /metrics URL to scrape once instead")
		traceIn    = flag.String("trace", "", "merged Perfetto storm trace (vroom-load -trace-out)")
		flightDir  = flag.String("flight-dir", "", "flight-recorder dump directory (vroom-load -flight-dir)")
		jsonOut    = flag.String("json-out", "", "write the vroom-audit/v1 report JSON here")
		benchIn    = flag.String("bench", "", "vroom-bench/v1 artifact whose Server block gets the efficacy fields folded in")
		benchOut   = flag.String("bench-out", "", "write the updated artifact here (default: overwrite -bench)")
		top        = flag.Int("top", 20, "per-origin rows to print (0 = all)")
		minPrec    = flag.Float64("min-precision", 0, "fail unless aggregate hint precision reaches this")
		minRecall  = flag.Float64("min-recall", 0, "fail unless aggregate hint recall reaches this")
		quiet      = flag.Bool("q", false, "suppress the terminal table")
		requireAcc = flag.Bool("require-accounting", false, "fail unless the scrape carries per-origin hint-quality series")
	)
	flag.Parse()

	points, err := collect(*scrapesIn, *scrapeURL)
	if err != nil {
		fatal(err)
	}
	rep := audit.Summarize(points)
	if loadgen.Last(points) == nil {
		fatal(fmt.Errorf("no usable scrape among %d point(s) (%d gapped)", rep.Scrapes, rep.ScrapeGaps))
	}
	if *traceIn != "" {
		if err := rep.AddTrace(*traceIn); err != nil {
			fatal(err)
		}
	}
	if *flightDir != "" {
		if err := rep.AddFlightDir(*flightDir); err != nil {
			fatal(err)
		}
	}

	if !*quiet {
		rep.Render(os.Stdout, *top)
	}
	if *jsonOut != "" {
		if err := rep.Save(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("audit: wrote %s\n", *jsonOut)
	}
	if *benchIn != "" {
		if err := foldBench(rep, *benchIn, *benchOut); err != nil {
			fatal(err)
		}
	}

	if *requireAcc && len(rep.Origins) == 0 {
		fatal(fmt.Errorf("scrape carries no per-origin hint-quality series (server running without accounting?)"))
	}
	if *minPrec > 0 && rep.Totals.Precision < *minPrec {
		fatal(fmt.Errorf("hint precision %.3f below gate %.3f", rep.Totals.Precision, *minPrec))
	}
	if *minRecall > 0 && rep.Totals.Recall < *minRecall {
		fatal(fmt.Errorf("hint recall %.3f below gate %.3f", rep.Totals.Recall, *minRecall))
	}
}

// collect loads the scrape series from a file, or takes one live scrape.
func collect(path, url string) ([]loadgen.ScrapePoint, error) {
	switch {
	case path != "" && url != "":
		return nil, fmt.Errorf("give either -scrapes or -scrape, not both")
	case path != "":
		return loadgen.LoadSeries(path)
	case url != "":
		ss := loadgen.StartScrapes(url, 0)
		return ss.Stop(), nil // Stop takes the one (final) scrape
	default:
		return nil, fmt.Errorf("one of -scrapes or -scrape is required")
	}
}

// foldBench stamps the report into every Server block of the artifact.
func foldBench(rep *audit.Report, in, out string) error {
	f, err := benchfmt.Load(in)
	if err != nil {
		return err
	}
	n := 0
	for i := range f.Figures {
		if f.Figures[i].Server != nil {
			rep.FoldInto(f.Figures[i].Server)
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("%s: no figure carries a Server block to fold into", in)
	}
	if out == "" {
		out = in
	}
	if err := benchfmt.Save(out, f); err != nil {
		return err
	}
	fmt.Printf("audit: folded efficacy into %d Server block(s) of %s\n", n, out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vroom-audit:", err)
	os.Exit(1)
}
