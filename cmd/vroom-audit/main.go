// vroom-audit audits a vroom-server's /metrics, offline or live, and gates
// the result: a per-origin hint-efficacy report (precision, recall, wasted
// push bytes, push lead time, hint-table staleness per tenant) plus the
// serving figures (shed share, hint-lookup latency, degradation modes,
// cold-start recovery) and the server's runtime vitals. The report is the
// scrape part of the vroom-audit/v1 storm report vroom-load -json-out
// writes, which adds the storm, trace and flight blocks. The terminal table
// shows the 20 origins that emitted the most hints; -json-out keeps every
// origin.
//
// Usage, offline (the usual CI shape — vroom-load -scrape-out wrote the
// series):
//
//	vroom-audit -scrapes storm-scrapes.json -json-out audit.json
//
// or live, against a running vroom-server:
//
//	vroom-audit -scrape http://127.0.0.1:9090/metrics
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
	"vroom/internal/loadgen"
)

func main() {
	var (
		scrapesIn  = flag.String("scrapes", "", "scrape-series file written by vroom-load -scrape-out")
		scrapeURL  = flag.String("scrape", "", "live server /metrics URL to scrape once instead")
		jsonOut    = flag.String("json-out", "", "write the vroom-audit/v1 report JSON here")
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
	if !*quiet {
		rep.Render(os.Stdout, 20)
	}
	if *jsonOut != "" {
		if err := rep.Save(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Printf("audit: wrote %s\n", *jsonOut)
	}

	if *requireAcc && len(rep.Origins) == 0 {
		fatal(fmt.Errorf("scrape carries no per-origin hint-quality series (no hints served yet?)"))
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vroom-audit:", err)
	os.Exit(1)
}
