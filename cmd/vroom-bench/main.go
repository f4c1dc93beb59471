// vroom-bench regenerates the paper's tables and figures from the
// simulated corpus.
//
// Usage:
//
//	vroom-bench [-fig all|fig01,...] [-scale quick|half|full] [-seed N]
//	    [-faults none|mild|severe] [-workers N]
//
// The -fig usage text (vroom-bench -h) lists every figure ID.
//
// TestAllFiguresRunQuick (internal/experiments) pins every figure at
// -scale quick -seed 2017 exactly, against testdata/quick.golden.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"vroom/internal/experiments"
	"vroom/internal/faults"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure ids, or 'all': "+strings.Join(experiments.IDs(), ","))
		scale   = flag.String("scale", "half", "corpus scale: quick (3+3 sites), half (15+15), full (50+50, the paper's)")
		seed    = flag.Int64("seed", 2017, "corpus seed")
		regimeS = flag.String("faults", "none", "fault regime applied to every measured load: none, mild, or severe (seeded, reproducible)")
		workers = flag.Int("workers", 0, "concurrent site workers per figure (0 = GOMAXPROCS, 1 = serial); any count produces identical tables")
	)
	flag.Parse()

	regime, err := faults.ParseRegime(*regimeS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	o := experiments.DefaultOptions()
	o.Seed = *seed
	o.FaultRegime = regime
	o.Workers = *workers
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch *scale {
	case "quick":
		o.NewsSites, o.SportsSites, o.Top100Sites = 3, 3, 6
		o.LoadsPerSite = 1
	case "half":
		o.NewsSites, o.SportsSites, o.Top100Sites = 15, 15, 30
		o.LoadsPerSite = 1
	case "full":
		// The paper's scale: top 50 News + top 50 Sports, Alexa top 100.
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	ids := experiments.IDs()
	if *figs != "all" {
		ids = strings.Split(*figs, ",")
	}
	start := time.Now()
	for _, id := range ids {
		run, ok := experiments.Registry[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (known: %s)\n", id, strings.Join(experiments.IDs(), ","))
			os.Exit(2)
		}
		t0 := time.Now()
		res, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(res.Text)
		fmt.Printf("  [%s completed in %.1fs]\n\n", id, time.Since(t0).Seconds())
	}
	fmt.Printf("all done in %.1fs (scale=%s, seed=%d, workers=%d)\n", time.Since(start).Seconds(), *scale, *seed, o.Workers)
}
