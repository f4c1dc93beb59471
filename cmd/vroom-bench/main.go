// vroom-bench regenerates the paper's tables and figures from the
// simulated corpus.
//
// Usage:
//
//	vroom-bench [-fig all|fig01,...] [-scale quick|half|full] [-seed N] [-workers N]
//	vroom-bench -scale quick -json-out BENCH.json   # machine-readable artifact
//
// With -json-out the run also writes a schema-versioned JSON artifact
// (internal/benchfmt) carrying every figure's series percentiles plus
// execution telemetry — worker-pool utilization and training-cache hit
// rates — for cmd/vroom-benchdiff to gate CI on.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"vroom/internal/benchfmt"
	"vroom/internal/experiments"
	"vroom/internal/faults"
	"vroom/internal/runner"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure ids, or 'all' (see -list)")
		scale   = flag.String("scale", "half", "corpus scale: quick (3+3 sites), half (15+15), full (50+50, the paper's)")
		seed    = flag.Int64("seed", 2017, "corpus seed")
		regimeS = flag.String("faults", "none", "fault regime applied to every measured load: none, mild, or severe (seeded, reproducible)")
		workers = flag.Int("workers", 0, "concurrent site workers per figure (0 = GOMAXPROCS, 1 = serial); any count produces identical tables")
		list    = flag.Bool("list", false, "list figure ids and exit")
		jsonOut = flag.String("json-out", "", "write a machine-readable benchmark artifact (vroom-benchdiff input) to this path")
		gobench = flag.String("gobench-in", "", "embed `go test -bench` output from this file into the -json-out artifact (informational)")
	)
	flag.Parse()

	regime, err := faults.ParseRegime(*regimeS)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
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
	artifact := &benchfmt.File{
		Scale: *scale, Seed: *seed, Faults: regime.String(), Workers: o.Workers,
	}
	start := time.Now()
	for _, id := range ids {
		run, ok := experiments.Registry[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (use -list)\n", id)
			os.Exit(2)
		}
		// Per-figure caches and pool accounting so the artifact attributes
		// cache effectiveness and utilization to the figure that earned it.
		caches := runner.NewCaches()
		experiments.ResetPoolStats()
		t0 := time.Now()
		res, err := run(o.WithCaches(caches))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(t0)
		fmt.Println(res.Text)
		fmt.Printf("  [%s completed in %.1fs]\n\n", id, elapsed.Seconds())
		artifact.Figures = append(artifact.Figures, figureArtifact(res, elapsed, o.Workers, caches))
	}
	artifact.ElapsedMs = time.Since(start).Seconds() * 1000
	fmt.Printf("all done in %.1fs (scale=%s, seed=%d, workers=%d)\n", time.Since(start).Seconds(), *scale, *seed, o.Workers)

	if *jsonOut != "" {
		if *gobench != "" {
			b, err := os.ReadFile(*gobench)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			artifact.GoBench = benchfmt.ParseGoBench(string(b))
		}
		if err := benchfmt.Save(*jsonOut, artifact); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s, %d figures)\n", *jsonOut, benchfmt.Schema, len(artifact.Figures))
	}
}

// figureArtifact distills one figure result into its artifact entry.
func figureArtifact(res *experiments.Result, elapsed time.Duration, workers int, caches *runner.Caches) benchfmt.Figure {
	fig := benchfmt.Figure{
		ID: res.ID, Title: res.Title, Direction: benchfmt.DirectionFor(res.Title),
		ElapsedMs: elapsed.Seconds() * 1000, Notes: res.Notes,
	}
	for _, row := range res.Series {
		fig.Series = append(fig.Series, benchfmt.SeriesOf(row.Label, row.Dist))
	}
	ps := experiments.ReadPoolStats()
	fig.Pool = &benchfmt.PoolStats{
		Workers:     workers,
		BusyMs:      ps.Busy.Seconds() * 1000,
		CapacityMs:  ps.Capacity.Seconds() * 1000,
		Utilization: ps.Utilization(),
		Sites:       ps.Sites,
	}
	cs := caches.Stats()
	fig.Cache = &benchfmt.CacheStats{
		TrainingHits: cs.TrainingHits, TrainingMisses: cs.TrainingMisses,
		PolarisHits: cs.PolarisHits, PolarisMisses: cs.PolarisMisses,
		SnapshotHits: cs.SnapshotHits, SnapshotMisses: cs.SnapshotMisses,
	}
	return fig
}
