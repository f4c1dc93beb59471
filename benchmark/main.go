// Command benchmark measures the repository end to end and layer by layer.
//
//	go run ./benchmark -seed 2017
//
// runs the five workloads in turn, prints every end-to-end and per-layer
// metric by name with its unit, checks that the program's outputs are
// correct and exits non-zero when a check fails. -aa runs the suite twice
// and compares the two runs against each metric's bound.
//
//	go run ./benchmark --workload page-h2 --seed 7 --seconds 20 --trace 0
//
// is the form BENCHMARK.json names: one workload, and as the last line of
// standard output one JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// outPath is where trace files and durable-store state are written.
var outPath = "benchmark/out"

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and end with the result as one JSON line")
		seed    = flag.Int64("seed", 2017, "seed for tenant names, load nonce and user, and request order")
		seconds = flag.Float64("seconds", 20, "measuring time per workload run")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		aa      = flag.Bool("aa", false, "run the suite twice and fail if the runs differ by more than a metric's bound")
	)
	flag.StringVar(&outPath, "out", outPath, "directory for trace files and durable-store state")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		if !runOne(os.Stdout, w, *seed, *seconds, *trace == 1) {
			os.Exit(1)
		}
		return
	}
	first, ok := runSuite(os.Stdout, *seed, *seconds)
	if *aa {
		second, ok2 := runSuite(os.Stdout, *seed, *seconds)
		ok = compareRuns(os.Stdout, first, second) && ok && ok2
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne is the driver's form: one workload, one JSON result line. It
// reports whether every check passed.
func runOne(out io.Writer, w *workload, seed int64, seconds float64, layers bool) bool {
	rep := runWorkload(w, seed, seconds, !layers, layers)
	if layers && rep.correct() {
		probes := runProbes(time.Duration(seconds * (1 - layersClosedShare) * float64(time.Second)))
		addReconciliation(w, rep, probes)
		for name, v := range probes {
			rep.layers[name] = v
		}
		// The end-to-end metrics the driver's contract does not admit ride
		// along as layer metrics.
		for _, m := range suiteOnly {
			rep.layers["e2e."+m.name] = rep.e2e[m.name].v
		}
		// A layer this workload's path does not cross reads 0.
		for _, m := range perLayer {
			if _, found := rep.layers[m.name]; !found {
				rep.layers[m.name] = 0
			}
		}
	}
	printReport(out, rep, !layers, layers)

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: rep.correct(), Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	if layers {
		for _, m := range perLayer {
			res.Metrics[m.name] = jsonMetric{rep.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = jsonMetric{rep.e2e[m.name].v, m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("encode result: %v", err)
	}
	fmt.Fprintln(out, string(line))
	return rep.correct()
}

// addReconciliation adds the reconciliation of a workload's traced counts
// against the probes to its report.
func addReconciliation(w *workload, rep *report, probes map[string]float64) {
	unexplained, lines := reconcile(w, rep, probes)
	rep.layers["reconcile.unexplained_share"] = unexplained
	rep.notes = append(rep.notes, lines...)
}

// runSuite runs every workload with all phases, the probes once, and prints
// everything. It reports whether every check passed.
func runSuite(out io.Writer, seed int64, seconds float64) (map[string]*report, bool) {
	reports := make(map[string]*report)
	ok := true
	fmt.Fprintf(out, "probes (per-layer, minimum of %d repeats)\n", probeRepeats)
	probes := runProbes(time.Duration(seconds * float64(time.Second)))
	for _, m := range perLayer {
		if v, found := probes[m.name]; found {
			fmt.Fprintf(out, "  %-40s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	for _, w := range workloads {
		rep := runWorkload(w, seed, seconds, true, true)
		addReconciliation(w, rep, probes)
		printReport(out, rep, true, true)
		reports[w.name] = rep
		ok = ok && rep.correct()
	}
	return reports, ok
}

// suiteMetrics are all thirteen end-to-end metrics: the driver-gated ones,
// then the rest.
func suiteMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), suiteOnly...)
}

// applies reports whether a suite-only metric is defined on a workload.
func applies(metric string, w *workload) bool {
	switch metric {
	case "hint_bytes_per_doc":
		return w.rate > 0
	case "sim_plt_vroom_p50_ms", "sim_plt_h2_p50_ms":
		return w.rate == 0
	}
	return true
}

// printReport prints one workload's metrics by name with their units.
func printReport(out io.Writer, rep *report, e2e, layers bool) {
	w := workloadByName(rep.workload)
	fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	if e2e {
		for _, m := range suiteMetrics() {
			v, found := rep.e2e[m.name]
			if !found || !applies(m.name, w) {
				continue
			}
			line := fmt.Sprintf("  %-40s %14.4f %s", m.name, v.v, m.unit)
			if v.spread {
				line += fmt.Sprintf("  (segments q1 %.4f q3 %.4f)", v.q1, v.q3)
			}
			if rep.latencyInvalid && (m.name == "op_p50_ms" || m.name == "op_p99_ms") {
				line += "  INVALID"
			}
			fmt.Fprintln(out, line)
		}
	}
	if layers {
		for _, m := range perLayer {
			if v, found := rep.layers[m.name]; found {
				fmt.Fprintf(out, "  %-40s %14.4f %s\n", m.name, v, m.unit)
			}
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(out, "  # "+n)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(out, "  FAILED CHECK: "+e)
	}
	fmt.Fprintf(out, "  checks: correct=%v attempted=%d failed=%d\n", rep.correct(), rep.attempted, rep.failed)
}

// compareRuns prints, per end-to-end metric and workload, how far the second
// suite run is from the first next to the metric's bound, and reports
// whether every difference is within it. Only a change for the worse counts.
func compareRuns(out io.Writer, a, b map[string]*report) bool {
	ok := true
	fmt.Fprintln(out, "A/A comparison (second run against first; worse by more than the bound fails)")
	for _, w := range workloads {
		for _, m := range suiteMetrics() {
			if !applies(m.name, w) {
				continue
			}
			x, y := a[w.name].e2e[m.name].v, b[w.name].e2e[m.name].v
			var worse float64 // positive when the second run is worse
			switch {
			case m.name == "failed_share":
				worse = y - x // absolute
			case x == 0:
				worse = math.Abs(y)
			case m.better == "higher":
				worse = (x - y) / x
			default:
				worse = (y - x) / x
			}
			verdict := "ok"
			bound := m.bound
			if m.name == "setup_s" && math.Abs(y-x) <= 0.2 {
				bound = math.Inf(1) // 25% or 0.2 s, whichever is larger
			}
			if worse > bound || (m.bound == 0 && x != y) {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(out, "  %-12s %-22s %14.4f -> %14.4f  %+7.2f%%  bound %5.2f%%  %s\n",
				w.name, m.name, x, y, 100*worse, 100*m.bound, verdict)
		}
	}
	return ok
}
