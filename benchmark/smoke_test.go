package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeSeconds keeps every phase to a fraction of a second: the test checks
// what is printed, not how steady it is.
const smokeSeconds = 0.6

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the program
// prints from, and to the contract's limits.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program, at most 8 allowed", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, at most %d allowed", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	for _, w := range workloads {
		seen[w.name] = true
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// printedMetrics collects the "  name value unit" lines of a report.
func printedMetrics(t *testing.T, out string) map[string]int {
	t.Helper()
	line := regexp.MustCompile(`^  ([A-Za-z0-9_.-]+) +-?[0-9.]+ ([A-Za-z0-9_/%.-]+)( |$)`)
	seen := map[string]int{}
	for _, l := range strings.Split(out, "\n") {
		if m := line.FindStringSubmatch(l); m != nil {
			seen[m[1]]++
		}
	}
	return seen
}

// TestEveryMetricPrintedOnce runs each workload for one tiny run in the
// driver's form and checks that the text names every metric once with a unit
// and that the JSON line carries exactly the metrics BENCHMARK.json lists.
func TestEveryMetricPrintedOnce(t *testing.T) {
	outPath = t.TempDir()
	m := readManifest(t)
	run := func(w *workload, layers bool, want []manifestMetric) {
		var buf bytes.Buffer
		if !runOne(&buf, w, 2017, smokeSeconds, layers) {
			t.Fatalf("%s: a check failed:\n%s", w.name, buf.String())
		}
		out := strings.TrimSpace(buf.String())
		last := out[strings.LastIndex(out, "\n")+1:]
		var res struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("%s: last line is not JSON: %v\n%s", w.name, err, last)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		printed := printedMetrics(t, out)
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: JSON carries %d metrics, BENCHMARK.json lists %d", w.name, len(res.Metrics), len(want))
		}
		for _, d := range want {
			got, ok := res.Metrics[d.Name]
			if !ok || got.Value == nil || got.Unit != d.Unit {
				t.Errorf("%s: JSON lacks %s in %s", w.name, d.Name, d.Unit)
			}
			if printed[d.Name] != 1 {
				t.Errorf("%s: %s printed %d times", w.name, d.Name, printed[d.Name])
			}
			if !layers && ok && got.Value != nil && *got.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
			}
		}
	}
	for _, w := range workloads {
		run(w, false, m.EndToEnd)
	}
	// The layer metrics are the same list on every workload; one workload
	// with a store that churns exercises the most of them.
	run(workloadByName("hint-churn"), true, m.PerLayer)
}

// TestSeedDrivesInputs checks that the seed changes the generated tenants
// and that one seed reproduces the exact metrics exactly.
func TestSeedDrivesInputs(t *testing.T) {
	outPath = t.TempDir()
	hosts := func(seed int64) string {
		var b strings.Builder
		for _, tn := range makeTenants(rand.New(rand.NewSource(seed)), 8) {
			b.WriteString(tn.root.Host + " " + tn.archive.Records[1].URL + "\n")
		}
		return b.String()
	}
	if hosts(1) != hosts(1) {
		t.Error("the same seed generated different tenants")
	}
	if hosts(1) == hosts(2) {
		t.Error("different seeds generated the same tenants")
	}
	for _, c := range []struct {
		workload string
		exact    []string
	}{
		{"hint-docs", []string{"hint_bytes_per_doc"}},
		{"sim-corpus", []string{"sim_plt_vroom_p50_ms", "sim_plt_h2_p50_ms", "wire_bytes_per_op"}},
	} {
		w := workloadByName(c.workload)
		a := runWorkload(w, 7, smokeSeconds, false, true)
		b := runWorkload(w, 7, smokeSeconds, false, true)
		if !a.correct() || !b.correct() {
			t.Fatalf("%s: checks failed: %v %v", c.workload, a.errs, b.errs)
		}
		for _, name := range c.exact {
			if a.e2e[name].v == 0 || a.e2e[name].v != b.e2e[name].v {
				t.Errorf("%s: %s read %v then %v on the same seed", c.workload, name, a.e2e[name].v, b.e2e[name].v)
			}
		}
	}
}
