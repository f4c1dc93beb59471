package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"vroom/internal/telemetry"
)

// goldenPath pins every figure at QuickOptions: each series' n, mean, p25,
// p50, p75 and p95, and the figure's notes. A figure that moves fails its
// subtest, which prints the regenerated section; pasting it over the old
// one re-blesses the figure, so the move shows up in review.
const goldenPath = "testdata/quick.golden"

// TestAllFiguresRunQuick runs every figure at quick scale and compares it
// exactly against goldenPath.
func TestAllFiguresRunQuick(t *testing.T) {
	golden := readGolden(t, goldenPath)
	for id := range golden {
		if Registry[id] == nil {
			t.Errorf("%s: section %q names no figure: delete it", goldenPath, id)
		}
	}
	o := QuickOptions()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Registry[id](o)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Errorf("result ID %q != %q", res.ID, id)
			}
			if len(res.Series) == 0 {
				t.Error("no series produced")
			}
			for _, row := range res.Series {
				if row.Dist == nil || row.Dist.N() == 0 {
					t.Errorf("series %q empty", row.Label)
				}
			}
			if !strings.Contains(res.Text, res.ID) {
				t.Errorf("text rendering missing figure id:\n%s", res.Text)
			}
			t.Logf("\n%s", res.Text)
			if got, want := goldenSection(res), golden[id]; got != want {
				t.Errorf("%s moved from %s:\n%s\nregenerated section, to replace the old one in the same change:\n\n%s",
					id, goldenPath, goldenDiff(want, got), got)
			}
		})
	}
}

// goldenSection renders a figure the way goldenPath records it: a "== id"
// line, one line per series in plot order, then the notes verbatim.
func goldenSection(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", res.ID)
	for _, row := range res.Series {
		fmt.Fprintf(&b, "series %q %s\n", row.Label, seriesValues(row.Dist))
	}
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "note %s\n", n)
	}
	return b.String()
}

func seriesValues(d *telemetry.Dist) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("n=%d mean=%s p25=%s p50=%s p75=%s p95=%s",
		d.N(), g(d.Mean()), g(d.Percentile(25)), g(d.Median()), g(d.Percentile(75)), g(d.Percentile(95)))
}

// readGolden splits the golden file into its sections by figure id. Blank
// lines and '#' comments between sections are skipped, and so is leading
// indentation, so a section copied from the test's output pastes as is.
func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	id := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimLeft(line, " \t")
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			id = strings.TrimPrefix(line, "== ")
			if _, dup := out[id]; dup {
				t.Fatalf("%s: section %q appears twice", path, id)
			}
			out[id] = line + "\n"
		case id == "":
			t.Fatalf("%s: %q comes before the first section", path, line)
		default:
			out[id] += line + "\n"
		}
	}
	return out
}

// goldenDiff names what moved between two sections: each series whose
// values changed, with old and new values, each series added or removed,
// and the notes when they differ.
func goldenDiff(want, got string) string {
	if want == "" {
		return "  no section in the golden file"
	}
	split := func(section string) (series map[string]string, order []string, notes []string) {
		series = map[string]string{}
		for _, line := range strings.Split(strings.TrimSuffix(section, "\n"), "\n")[1:] {
			rest, _ := strings.CutPrefix(line, "series ")
			label, err := strconv.QuotedPrefix(rest)
			if err != nil {
				notes = append(notes, line)
				continue
			}
			series[label] = strings.TrimSpace(rest[len(label):])
			order = append(order, label)
		}
		return series, order, notes
	}
	oldSeries, oldOrder, oldNotes := split(want)
	newSeries, newOrder, newNotes := split(got)
	var b strings.Builder
	for _, label := range newOrder {
		switch old, ok := oldSeries[label]; {
		case !ok:
			fmt.Fprintf(&b, "  series %s added: %s\n", label, newSeries[label])
		case old != newSeries[label]:
			fmt.Fprintf(&b, "  series %s\n    old %s\n    new %s\n", label, old, newSeries[label])
		}
	}
	for _, label := range oldOrder {
		if _, ok := newSeries[label]; !ok {
			fmt.Fprintf(&b, "  series %s removed: %s\n", label, oldSeries[label])
		}
	}
	if strings.Join(oldNotes, "\n") != strings.Join(newNotes, "\n") {
		fmt.Fprintf(&b, "  notes\n    old %q\n    new %q\n", oldNotes, newNotes)
	}
	if b.Len() == 0 {
		b.WriteString("  series order changed\n")
	}
	return b.String()
}

func TestShapeOrderings(t *testing.T) {
	// The qualitative relationships the paper's figures establish must
	// hold at moderate scale.
	o := QuickOptions()
	o.NewsSites, o.SportsSites = 8, 8
	o.Top100Sites = 10

	f13, err := Fig13(o)
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, row := range f13.Series {
		med[row.Label] = row.Dist.Median()
	}
	bound, vroom, h2, h1 := med["lower bound PLT"], med["vroom PLT"], med["http/2 baseline PLT"], med["http/1.1 PLT"]
	if !(bound < vroom && vroom < h2 && h2 <= h1+0.8) {
		t.Errorf("PLT ordering violated: bound=%.2f vroom=%.2f h2=%.2f h1=%.2f", bound, vroom, h2, h1)
	}
	if (h2-vroom)/h2 < 0.08 {
		t.Errorf("vroom improvement over h2 too small: %.2f vs %.2f", vroom, h2)
	}

	f21, err := Fig21(o)
	if err != nil {
		t.Fatal(err)
	}
	fn := map[string]float64{}
	for _, row := range f21.Series {
		fn[row.Label] = row.Dist.Median()
	}
	if fn["false negatives, vroom"] > 0.15 {
		t.Errorf("vroom FN median %.2f too high", fn["false negatives, vroom"])
	}
	if fn["false negatives, offline only"] < fn["false negatives, vroom"] {
		t.Error("offline-only should miss more than vroom")
	}
	if fn["false negatives, online only"] > 0.02 {
		t.Errorf("online-only FN median %.2f should be ~0", fn["false negatives, online only"])
	}
	if fn["false positives, online only"] < fn["false positives, vroom"] {
		t.Error("online-only should return more extraneous URLs than vroom")
	}
}
