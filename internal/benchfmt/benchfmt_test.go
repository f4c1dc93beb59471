package benchfmt

import (
	"path/filepath"
	"testing"
)

// sampleFile is the shape cmd/vroom-load writes: one storm figure of
// per-class load times with the serving-side block.
func sampleFile() *File {
	return &File{
		Scale: "load", Seed: 11, Faults: "mild", Workers: 32, ElapsedMs: 5200,
		Figures: []Figure{{
			ID: "load-storm-plt", Title: "Storm PLT by client class (s)", ElapsedMs: 5200,
			Series: []Series{
				{Label: "all", N: 150, Mean: 2.0, P25: 1.5, P50: 2.0, P75: 2.5, P95: 3.0},
			},
			Notes: []string{"150 loads, 0 hung, 0 deadline-hit, 3 fetch retries"},
			Server: &ServerStats{
				QPS: 410, Requests: 2100, Shed: 12, ShedRate: 12.0 / 2112,
				Origins: []OriginStats{{Origin: "www.dailynews00.com", Requests: 2100, HintsEmitted: 900}},
			},
		}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Save(path, sampleFile()); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Figures) != 1 || got.Figures[0].Series[0].P50 != 2.0 ||
		got.Figures[0].Server == nil || got.Figures[0].Server.Origins[0].HintsEmitted != 900 {
		t.Fatalf("round trip mangled the artifact: %+v", got)
	}
	// Save stamps the current schema over whatever the caller set.
	bad := sampleFile()
	bad.Schema = "vroom-bench/v0"
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := Save(badPath, bad); err != nil {
		t.Fatal(err)
	}
	f, err := Load(badPath)
	if err != nil || f.Schema != Schema {
		t.Fatalf("Save must stamp the schema: %v %v", f, err)
	}
}
