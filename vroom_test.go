package vroom_test

import (
	"os"
	"strings"
	"testing"
	"time"

	"vroom"
)

func TestFacadeLoadPage(t *testing.T) {
	site := vroom.NewSite("facade", vroom.CategoryNews, 1)
	res, err := vroom.LoadPage(site, vroom.PolicyVroom, vroom.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PLT <= 0 || res.NumRequired == 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestFacadePolicies(t *testing.T) {
	if len(vroom.AllPolicies()) < 14 {
		t.Fatalf("policies: %v", vroom.AllPolicies())
	}
}

func TestFacadeHints(t *testing.T) {
	site := vroom.NewSite("facade", vroom.CategoryNews, 2)
	r := vroom.NewResolver(vroom.DefaultResolverConfig())
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	r.Train(site, at, vroom.DevicePhoneSmall)
	sn := site.Snapshot(at, vroom.Profile{Device: vroom.DevicePhoneSmall, UserID: 1}, 1)
	hs := r.HintsFor(sn.Root, sn.RootResource().Body, vroom.DevicePhoneSmall)
	if len(hs) == 0 {
		t.Fatal("no hints")
	}
	headers := vroom.FormatHints(hs)
	back := vroom.ParseHints(headers)
	if len(back) != len(hs) {
		t.Fatalf("hint round trip lost entries: %d vs %d", len(back), len(hs))
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := vroom.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("experiments: %v", ids)
	}
	o := vroom.QuickExperimentOptions()
	o.NewsSites, o.SportsSites = 2, 2
	res, err := vroom.RunExperiment("fig04", o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "fig04") {
		t.Fatalf("text: %q", res.Text)
	}
	if _, err := vroom.RunExperiment("nope", o); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFacadeArchive(t *testing.T) {
	site := vroom.NewSite("facade", vroom.CategoryNews, 3)
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	sn := site.Snapshot(at, vroom.Profile{Device: vroom.DevicePhoneSmall, UserID: 1}, 1)
	a := vroom.RecordSnapshot(sn)
	if a.Len() != len(sn.Ordered()) {
		t.Fatalf("archive %d vs snapshot %d", a.Len(), len(sn.Ordered()))
	}
	r := vroom.TrainResolver(site, at, vroom.DevicePhoneSmall)
	srv := vroom.NewWireServer(a, r, vroom.DevicePhoneSmall, vroom.WireServerConfig{SendHints: true, Push: true})
	if srv.H2() == nil {
		t.Fatal("no h2 server")
	}
}

// TestDesignPolicyList keeps DESIGN.md §4's policy list equal to
// AllPolicies: the paragraph after the "Policies, by `runner` ID" line
// names every policy ID, in order, and nothing else.
func TestDesignPolicyList(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const marker = "Policies, by `runner` ID"
	_, rest, ok := strings.Cut(string(data), marker)
	if !ok {
		t.Fatalf("DESIGN.md has no %q line", marker)
	}
	// Skip the rest of the marker's paragraph; the list is the next one.
	_, rest, _ = strings.Cut(rest, "\n\n")
	list, _, _ := strings.Cut(rest, "\n\n")
	var doc []string
	for i, f := range strings.Split(list, "`") {
		if i%2 == 1 {
			doc = append(doc, f)
		}
	}
	var code []string
	for _, p := range vroom.AllPolicies() {
		code = append(code, string(p))
	}
	if strings.Join(doc, " ") != strings.Join(code, " ") {
		t.Errorf("DESIGN.md §4 lists\n  %s\nbut AllPolicies is\n  %s", strings.Join(doc, " "), strings.Join(code, " "))
	}
}
