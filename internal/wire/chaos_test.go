package wire

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vroom/internal/browser"
	"vroom/internal/faults"
	"vroom/internal/h1"
	"vroom/internal/netem"
	"vroom/internal/replay"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// chaosFaultConfig is severe-regime-grade fault pressure tuned for test wall
// clocks. Outage windows cover the whole load (OutageMaxStart zero, duration
// past any deadline) so whether a dial lands inside a window never depends on
// goroutine scheduling: the drawn decision log is a pure function of the seed.
func chaosFaultConfig() faults.Config {
	return faults.Config{
		OriginOutageFrac: 0.15,
		OutageMaxStart:   0,
		OutageDuration:   10 * time.Minute,
		BrownoutFrac:     0.25,
		BrownoutMaxDelay: 80 * time.Millisecond,
		ErrorRate:        0.08,
		TruncateRate:     0.08,
		StallRate:        0.05,
		StaleHintRate:    0.20,
		RedirectFrac:     0.5,
	}
}

const chaosDeadline = 30 * time.Second

// chaosLoad runs one full page load of a generated site with seeded faults
// injected both server-side (503s, stale hints) and on the wire (outages,
// brownouts, resets, stalls, truncation), returning the possibly-degraded
// report plus the shim's drawn fault decisions.
func chaosLoad(t *testing.T, proto string, seed int64, inject bool) (*Report, []string) {
	t.Helper()
	site := webpage.NewSite("chaoswire", webpage.News, 2017)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	srv := NewServer(archive, resolver, webpage.PhoneSmall, ServerConfig{SendHints: true, Push: proto == "h2"})

	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}

	var shim *netem.FaultShim
	if inject {
		plan := faults.New(seed, chaosFaultConfig())
		plan.ExemptURL(root)
		srv.Faults = plan
		shim = netem.NewFaultShim(plan)
	}

	link := netem.Listen(netem.LinkConfig{
		Delay:               time.Millisecond,
		DownlinkBytesPerSec: 50e6,
		UplinkBytesPerSec:   50e6,
	})
	if proto == "h1" {
		go srv.H1().Serve(link)
	} else {
		go srv.H2().Serve(link)
	}
	defer func() {
		srv.H1().Close()
		srv.H2().Close()
		link.Close()
	}()

	c := &Client{
		Staged:        true,
		DialTimeout:   2 * time.Second,
		HeaderTimeout: 300 * time.Millisecond,
		StallTimeout:  300 * time.Millisecond,
		LoadDeadline:  chaosDeadline,
		Retry:         browser.RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	}
	dial := func(origin string) (net.Conn, error) {
		if shim != nil {
			return shim.Dial(origin, link.Dial)
		}
		return link.Dial()
	}
	if proto == "h1" {
		c.DialOrigin = func(origin string) (OriginConn, error) {
			u, err := urlutil.Parse(origin + "/")
			if err != nil {
				return nil, err
			}
			return &h1.Pool{Authority: u.Host, Dial: func() (net.Conn, error) { return dial(origin) }}, nil
		}
	} else {
		c.Dial = dial
	}

	start := time.Now()
	rep, err := c.LoadPage(root)
	if err != nil {
		t.Fatalf("LoadPage must degrade, not fail outright: %v", err)
	}
	if el := time.Since(start); el > chaosDeadline+5*time.Second {
		t.Fatalf("load took %v, past the %v deadline", el, chaosDeadline)
	}
	return rep, shim.Decisions()
}

// checkChaosReport asserts the degraded-load invariants: every record is for
// a distinct URL, failed fetches carry a typed error kind plus message, and
// the aggregates match the records.
func checkChaosReport(t *testing.T, rep *Report) {
	t.Helper()
	seen := map[string]int{}
	failed, retries := 0, 0
	for _, f := range rep.Fetches {
		seen[f.URL]++
		retries += f.Retries
		if f.Failed() {
			failed++
			if f.Err == "" {
				t.Errorf("failed fetch of %s (kind %s) carries no error message", f.URL, f.ErrKind)
			}
		} else if f.Status == 0 {
			t.Errorf("successful fetch of %s has no status", f.URL)
		}
	}
	for u, n := range seen {
		if n > 1 {
			t.Errorf("%s recorded %d times", u, n)
		}
	}
	if failed != rep.Failed {
		t.Errorf("report says %d failed, records say %d", rep.Failed, failed)
	}
	if retries != rep.Retries {
		t.Errorf("report says %d retries, records say %d", rep.Retries, retries)
	}
}

// writeChaosArtifact dumps the per-fetch failure report as JSON when
// WIRE_CHAOS_ARTIFACTS names a directory (the CI wire-chaos job uploads it).
func writeChaosArtifact(t *testing.T, name string, rep *Report) {
	t.Helper()
	dir := os.Getenv("WIRE_CHAOS_ARTIFACTS")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	type failure struct {
		URL      string `json:"url"`
		Kind     string `json:"kind"`
		Err      string `json:"err"`
		Retries  int    `json:"retries"`
		TimedOut bool   `json:"timed_out"`
	}
	out := struct {
		Fetches     int       `json:"fetches"`
		Failed      int       `json:"failed"`
		Retries     int       `json:"retries"`
		Pushed      int       `json:"pushed"`
		DeadlineHit bool      `json:"deadline_hit"`
		TotalMs     float64   `json:"total_ms"`
		Failures    []failure `json:"failures"`
	}{
		Fetches: len(rep.Fetches), Failed: rep.Failed, Retries: rep.Retries,
		Pushed: rep.Pushed, DeadlineHit: rep.DeadlineHit,
		TotalMs: rep.Total().Seconds() * 1000,
	}
	for _, f := range rep.Fetches {
		if f.Failed() {
			out.Failures = append(out.Failures, failure{
				URL: f.URL, Kind: string(f.ErrKind), Err: f.Err,
				Retries: f.Retries, TimedOut: f.TimedOut,
			})
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Logf("artifact marshal: %v", err)
		return
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), b, 0o644); err != nil {
		t.Logf("artifact write: %v", err)
	}
}

// splitDecisions separates a shim's decision log into what the seed fixes
// and what timing may add to it. Outages, brownouts and each origin's first
// connection (#0) are fixed. A later connection ("<origin>#<n>:<verdict>@<cut>",
// n ≥ 1) is dialed only if fetches are still in flight when an earlier one
// dies, which depends on timing; its verdict, keyed by "<origin>#<n>", is
// still the seed's.
func splitDecisions(dec []string) (fixed []string, later map[string]string) {
	later = map[string]string{}
	for _, d := range dec {
		i := strings.LastIndexByte(d, '#')
		n, verdict, ok := strings.Cut(d[i+1:], ":")
		if i < 0 || !ok || n == "0" {
			fixed = append(fixed, d)
			continue
		}
		later[d[:i+1]+n] = verdict
	}
	return fixed, later
}

// TestWireChaosDeterminism is the wire counterpart of the simulator's seeded
// chaos runs: two loads under the same seed must draw identical outage,
// brownout and first-connection decisions and the same verdict for every
// later connection both dialed, and a different seed must draw different
// ones, while every load still returns a complete report within its
// deadline.
func TestWireChaosDeterminism(t *testing.T) {
	repA, decA := chaosLoad(t, "h2", 11, true)
	repB, decB := chaosLoad(t, "h2", 11, true)
	_, decC := chaosLoad(t, "h2", 1213, true)
	checkChaosReport(t, repA)
	checkChaosReport(t, repB)
	if len(decA) == 0 {
		t.Fatal("seed 11 drew no fault decisions at all")
	}
	fixedA, laterA := splitDecisions(decA)
	fixedB, laterB := splitDecisions(decB)
	if !reflect.DeepEqual(fixedA, fixedB) {
		t.Errorf("same seed drew different fault decisions:\nfirst:  %v\nsecond: %v", fixedA, fixedB)
	}
	for conn, v := range laterA {
		if w, ok := laterB[conn]; ok && w != v {
			t.Errorf("same seed drew %s for %s, then %s", v, conn, w)
		}
	}
	if reflect.DeepEqual(decA, decC) {
		t.Errorf("different seeds drew identical fault decisions: %v", decA)
	}
	t.Logf("seed 11: %d fetches, %d failed, %d retries, %d fault decisions",
		len(repA.Fetches), repA.Failed, repA.Retries, len(decA))
	writeChaosArtifact(t, "chaos-determinism-h2-seed11", repA)
}

// TestWireChaosMatrix drives both wire protocols through the demo archive
// with faults off (clean world: nothing may fail) and on (broken world: the
// load must degrade, not abort).
func TestWireChaosMatrix(t *testing.T) {
	for _, proto := range []string{"h2", "h1"} {
		for _, inject := range []bool{false, true} {
			name := fmt.Sprintf("%s-faults-%v", proto, inject)
			t.Run(name, func(t *testing.T) {
				rep, dec := chaosLoad(t, proto, 7, inject)
				checkChaosReport(t, rep)
				if !inject {
					if len(dec) != 0 {
						t.Errorf("clean run drew fault decisions: %v", dec)
					}
					if rep.Failed != 0 {
						t.Errorf("clean run had %d failed fetches", rep.Failed)
					}
					if rep.DeadlineHit {
						t.Error("clean run hit the load deadline")
					}
				}
				if len(rep.Fetches) == 0 {
					t.Error("no fetches recorded")
				}
				writeChaosArtifact(t, "chaos-"+name, rep)
			})
		}
	}
}
