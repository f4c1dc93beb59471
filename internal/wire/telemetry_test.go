package wire

import (
	"bytes"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"vroom/internal/browser"
	"vroom/internal/faults"
	"vroom/internal/netem"
	"vroom/internal/obs"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

// telemetryLoad is chaosLoad with the full observability plane attached:
// one wall-clock tracer and one registry shared by the client, the replay
// server, and the fault shim.
func telemetryLoad(t *testing.T, seed int64) (*Report, *obs.Recording, *telemetry.Registry) {
	t.Helper()
	site := webpage.NewSite("telemwire", webpage.News, 2017)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	srv := NewServer(archive, resolver, webpage.PhoneSmall, ServerConfig{SendHints: true, Push: true})

	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}

	plan := faults.New(seed, chaosFaultConfig())
	plan.ExemptURL(root)
	srv.Faults = plan
	shim := netem.NewFaultShim(plan)

	live := &obs.LiveRecording{Start: time.Now()}
	tr := obs.NewWall(live)
	reg := telemetry.NewRegistry()
	srv.Instrument(tr, reg)
	shim.Trace = tr

	link := netem.Listen(netem.LinkConfig{
		Delay:               time.Millisecond,
		DownlinkBytesPerSec: 50e6,
		UplinkBytesPerSec:   50e6,
	})
	go srv.H2().Serve(link)
	defer func() {
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
		Trace:         tr,
		Metrics:       reg,
	}
	c.Dial = func(origin string) (net.Conn, error) {
		return shim.Dial(origin, link.Dial)
	}

	rep, err := c.LoadPage(root)
	if err != nil {
		t.Fatalf("LoadPage must degrade, not fail outright: %v", err)
	}
	// Transport goroutines may still be draining their final events;
	// Snapshot reads race-free, like a metrics scrape.
	return rep, live.Snapshot(), reg
}

// seriesSum sums every sample of one metric family in a Prometheus text
// exposition (counters and gauges; histogram series are skipped by their
// _bucket/_sum/_count suffixes not matching the bare name).
func seriesSum(scrape, name string) (float64, int) {
	var sum float64
	var n int
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // a longer name sharing the prefix
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	return sum, n
}

// TestWireTelemetryLiveLoad drives a faulted h2 load with the tracer and
// metrics registry attached at every layer and checks both outputs: the
// trace must be valid Perfetto, and the scrape must carry the load's
// retries and pushes with values that match the fetch report.
func TestWireTelemetryLiveLoad(t *testing.T) {
	rep, rec, reg := telemetryLoad(t, 11)

	// Trace side: events were recorded and export as valid Perfetto JSON.
	if rec.Len() == 0 {
		t.Fatal("traced load recorded no events")
	}
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, rec); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if err := obs.CheckPerfetto(buf.Bytes()); err != nil {
		t.Fatalf("trace is not valid Perfetto: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range rec.Events {
		names[ev.Name] = true
	}
	for _, want := range []string{"load", "fetch", "dial", "conn"} {
		if !names[want] {
			t.Errorf("trace has no %q events", want)
		}
	}

	// Metrics side: the scrape must agree with the report.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	scrape := sb.String()

	if retries, n := seriesSum(scrape, "vroom_wire_retries_total"); n == 0 || int(retries) != rep.Retries {
		t.Errorf("scrape shows %v retries over %d series, report says %d", retries, n, rep.Retries)
	}
	if rep.Retries == 0 {
		t.Error("seed 11 produced no retries; pick a seed that exercises the retry path")
	}
	if pushes, n := seriesSum(scrape, "vroom_wire_push_total"); n == 0 || pushes == 0 {
		t.Errorf("scrape shows no push activity (%v over %d series) on a push-enabled load", pushes, n)
	}
	// Round trips can undercount fetches (push-satisfied and breaker-refused
	// fetches never reach the transport) but must be present per origin.
	if reqs, n := seriesSum(scrape, "vroom_wire_requests_total"); n == 0 || reqs == 0 {
		t.Errorf("scrape shows no round trips (%v over %d series)", reqs, n)
	}
	if srvReqs, _ := seriesSum(scrape, "vroom_server_requests_total"); srvReqs == 0 {
		t.Error("server-side request counter never moved")
	}
	if loads, _ := seriesSum(scrape, "vroom_wire_loads_total"); loads != 1 {
		t.Errorf("loads counter = %v, want 1", loads)
	}
	// The shared phase histogram must have observed dial and header phases.
	for _, phase := range []string{"dial", "headers"} {
		want := `vroom_wire_fetch_phase_ms_count{phase="` + phase + `"}`
		if v, n := seriesSum(scrape, want); n != 1 || v == 0 {
			t.Errorf("phase histogram %s absent or empty (%v over %d series)", want, v, n)
		}
	}
	// The conn gauge settles to zero once the load tears its connections
	// down. (Breaker-open may legitimately finish nonzero: an origin can end
	// the load tripped.)
	if conns, n := seriesSum(scrape, "vroom_wire_active_conns"); n == 0 || conns != 0 {
		t.Errorf("active-conns gauge = %v over %d series after load end, want 0", conns, n)
	}
}

// TestFinalURLRecorded pins the FetchRecord.FinalURL contract: successful
// un-redirected fetches record their own URL, redirected ones record the
// post-redirect URL, and failures leave it empty.
func TestFinalURLRecorded(t *testing.T) {
	redirected := 0
	for _, seed := range []int64{7, 11, 1213} {
		rep, _ := chaosLoad(t, "h2", seed, true)
		for _, f := range rep.Fetches {
			if f.Failed() {
				if f.FinalURL != "" {
					t.Errorf("seed %d: failed fetch of %s records FinalURL %q", seed, f.URL, f.FinalURL)
				}
				continue
			}
			if f.FinalURL == "" {
				t.Errorf("seed %d: successful fetch of %s records no FinalURL", seed, f.URL)
				continue
			}
			if f.Redirects > 0 {
				redirected++
				if f.FinalURL == f.URL {
					t.Errorf("seed %d: %s followed %d redirects but FinalURL equals the request URL",
						seed, f.URL, f.Redirects)
				}
			} else if f.FinalURL != f.URL {
				t.Errorf("seed %d: un-redirected fetch of %s records FinalURL %q", seed, f.URL, f.FinalURL)
			}
		}
	}
	if redirected == 0 {
		t.Error("no seed produced a followed redirect; stale-hint redirects are not reaching FinalURL")
	}
}

// TestNilTracerZeroAlloc enforces the disabled-path contract: with a nil
// tracer and nil registry, the per-fetch instrumentation hooks — trace
// propagation ones included — must not allocate at all.
func TestNilTracerZeroAlloc(t *testing.T) {
	// Propagate without a tracer is the worst disabled case: every
	// propagation guard is reached and must still bail allocation-free.
	c := &Client{Propagate: true}
	lt := newLoadTelemetry(nil)
	frec := FetchRecord{URL: "https://origin.example/x", Status: 200, Bytes: 1024}
	fl := &inflightFetch{}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := c.beginFetchSpan(fl, frec.URL, "high")
		c.endFetchSpan(sp, &frec)
		lt.loads.Inc()
		lt.fetchOkMs.ObserveExemplar(1.5, fl.flow)
		lt.pushReceived.Inc()
		lt.deadlines.Inc()
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer fetch instrumentation allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkWireTracerOverhead measures the per-fetch instrumentation cost
// on the disabled (nil tracer, nil registry — propagation flag on and off)
// and enabled paths. The nil paths are the production default and must
// stay at 0 allocs/op.
func BenchmarkWireTracerOverhead(b *testing.B) {
	frec := FetchRecord{URL: "https://origin.example/x", Status: 200, Bytes: 1024}
	disabled := func(c *Client) func(b *testing.B) {
		return func(b *testing.B) {
			lt := newLoadTelemetry(nil)
			fl := &inflightFetch{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := c.beginFetchSpan(fl, frec.URL, "high")
				c.endFetchSpan(sp, &frec)
				lt.loads.Inc()
				lt.fetchOkMs.ObserveExemplar(1.5, fl.flow)
			}
		}
	}
	b.Run("nil", disabled(&Client{}))
	b.Run("nil-propagate", disabled(&Client{Propagate: true}))
	b.Run("enabled", func(b *testing.B) {
		rec := &obs.Recording{}
		c := &Client{Trace: obs.NewWall(rec)}
		lt := newLoadTelemetry(telemetry.NewRegistry())
		fl := &inflightFetch{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := c.beginFetchSpan(fl, frec.URL, "high")
			c.endFetchSpan(sp, &frec)
			lt.loads.Inc()
			lt.fetchOkMs.ObserveExemplar(1.5, fl.flow)
			rec.Events = rec.Events[:0]
		}
	})
	b.Run("enabled-propagate", func(b *testing.B) {
		rec := &obs.Recording{}
		c := &Client{Trace: obs.NewWall(rec), Propagate: true, traceID: obs.NewTraceID()}
		lt := newLoadTelemetry(telemetry.NewRegistry())
		fl := &inflightFetch{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := c.beginFetchSpan(fl, frec.URL, "high")
			c.endFetchSpan(sp, &frec)
			lt.loads.Inc()
			lt.fetchOkMs.ObserveExemplar(1.5, fl.flow)
			rec.Events = rec.Events[:0]
		}
	})
}
