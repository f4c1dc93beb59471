package wire

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"vroom/internal/browser"
	"vroom/internal/netem"
	"vroom/internal/obs"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// traceWorld is the cross-process tracing fixture: an instrumented replay
// server (own tracer, own recording) behind a netem link, and a propagating
// client with its own tracer — two processes in miniature, joined only by
// the vroom-trace header on the wire.
type traceWorld struct {
	srv    *Server
	srvReg *telemetry.Registry
	srvRec *obs.LiveRecording
	cliRec *obs.LiveRecording
	client *Client
	root   urlutil.URL
}

func newTraceWorld(t *testing.T, gate *overload.Gate, cfg ServerConfig, retry browser.RetryPolicy) *traceWorld {
	t.Helper()
	site := webpage.NewSite("tracewire", webpage.News, 2017)
	sn := site.Snapshot(recordTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 5}, 1)
	archive := replay.FromSnapshot(sn)
	resolver := TrainResolver(site, recordTime, webpage.PhoneSmall)
	srv := NewServer(archive, resolver, webpage.PhoneSmall, cfg)
	srv.Gate = gate

	srvRec := &obs.LiveRecording{Start: time.Now()}
	srvReg := telemetry.NewRegistry()
	srv.Instrument(obs.NewWall(srvRec), srvReg)

	root, err := archive.Records[0].ParsedURL()
	if err != nil {
		t.Fatal(err)
	}

	link := netem.Listen(netem.LinkConfig{
		Delay:               time.Millisecond,
		DownlinkBytesPerSec: 50e6,
		UplinkBytesPerSec:   50e6,
	})
	go srv.H2().Serve(link)
	t.Cleanup(func() {
		srv.H2().Close()
		link.Close()
	})

	cliRec := &obs.LiveRecording{Start: time.Now()}
	c := &Client{
		Staged:        true,
		DialTimeout:   2 * time.Second,
		HeaderTimeout: 2 * time.Second,
		StallTimeout:  2 * time.Second,
		LoadDeadline:  chaosDeadline,
		Retry:         retry,
		Trace:         obs.NewWall(cliRec),
		Propagate:     true,
		Dial:          func(string) (net.Conn, error) { return link.Dial() },
	}
	return &traceWorld{srv: srv, srvReg: srvReg, srvRec: srvRec, cliRec: cliRec, client: c, root: root}
}

// merged returns the two processes' recordings merged into one timeline,
// server tracks prefixed "srv:" exactly the way vroom-load exports them.
func (w *traceWorld) merged() *obs.Recording {
	return obs.Merge(w.cliRec.Snapshot(), obs.PrefixTracks(w.srvRec.Snapshot(), "srv:"))
}

// checkMergedPerfetto renders the merged recording and validates it.
func checkMergedPerfetto(t *testing.T, rec *obs.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, rec); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	if err := obs.CheckPerfetto(buf.Bytes()); err != nil {
		t.Fatalf("merged trace is not Perfetto-valid: %v", err)
	}
	return buf.Bytes()
}

// TestTracePropagationEndToEnd drives a clean propagated load through the
// full stack and asserts the acceptance criterion: at least one fetch's
// client span and its server-side admission/hint/push spans share a trace
// ID, joined by flow events in a Perfetto-valid merged file.
func TestTracePropagationEndToEnd(t *testing.T) {
	// Enough slots that one staged load never fills the gate: at 64 it did
	// on some runs, the ladder shed every push and no push-write span existed.
	gate := overload.NewGate(overload.Config{MaxConcurrent: 1024, MaxQueue: 64, MaxWait: time.Second})
	w := newTraceWorld(t, gate, ServerConfig{SendHints: true, Push: true}, browser.RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})

	rep, err := w.client.LoadPage(w.root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 {
		t.Fatalf("clean load failed %d fetches", rep.Failed)
	}

	merged := w.merged()
	if joins := obs.FlowJoinCount(merged, "srv:"); joins < 1 {
		t.Fatalf("no fetch flow joined client and server spans (got %d joins over %d events)", joins, len(merged.Events))
	}

	// Every propagated flow that reached the server carries one trace ID:
	// the client's per-load ID, stamped on both sides as ArgTrace.
	traceIDs := make(map[string]bool)
	srvSpans := make(map[string]bool)
	for _, ev := range merged.Events {
		if ev.Kind != obs.KindBegin {
			continue
		}
		onSrv := strings.HasPrefix(ev.Track, "srv:")
		if onSrv {
			srvSpans[ev.Name] = true
		}
		for _, a := range ev.Args {
			if a.Key == obs.ArgTrace && a.Val != "" {
				traceIDs[a.Val] = true
			}
		}
	}
	if len(traceIDs) != 1 {
		t.Errorf("expected exactly one per-load trace ID across both processes, got %d (%v)", len(traceIDs), traceIDs)
	}
	for _, name := range []string{"serve", "admission", "hint-lookup", "push-write"} {
		if !srvSpans[name] {
			t.Errorf("server recording lacks a %q span (server spans: %v)", name, srvSpans)
		}
	}

	// Flow join is visible in the rendered artifact too: a flow start ("s")
	// bound to a finish ("f").
	data := checkMergedPerfetto(t, merged)
	if !bytes.Contains(data, []byte(`"ph":"s"`)) || !bytes.Contains(data, []byte(`"ph":"f"`)) {
		t.Error("rendered trace carries no flow start/finish events")
	}
}

// TestDrainMidLoadTraceComplete drains the server while a propagated load
// is in flight. The load must still return, every server-side span must
// close (beginServe's deferred End), and the merged recording must render
// to a valid Perfetto file with the root fetch's cross-process join intact.
func TestDrainMidLoadTraceComplete(t *testing.T) {
	gate := overload.NewGate(overload.Config{MaxConcurrent: 64, MaxQueue: 64, MaxWait: time.Second})
	w := newTraceWorld(t, gate, ServerConfig{SendHints: true, Push: true, ThinkTime: 100 * time.Millisecond},
		browser.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	w.client.LoadDeadline = 10 * time.Second

	done := make(chan *Report, 1)
	go func() {
		rep, err := w.client.LoadPage(w.root)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()

	// The root request is in the server's 100ms think by now; drain around it.
	time.Sleep(50 * time.Millisecond)
	w.srv.Drain(3 * time.Second)

	select {
	case rep := <-done:
		if rep == nil {
			return // LoadPage error already reported
		}
	case <-time.After(20 * time.Second):
		t.Fatal("load did not return after mid-load drain")
	}

	// Graceful drain may degrade the load but never truncates the server's
	// serving-path recording: every span the handler opened was closed on
	// the way out. Transport "conn" spans are excluded — they close with
	// the TCP connection, whose lifetime the client controls.
	srvSnap := w.srvRec.Snapshot()
	open := make(map[uint64]string)
	for _, ev := range srvSnap.Events {
		switch ev.Kind {
		case obs.KindBegin:
			if ev.Track == obs.TrackServer && ev.Name != "conn" {
				open[ev.ID] = ev.Name
			}
		case obs.KindEnd:
			delete(open, ev.ID)
		}
	}
	if len(open) > 0 {
		t.Errorf("server recording left %d spans open after drain: %v", len(open), open)
	}

	merged := obs.Merge(w.cliRec.Snapshot(), obs.PrefixTracks(srvSnap, "srv:"))
	if joins := obs.FlowJoinCount(merged, "srv:"); joins < 1 {
		t.Errorf("mid-drain trace lost the root fetch's cross-process join")
	}
	checkMergedPerfetto(t, merged)
}

// TestShedCrossCheck squeezes a staged load through a one-slot admission
// gate and cross-checks the degradation accounting end to end: every 503
// the gate refused must surface on the client as a failed fetch tagged
// shed-request (the header survives the failure path), and the client's
// count must equal the server's shed counter exactly.
func TestShedCrossCheck(t *testing.T) {
	gate := overload.NewGate(overload.Config{MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Millisecond})
	w := newTraceWorld(t, gate, ServerConfig{SendHints: true}, browser.RetryPolicy{MaxAttempts: 1})

	rep, err := w.client.LoadPage(w.root)
	if err != nil {
		t.Fatal(err)
	}

	tagged := 0
	for _, f := range rep.Fetches {
		if f.Status == 503 {
			if !f.Failed() {
				t.Errorf("503 fetch of %s not marked failed", f.URL)
			}
			if !hasToken(f.Degraded, DegradedShedRequest) {
				t.Errorf("shed 503 of %s lost its degradation tag (got %q)", f.URL, f.Degraded)
			}
			tagged++
		} else if hasToken(f.Degraded, DegradedShedRequest) {
			t.Errorf("non-503 fetch of %s tagged shed-request (status %d)", f.URL, f.Status)
		}
	}
	if tagged == 0 {
		t.Fatal("one-slot gate shed nothing; the cross-check exercised no path")
	}
	if shed := w.srvReg.Counter("vroom_server_shed_total").Value(); int64(tagged) != shed {
		t.Errorf("client saw %d shed-request 503s, server counted %d sheds", tagged, shed)
	}
	if gs := gate.Stats().Shed; gs == 0 {
		t.Error("gate snapshot counted no sheds")
	}
}
