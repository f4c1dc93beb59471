package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: 0xdeadbeefcafef00d, Span: 42}
	s := tc.String()
	if len(s) != 33 || s[16] != '-' {
		t.Fatalf("wire form %q not 16-hex '-' 16-hex", s)
	}
	got, ok := ParseTraceHeader(s)
	if !ok || got != tc {
		t.Fatalf("ParseTraceHeader(%q) = %+v, %v; want %+v", s, got, ok, tc)
	}
	if tc.TraceID() != fmt.Sprintf("%016x", uint64(0xdeadbeefcafef00d)) {
		t.Errorf("TraceID() = %q", tc.TraceID())
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	good := TraceContext{Trace: 0xabc1, Span: 2}.String()
	bad := []string{
		"",
		"nonsense",
		good[:32],                           // too short
		good + "0",                          // too long
		strings.Replace(good, "-", "_", 1),  // wrong separator
		strings.ToUpper(good),               // uppercase hex is rejected (strict form)
		"000000000000000g-0000000000000002", // non-hex digit
		"0000000000000000-0000000000000002", // zero trace ID
		good[:10] + " " + good[11:],         // embedded space
	}
	for _, v := range bad {
		if _, ok := ParseTraceHeader(v); ok {
			t.Errorf("ParseTraceHeader(%q) accepted, want reject", v)
		}
	}
}

func TestNewTraceIDDistinctAndNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("NewTraceID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %016x after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestForkSharesIDsAndTees(t *testing.T) {
	main := &Recording{}
	extra := &Recording{}
	tr := NewWall(main)
	forked := tr.Fork(extra)

	a := tr.Begin(TrackLoad, "a")
	b := forked.Begin(TrackLoad, "b")
	b.End()
	a.End()

	if a.id == b.id || a.id == 0 || b.id == 0 {
		t.Fatalf("span IDs not unique across fork: a=%d b=%d", a.id, b.id)
	}
	// The fork tees: its events land in both recordings; the parent's only
	// in the main one.
	if main.Len() != 4 {
		t.Errorf("main recording has %d events, want 4", main.Len())
	}
	if extra.Len() != 2 {
		t.Errorf("extra recording has %d events, want 2", extra.Len())
	}
	var nilTr *Tracer
	if nilTr.Fork(extra) != nil {
		t.Error("forking a nil tracer must stay nil")
	}
}

func TestFlightRecorderWrapAndDropCount(t *testing.T) {
	fr := NewFlightRecorder(4)
	base := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		fr.Emit(Event{Kind: KindInstant, Track: "load", Name: fmt.Sprintf("e%d", i),
			At: base.Add(time.Duration(i) * time.Millisecond)})
	}
	events, dropped := fr.Snapshot()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want ring size 4", len(events))
	}
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	// The ring keeps the newest events, sorted by time.
	for i, ev := range events {
		want := fmt.Sprintf("e%d", 6+i)
		if ev.Name != want {
			t.Errorf("event %d = %s, want %s", i, ev.Name, want)
		}
	}

	// Per-track isolation: a chatty track must not evict a sparse one.
	fr2 := NewFlightRecorder(4)
	fr2.Emit(Event{Kind: KindInstant, Track: "load", Name: "precious", At: base})
	for i := 0; i < 100; i++ {
		fr2.Emit(Event{Kind: KindInstant, Track: "conn:x", Name: "chatter",
			At: base.Add(time.Duration(i+1) * time.Millisecond)})
	}
	events, _ = fr2.Snapshot()
	found := false
	for _, ev := range events {
		found = found || ev.Name == "precious"
	}
	if !found {
		t.Error("sparse track's event evicted by another track's chatter")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(64)
	base := time.Now()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			track := fmt.Sprintf("t%d", g%4)
			for i := 0; i < 2000; i++ {
				fr.Emit(Event{Kind: KindInstant, Track: track, Name: "e",
					At: base.Add(time.Duration(i))})
			}
		}(g)
	}
	// Snapshot while emitters run: must not race or tear.
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				fr.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	events, dropped := fr.Snapshot()
	if len(events) != 4*64 {
		t.Errorf("retained %d events, want 256 (4 full rings)", len(events))
	}
	// 16000 emitted, 256 retained.
	if dropped != 16000-256 {
		t.Errorf("dropped = %d, want %d", dropped, 16000-256)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	start := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	rec := &Recording{Start: start}
	now := start
	tr := New(clockAt(&now), rec)
	sp := tr.Begin(TrackLoad, "fetch", Arg{Key: ArgFlow, Val: "abc-def"})
	now = now.Add(3 * time.Millisecond)
	tr.Instant(TrackServer, "request-shed")
	sp.End(Arg{Key: "status", Val: "200"})

	var buf bytes.Buffer
	if err := WriteEvents(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(rec.Start) {
		t.Errorf("start %v, want %v", got.Start, rec.Start)
	}
	if len(got.Events) != len(rec.Events) {
		t.Fatalf("%d events, want %d", len(got.Events), len(rec.Events))
	}
	for i := range rec.Events {
		w, g := rec.Events[i], got.Events[i]
		if g.Kind != w.Kind || g.Track != w.Track || g.Name != w.Name ||
			g.ID != w.ID || !g.At.Equal(w.At) || g.Arg(ArgFlow) != w.Arg(ArgFlow) {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, g, w)
		}
	}

	// Unknown version and unknown kind must error, not mis-parse.
	if _, err := ReadEvents(strings.NewReader(`{"version":"vroom-events/v9","events":[]}`)); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := ReadEvents(strings.NewReader(
		`{"version":"vroom-events/v1","events":[{"kind":"X","track":"t","name":"n","at_ns":1}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMergeRemapsSpanIDs(t *testing.T) {
	start := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	mk := func(track string, offset time.Duration) *Recording {
		rec := &Recording{Start: start}
		now := start.Add(offset)
		tr := New(clockAt(&now), rec)
		sp := tr.Begin(track, "work")
		now = now.Add(time.Millisecond)
		sp.End()
		return rec
	}
	a := mk("client", 0)
	b := mk("server", 500*time.Microsecond)
	// Both tracers number spans from 1; merging raw would cross-pair.
	if a.Events[0].ID != b.Events[0].ID {
		t.Fatal("test premise broken: IDs should collide before merge")
	}
	m := Merge(a, b, nil)
	if len(m.Events) != 4 {
		t.Fatalf("merged %d events, want 4", len(m.Events))
	}
	ids := make(map[uint64]int)
	for _, ev := range m.Events {
		ids[ev.ID]++
	}
	if len(ids) != 2 {
		t.Fatalf("merged IDs %v, want 2 distinct spans", ids)
	}
	for id, n := range ids {
		if n != 2 {
			t.Errorf("span %d has %d events, want B+E", id, n)
		}
	}
	// Stable time sort: the server's begin lands between the client's B/E.
	if m.Events[1].Track != "server" {
		t.Errorf("event order by time broken: %+v", m.Events)
	}
	if !m.Start.Equal(start) {
		t.Errorf("merged start %v, want earliest %v", m.Start, start)
	}
}

func TestPrefixTracksAndFlowJoinCount(t *testing.T) {
	start := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	client := &Recording{Start: start}
	now := start
	ctr := New(clockAt(&now), client)
	flow := TraceContext{Trace: 7, Span: 1}.String()
	csp := ctr.Begin(TrackLoad, "fetch", Arg{Key: ArgFlow, Val: flow})

	server := &Recording{Start: start}
	now2 := start.Add(time.Millisecond)
	strr := New(clockAt(&now2), server)
	ssp := strr.Begin(TrackServer, "serve", Arg{Key: ArgFlow, Val: flow})
	ssp.End()
	now = now.Add(3 * time.Millisecond)
	csp.End()

	pref := PrefixTracks(server, "srv:")
	if pref.Events[0].Track != "srv:"+TrackServer {
		t.Fatalf("prefixed track %q", pref.Events[0].Track)
	}
	if server.Events[0].Track != TrackServer {
		t.Fatal("PrefixTracks mutated its input")
	}
	m := Merge(client, pref)
	if n := FlowJoinCount(m, "srv:"); n != 1 {
		t.Errorf("FlowJoinCount = %d, want 1", n)
	}
	// A flow confined to one track does not count as a join.
	if n := FlowJoinCount(client, "srv:"); n != 0 {
		t.Errorf("single-track FlowJoinCount = %d, want 0", n)
	}
	// Nor does one that crosses tracks inside the client only: the load and
	// the network track share a flow the server never saw.
	inner := Arg{Key: ArgFlow, Val: TraceContext{Trace: 7, Span: 2}.String()}
	ctr.Begin(TrackLoad, "fetch", inner).End()
	ctr.Begin(TrackNet, "recv", inner).End()
	if n := FlowJoinCount(Merge(client, pref), "srv:"); n != 1 {
		t.Errorf("FlowJoinCount with a client-internal crossing = %d, want 1", n)
	}
}

// TestPerfettoFlowEvents pins the flow-event emission contract: spans
// sharing an ArgFlow across tracks are linked s->f, a flow on a single
// span emits nothing (no dangling starts), and the output passes
// CheckPerfetto's flow validation.
func TestPerfettoFlowEvents(t *testing.T) {
	start := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	rec := &Recording{Start: start}
	now := start
	tr := New(clockAt(&now), rec)
	flow := TraceContext{Trace: 9, Span: 3}.String()

	a := tr.Begin("load", "fetch", Arg{Key: ArgFlow, Val: flow})
	now = now.Add(time.Millisecond)
	b := tr.Begin("srv:server", "serve", Arg{Key: ArgFlow, Val: flow})
	now = now.Add(time.Millisecond)
	b.End()
	now = now.Add(time.Millisecond)
	a.End()
	// A second flow with only one span: must emit no flow events at all.
	lone := tr.Begin("load", "fetch", Arg{Key: ArgFlow, Val: TraceContext{Trace: 9, Span: 4}.String()})
	lone.End()

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rec); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, `"ph":"s"`); got != 1 {
		t.Errorf("%d flow starts, want 1\n%s", got, out)
	}
	if got := strings.Count(out, `"ph":"f"`); got != 1 {
		t.Errorf("%d flow finishes, want 1", got)
	}
	if !strings.Contains(out, `"bp":"e"`) {
		t.Error("flow finish lacks bp:e binding")
	}
	if err := CheckPerfetto(buf.Bytes()); err != nil {
		t.Fatalf("flow-bearing trace fails validation: %v", err)
	}
}

// TestPerfettoSubMicrosecondSpan: a span shorter than the file's
// microsecond resolution that cannot nest in its track (it straddles the
// end of an enclosing span) must not become an async pair whose end sorts
// before its begin — the wire server's admission span is one, and the
// merged trace failed validation on about one run in six.
func TestPerfettoSubMicrosecondSpan(t *testing.T) {
	start := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	rec := &Recording{Start: start}
	now := start
	tr := New(clockAt(&now), rec)

	outer := tr.Begin("srv:server", "serve")
	now = start.Add(2 * time.Millisecond)
	short := tr.Begin("srv:server", "admission")
	now = start.Add(2*time.Millisecond + 100*time.Nanosecond)
	outer.End()
	now = start.Add(2*time.Millisecond + 300*time.Nanosecond)
	short.End(Arg{Key: "result", Val: "admitted"})

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := CheckPerfetto(buf.Bytes()); err != nil {
		t.Fatalf("sub-microsecond span breaks the trace: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `"result":"admitted"`) {
		t.Error("the span's end args were lost")
	}
}

// TestCheckPerfettoFlowValidation pins the new checks: a finish without a
// start, a dangling start, and a duplicate start must all be rejected.
func TestCheckPerfettoFlowValidation(t *testing.T) {
	head := `{"traceEvents":[`
	tail := `],"displayTimeUnit":"ms"}`
	cases := map[string]string{
		"finish-without-start": `{"name":"flow","ph":"f","bp":"e","ts":1,"pid":1,"tid":1,"cat":"vroom-flow","id":"x"}`,
		"dangling-start":       `{"name":"flow","ph":"s","ts":1,"pid":1,"tid":1,"cat":"vroom-flow","id":"x"}`,
		"duplicate-start": `{"name":"flow","ph":"s","ts":1,"pid":1,"tid":1,"cat":"vroom-flow","id":"x"},` +
			`{"name":"flow","ph":"s","ts":2,"pid":1,"tid":1,"cat":"vroom-flow","id":"x"},` +
			`{"name":"flow","ph":"f","bp":"e","ts":3,"pid":1,"tid":1,"cat":"vroom-flow","id":"x"}`,
	}
	for name, body := range cases {
		if err := CheckPerfetto([]byte(head + body + tail)); err == nil {
			t.Errorf("%s accepted, want reject", name)
		}
	}
}
