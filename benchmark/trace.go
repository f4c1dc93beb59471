package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/core"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/obs"
)

// Span layers, also the thread ids in the trace file.
const (
	layerOp      = 1 // one workload operation (page load, document request, simulated load)
	layerFetch   = 2 // one client fetch: wire.FetchRecord Start..Done
	layerHandler = 3 // one Server.ServeH2/ServeH1 call
)

var layerNames = map[int]string{layerOp: "op", layerFetch: "fetch", layerHandler: "handler"}

// span is one traced interval. parent is the id of the span that caused it
// (0 for an op); spans of one operation share op.
type span struct {
	layer      int
	name       string
	op         int64
	id, parent int64
	start, end time.Time
	doc        bool // handler spans: the response was a tenant's root document
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer is the harness's own recorder: it sees the program only through the
// values the harness hands it (connections, handlers) and through what the
// program returns (wire.Report). Spans go into a preallocated slice and are
// written out when the workload ends.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64
	frozen bool // set by freeze: the pass is over, late handler returns are dropped

	dials, reads, writes atomic.Int64
	bytesIn, bytesOut    atomic.Int64
	h2Calls, h1Calls     atomic.Int64
	// rootDocs and hintBytes accumulate, over responses to tenant root
	// documents, the pre-HPACK size of their hint headers.
	rootDocs, hintBytes atomic.Int64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// add records a span and returns its id.
func (t *tracer) add(s span) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		return 0
	}
	t.nextID++
	s.id = t.nextID
	t.spans = append(t.spans, s)
	return s.id
}

// freeze ends recording; the analysis below reads spans without the lock.
func (t *tracer) freeze() {
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
}

// countingConn counts the bytes and calls crossing one client connection.
type countingConn struct {
	net.Conn
	tr *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.reads.Add(1)
	c.tr.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.writes.Add(1)
	c.tr.bytesOut.Add(int64(n))
	return n, err
}

// hintHeaderBytes is Σ len(name)+len(value) over the three hint headers.
func hintHeaderBytes(h map[string][]string) int64 {
	var n int64
	for _, name := range [...]string{hints.HeaderLink, hints.HeaderSemi, hints.HeaderLow} {
		for _, v := range h[name] {
			n += int64(len(name) + len(v))
		}
	}
	return n
}

// handled records one handler call from its request and response headers.
func (t *tracer) handled(r *h2.Request, respHeader map[string][]string, start, end time.Time) {
	// Only tenant roots live at "/": iframe documents have their own paths.
	doc := r.Path == "/"
	if doc {
		t.rootDocs.Add(1)
		t.hintBytes.Add(hintHeaderBytes(respHeader))
	}
	t.add(span{layer: layerHandler, name: "https://" + r.Authority + r.Path, start: start, end: end, doc: doc})
}

// timedH2 times wire.Server.ServeH2 from outside.
type timedH2 struct {
	inner h2.Handler
	tr    *tracer
}

func (h timedH2) ServeH2(w *h2.ResponseWriter, r *h2.Request) {
	h.tr.h2Calls.Add(1)
	start := time.Now()
	h.inner.ServeH2(w, r)
	h.tr.handled(r, w.Header(), start, time.Now())
}

// timedH1 times wire.Server.ServeH1 from outside.
type timedH1 struct {
	inner interface {
		ServeH1(*h2.Request) *h2.Response
	}
	tr *tracer
}

func (h timedH1) ServeH1(r *h2.Request) *h2.Response {
	h.tr.h1Calls.Add(1)
	start := time.Now()
	resp := h.inner.ServeH1(r)
	h.tr.handled(r, resp.Header, start, time.Now())
	return resp
}

// retrainLog wraps every tenant's Trainer: it times retrains and keeps the
// versions each origin published, which must only ever grow.
type retrainLog struct {
	mu       sync.Mutex
	durs     []time.Duration
	versions map[string][]uint64
}

func (l *retrainLog) wrap(origin string, inner hintstore.Trainer) hintstore.Trainer {
	return func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		start := time.Now()
		r, err := inner(version, cancel)
		d := time.Since(start)
		l.mu.Lock()
		if l.versions == nil {
			l.versions = make(map[string][]uint64)
		}
		l.durs = append(l.durs, d)
		l.versions[origin] = append(l.versions[origin], version)
		l.mu.Unlock()
		return r, err
	}
}

// count returns how many trainer calls have finished.
func (l *retrainLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.durs)
}

// checkMonotone reports an origin whose published versions did not strictly
// increase.
func (l *retrainLog) checkMonotone() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for origin, vs := range l.versions {
		for i := 1; i < len(vs); i++ {
			if vs[i] <= vs[i-1] {
				return fmt.Errorf("%s: table version %d published after %d", origin, vs[i], vs[i-1])
			}
		}
	}
	return nil
}

// linkHandlers gives every handler span the fetch span that caused it: the
// fetch of the same URL during which the handler started.
func (t *tracer) linkHandlers() {
	byURL := make(map[string][]*span)
	for i := range t.spans {
		if s := &t.spans[i]; s.layer == layerFetch {
			byURL[s.name] = append(byURL[s.name], s)
		}
	}
	for i := range t.spans {
		h := &t.spans[i]
		if h.layer != layerHandler {
			continue
		}
		for _, f := range byURL[h.name] {
			if !h.start.Before(f.start) && !h.start.After(f.end) {
				h.parent, h.op = f.id, f.op
				break
			}
		}
	}
}

// childCover returns, per span id, how much of that span's interval its
// children cover (the union of their intervals, clipped to the parent).
func (t *tracer) childCover() map[int64]time.Duration {
	byID := make(map[int64]*span, len(t.spans))
	children := make(map[int64][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		byID[s.id] = s
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	cover := make(map[int64]time.Duration, len(children))
	for id, cs := range children {
		p := byID[id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
		var total time.Duration
		edge := p.start
		for _, c := range cs {
			from, to := c.start, c.end
			if from.Before(edge) {
				from = edge
			}
			if to.After(p.end) {
				to = p.end
			}
			if to.After(from) {
				total += to.Sub(from)
				edge = to
			}
		}
		cover[id] = total
	}
	return cover
}

// selfTimes returns, per layer, the self time of every span: its duration
// minus the interval its children cover.
func (t *tracer) selfTimes() map[int][]time.Duration {
	cover := t.childCover()
	out := make(map[int][]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		out[s.layer] = append(out[s.layer], s.dur()-cover[s.id])
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events,
// one thread per layer) and checks the file the way the repo's own traces
// are checked.
func (t *tracer) writeChrome(workload string) (string, error) {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	spans := append([]span(nil), t.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var events []event
	for tid, name := range layerNames {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]string{"name": name}})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Tid < events[j].Tid })
	if len(spans) > 0 {
		t0 := spans[0].start
		for _, s := range spans {
			events = append(events, event{
				Name: s.name, Ph: "X", Pid: 1, Tid: s.layer,
				Ts:  float64(s.start.Sub(t0)) / float64(time.Microsecond),
				Dur: float64(s.dur()) / float64(time.Microsecond),
				Args: map[string]string{
					"id": fmt.Sprint(s.id), "parent": fmt.Sprint(s.parent), "op": fmt.Sprint(s.op),
				},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return "", err
	}
	if err := obs.CheckPerfetto(data); err != nil {
		return "", fmt.Errorf("trace-%s: %w", workload, err)
	}
	path := filepath.Join(outDir(), "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// reset drops what warm-up recorded, so the pass counts only its own
// operations.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{&t.dials, &t.reads, &t.writes, &t.bytesIn, &t.bytesOut,
		&t.h2Calls, &t.h1Calls, &t.rootDocs, &t.hintBytes} {
		c.Store(0)
	}
}
