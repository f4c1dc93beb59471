// Package obs is the structured tracing layer threaded through the whole
// simulated load path: netsim connection and stream lifecycle, browser
// main-thread tasks, scheduler stage gates and holds, server push decisions
// and hint emission, and resolver hint resolution.
//
// The design constraint is zero overhead when disabled. A nil *Tracer is the
// disabled fast path — every method on it no-ops without allocating — so the
// instrumented packages hold a possibly-nil *Tracer and call it
// unconditionally. Call sites that would build a name string or argument
// list guard with Enabled() first.
//
// Recorded events feed three consumers: the blame decomposition
// (Blame, blame.go), the Chrome trace-event export (WritePerfetto,
// perfetto.go), and ad-hoc tests that assert on load structure.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind distinguishes the three event shapes.
type Kind uint8

// Event kinds.
const (
	// KindBegin opens a span; a matching KindEnd with the same ID closes
	// it.
	KindBegin Kind = iota
	KindEnd
	// KindInstant is a point event.
	KindInstant
)

func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "B"
	case KindEnd:
		return "E"
	default:
		return "I"
	}
}

// Well-known track names. Connection tracks are derived per connection as
// "conn:<origin>#<seq>" by netsim.
const (
	// TrackMain is the browser main thread: parse/eval/layout task slices.
	TrackMain = "main"
	// TrackLoad carries per-resource fetch lifecycle events (requires,
	// fetch attempts, backoffs, arrivals).
	TrackLoad = "load"
	// TrackSched carries scheduler stage gates and per-resource holds.
	TrackSched = "sched"
	// TrackServer carries server-side decisions: hint resolution and
	// emission, push decisions.
	TrackServer = "server"
	// TrackNet carries network events not attributable to one connection
	// (e.g. a refused connect).
	TrackNet = "net"
)

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val string
}

// Event is one recorded trace event.
type Event struct {
	Kind  Kind
	Track string
	Name  string
	At    time.Time
	// ID links a KindBegin to its KindEnd. Zero for instants.
	ID   uint64
	Args []Arg
}

// Arg returns the value of a named argument ("" if absent).
func (e Event) Arg(key string) string {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Sink receives events as they are emitted. Implementations must not retain
// the Args slice beyond the call unless they own it (the Tracer hands over
// ownership, so retaining is fine for recording sinks).
type Sink interface {
	Emit(Event)
}

// Recording is the in-memory Sink: it stores every event, in emission
// order. Events carry absolute simulated timestamps; Start anchors them for
// consumers that want offsets from load start.
type Recording struct {
	Start  time.Time
	Events []Event
}

// Emit implements Sink.
func (r *Recording) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Len returns the number of recorded events.
func (r *Recording) Len() int { return len(r.Events) }

// LiveRecording is the Sink for wall-clock tracers whose consumer reads
// while emitters may still be running: a live wire load's transport
// goroutines (read loops, server handlers) drain asynchronously after the
// load returns, so a plain Recording read at that point races with their
// final events. Emit and Snapshot serialize on one lock; Snapshot returns a
// point-in-time copy, like a metrics scrape — events emitted after it are
// simply not in that snapshot.
type LiveRecording struct {
	// Start anchors event offsets, as in Recording. Set before tracing.
	Start time.Time

	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (r *LiveRecording) Emit(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Snapshot returns a race-free copy of everything emitted so far, ready for
// WritePerfetto.
func (r *LiveRecording) Snapshot() *Recording {
	r.mu.Lock()
	events := make([]Event, len(r.events))
	copy(events, r.events)
	r.mu.Unlock()
	return &Recording{Start: r.Start, Events: events}
}

// Tracer emits spans and instants against a clock source. A nil *Tracer is
// the disabled fast path: every method no-ops.
//
// Two clock sources exist. New takes a virtual clock (the event engine's
// Now) and assumes a single emitting goroutine, like the simulation that
// drives it. NewWall uses the monotonic wall clock and is safe for
// concurrent use — the live wire stack emits from fetch goroutines, read
// loops, and handler goroutines at once.
type Tracer struct {
	now  func() time.Time
	sink Sink
	// ids is shared between a tracer and its Forks so span IDs stay unique
	// across every recording they feed.
	ids *atomic.Uint64
}

// New builds a tracer over a virtual clock source and a sink. now is
// typically the event engine's Now; emission is single-goroutine.
func New(now func() time.Time, sink Sink) *Tracer {
	return &Tracer{now: now, sink: sink, ids: new(atomic.Uint64)}
}

// NewWall builds a tracer over the monotonic wall clock for live wire
// loads. It is safe for concurrent use: span IDs are allocated atomically
// and the sink is serialized behind a lock, so a plain Recording can
// collect events from many goroutines.
func NewWall(sink Sink) *Tracer {
	return &Tracer{now: time.Now, sink: &lockedSink{sink: sink}, ids: new(atomic.Uint64)}
}

// Fork derives a tracer that emits every event both to the receiver's sink
// and to extra, sharing the receiver's clock and span-ID allocator — so
// recordings collected from a tracer and any of its forks can be merged
// without ID collisions. The per-load flight recorder is the intended
// extra sink. extra must be safe for the same concurrency as the parent's
// sink (it is NOT wrapped in a lock; the lock-free FlightRecorder
// qualifies). Forking a nil tracer returns nil.
func (t *Tracer) Fork(extra Sink) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{now: t.now, sink: teeSink{a: t.sink, b: extra}, ids: t.ids}
}

// teeSink fans one emission out to two sinks.
type teeSink struct{ a, b Sink }

func (s teeSink) Emit(ev Event) {
	s.a.Emit(ev)
	s.b.Emit(ev)
}

// lockedSink serializes Emit for tracers shared across goroutines.
type lockedSink struct {
	mu   sync.Mutex
	sink Sink
}

func (s *lockedSink) Emit(ev Event) {
	s.mu.Lock()
	s.sink.Emit(ev)
	s.mu.Unlock()
}

// Enabled reports whether the tracer records anything. Call sites use it to
// skip building event names and args on the disabled path.
func (t *Tracer) Enabled() bool { return t != nil }

// Begin opens a span at the current time.
func (t *Tracer) Begin(track, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	return t.BeginAt(t.now(), track, name, args...)
}

// BeginAt opens a span at an explicit time. Simulated components often know
// a span's boundaries ahead of the clock (a handshake completes at a
// computed instant); emitting with explicit timestamps avoids polluting the
// event queue with trace-only events. Consumers sort by time.
func (t *Tracer) BeginAt(at time.Time, track, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	id := t.ids.Add(1)
	t.sink.Emit(Event{Kind: KindBegin, Track: track, Name: name, At: at, ID: id, Args: args})
	return Span{t: t, id: id, track: track, name: name}
}

// Instant emits a point event at the current time.
func (t *Tracer) Instant(track, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.InstantAt(t.now(), track, name, args...)
}

// InstantAt emits a point event at an explicit time.
func (t *Tracer) InstantAt(at time.Time, track, name string, args ...Arg) {
	if t == nil {
		return
	}
	t.sink.Emit(Event{Kind: KindInstant, Track: track, Name: name, At: at, Args: args})
}

// Span is an open interval. The zero Span (from a nil tracer) no-ops on
// End.
type Span struct {
	t     *Tracer
	id    uint64
	track string
	name  string
}

// Active reports whether the span will record its End (i.e. tracing was
// enabled when it began).
func (s Span) Active() bool { return s.t != nil }

// End closes the span at the current time.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	s.EndAt(s.t.now(), args...)
}

// EndAt closes the span at an explicit time.
func (s Span) EndAt(at time.Time, args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.sink.Emit(Event{Kind: KindEnd, Track: s.track, Name: s.name, At: at, ID: s.id, Args: args})
}
