package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Cross-process trace propagation. A loading client mints one trace ID per
// page load and one span ID per fetch (the fetch span's own event ID), and
// sends both to the server in the TraceHeader request header. The server
// adopts the pair: every span and instant it emits for that request carries
// the caller's context in ArgFlow/ArgTrace args, so a client recording and
// a server recording merged by Merge can be stitched back into one causal
// timeline by WritePerfetto's flow events.

// TraceHeader is the request header that carries the trace context, on h1
// and h2 alike. The value is TraceContext.String():
// "<trace-16hex>-<span-16hex>".
const TraceHeader = "vroom-trace"

// Event arg keys used to stitch recordings together.
const (
	// ArgFlow holds a TraceContext string identifying one client fetch.
	// WritePerfetto links every span sharing a flow value with Chrome
	// flow events (ph "s"/"f").
	ArgFlow = "flow"
	// ArgTrace holds the 16-hex per-load trace ID shared by every fetch
	// of one page load.
	ArgTrace = "trace"
)

// TraceContext is a propagated (trace ID, span ID) pair. The zero value —
// Trace == 0 — means "no context".
type TraceContext struct {
	Trace uint64 // per-load trace ID
	Span  uint64 // per-fetch span ID (the client fetch span's event ID)
}

// String renders the wire form, "<trace-16hex>-<span-16hex>" — also used
// verbatim as the ArgFlow value.
func (tc TraceContext) String() string {
	return fmt.Sprintf("%016x-%016x", tc.Trace, tc.Span)
}

// TraceID renders just the trace half for ArgTrace args and log lines.
func (tc TraceContext) TraceID() string { return fmt.Sprintf("%016x", tc.Trace) }

// ParseTraceHeader parses a TraceHeader value. ok is false for anything
// but two dash-separated 16-digit lowercase-hex halves with a nonzero
// trace ID — malformed headers are ignored, never an error, because trace
// context is advisory.
func ParseTraceHeader(v string) (tc TraceContext, ok bool) {
	if len(v) != 33 || v[16] != '-' {
		return TraceContext{}, false
	}
	trace, ok1 := parseHex16(v[:16])
	span, ok2 := parseHex16(v[17:])
	if !ok1 || !ok2 || trace == 0 {
		return TraceContext{}, false
	}
	return TraceContext{Trace: trace, Span: span}, true
}

func parseHex16(s string) (uint64, bool) {
	var x uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			x = x<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			x = x<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return x, true
}

// traceIDState seeds trace IDs with the process start time so concurrent
// processes (a storm of vroom-load workers against one server) almost
// never collide, then strides per mint.
var traceIDState atomic.Uint64

func init() { traceIDState.Store(uint64(time.Now().UnixNano())) }

// NewTraceID mints a process-unique, never-zero trace ID: a splitmix64
// finalizer over a strided counter, so IDs from one process are distinct
// and IDs across processes are spread over the full 64-bit space.
func NewTraceID() uint64 {
	x := traceIDState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
