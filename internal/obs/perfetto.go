package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// traceEvent is one entry of the Chrome trace-event JSON format, the
// denominator understood by Perfetto and chrome://tracing.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	ID   string            `json:"id,omitempty"`
	S    string            `json:"s,omitempty"`
	Bp   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
	// seq is the generation order (outer spans before inner), used only to
	// break ts ties so same-tid B/E sequences stay properly nested.
	seq int `json:"-"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

const tracePid = 1

// WritePerfetto renders a recording as Chrome trace-event JSON: one thread
// per track (main thread, load, sched, server, and one per simulated
// connection). Spans that nest cleanly within their track become B/E
// duration events; overlapping spans (concurrent h2 streams on one
// connection, parallel fetches on the load track) become async b/e pairs,
// which the trace viewers render on parallel sub-tracks. Events are written
// in non-decreasing ts order and every B has a matching E.
func WritePerfetto(w io.Writer, rec *Recording) error {
	start := rec.Start
	us := func(t time.Time) int64 { return t.Sub(start).Microseconds() }

	// Stable tid per track, in first-seen order; main first if present.
	tids := make(map[string]int)
	var trackOrder []string
	tid := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		trackOrder = append(trackOrder, track)
		return id
	}
	tid(TrackMain)

	end := deriveEnd(rec)
	spans := spanIntervalsWithArgs(rec, end)

	// Decide per span whether it nests cleanly in its track: process spans
	// sorted by (start asc, end desc) with a stack of open end-times.
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].from.Equal(spans[j].from) {
			return spans[i].from.Before(spans[j].from)
		}
		return spans[i].to.After(spans[j].to)
	})
	stacks := make(map[string][]time.Time)
	for i := range spans {
		sp := &spans[i]
		st := stacks[sp.track]
		for len(st) > 0 && !st[len(st)-1].After(sp.from) {
			st = st[:len(st)-1]
		}
		if len(st) == 0 || !sp.to.After(st[len(st)-1]) {
			sp.nested = true
			st = append(st, sp.to)
		}
		stacks[sp.track] = st
	}

	var evs []traceEvent
	for seq, sp := range spans {
		args := argMap(sp.beginArgs)
		endArgs := argMap(sp.endArgs)
		if us(sp.to) == us(sp.from) {
			// Zero-duration span at the file's microsecond resolution: an
			// instant keeps B/E ordering trivial (a pair sharing one ts would
			// sort close-before-open below).
			for k, v := range endArgs {
				if args == nil {
					args = make(map[string]string)
				}
				args[k] = v
			}
			evs = append(evs, traceEvent{Name: sp.name, Ph: "i", Ts: us(sp.from),
				Pid: tracePid, Tid: tid(sp.track), S: "t", Args: args, seq: seq})
			continue
		}
		if sp.nested {
			evs = append(evs, traceEvent{Name: sp.name, Ph: "B", Ts: us(sp.from),
				Pid: tracePid, Tid: tid(sp.track), Args: args, seq: seq})
			evs = append(evs, traceEvent{Name: sp.name, Ph: "E", Ts: us(sp.to),
				Pid: tracePid, Tid: tid(sp.track), Args: endArgs, seq: seq})
			continue
		}
		id := fmt.Sprintf("0x%x", sp.id)
		evs = append(evs, traceEvent{Name: sp.name, Ph: "b", Ts: us(sp.from),
			Pid: tracePid, Tid: tid(sp.track), Cat: "vroom", ID: id, Args: args, seq: seq})
		evs = append(evs, traceEvent{Name: sp.name, Ph: "e", Ts: us(sp.to),
			Pid: tracePid, Tid: tid(sp.track), Cat: "vroom", ID: id, Args: endArgs, seq: seq})
	}
	for _, ev := range rec.Events {
		if ev.Kind != KindInstant {
			continue
		}
		evs = append(evs, traceEvent{Name: ev.Name, Ph: "i", Ts: us(ev.At),
			Pid: tracePid, Tid: tid(ev.Track), S: "t", Args: argMap(ev.Args)})
	}

	// Flow events stitch spans sharing a propagated ArgFlow value (one
	// client fetch and the server work it caused, see tracecontext.go): the
	// earliest span anchors an "s" start, every later one an "f" finish
	// bound to its enclosing slice (bp "e"). Flow IDs seen on only one span
	// — the other side wasn't traced or wasn't merged in — emit nothing, so
	// the file never carries a dangling flow start.
	flows := make(map[string][]int)
	var flowOrder []string
	for i := range spans {
		f := ""
		for _, a := range spans[i].beginArgs {
			if a.Key == ArgFlow {
				f = a.Val
				break
			}
		}
		if f == "" {
			continue
		}
		if len(flows[f]) == 0 {
			flowOrder = append(flowOrder, f)
		}
		flows[f] = append(flows[f], i)
	}
	for _, f := range flowOrder {
		idxs := flows[f]
		if len(idxs) < 2 {
			continue
		}
		for k, i := range idxs {
			sp := spans[i]
			ev := traceEvent{Name: "flow", Ts: us(sp.from), Pid: tracePid,
				Tid: tid(sp.track), Cat: "vroom-flow", ID: f, seq: i}
			if k == 0 {
				ev.Ph = "s"
			} else {
				ev.Ph = "f"
				ev.Bp = "e"
			}
			evs = append(evs, ev)
		}
	}

	// Global ts order. Ties: closes before opens; among closes the
	// inner span (later seq) first, among opens the outer span (earlier
	// seq) first — keeping same-tid B/E sequences properly nested.
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		ra, rb := phRank(a.Ph), phRank(b.Ph)
		if ra != rb {
			return ra < rb
		}
		if ra == 0 { // both closes: inner first
			return a.seq > b.seq
		}
		return a.seq < b.seq // both opens (or instants): outer first
	})

	out := traceFile{DisplayTimeUnit: "ms"}
	for _, track := range trackOrder {
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tids[track],
			Args: map[string]string{"name": track},
		})
	}
	out.TraceEvents = append(out.TraceEvents, evs...)
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func phRank(ph string) int {
	switch ph {
	case "E", "e":
		return 0
	case "i":
		return 1
	case "s":
		return 3 // flow start: after the B it anchors to
	case "f":
		return 4 // flow finish: after its own B, and after any same-ts "s"
	default: // B, b
		return 2
	}
}

func argMap(args []Arg) map[string]string {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// argSpan extends spanInterval with the raw args of both endpoints.
type argSpan struct {
	track, name string
	id          uint64
	from, to    time.Time
	beginArgs   []Arg
	endArgs     []Arg
	nested      bool
}

// spanIntervalsWithArgs pairs Begin/End events keeping their args.
// Unmatched begins close at the trace end.
func spanIntervalsWithArgs(rec *Recording, end time.Time) []argSpan {
	open := make(map[uint64]Event)
	var out []argSpan
	for _, ev := range rec.Events {
		switch ev.Kind {
		case KindBegin:
			open[ev.ID] = ev
		case KindEnd:
			b, ok := open[ev.ID]
			if !ok {
				continue
			}
			delete(open, ev.ID)
			out = append(out, argSpan{track: b.Track, name: b.Name, id: b.ID,
				from: b.At, to: ev.At, beginArgs: b.Args, endArgs: ev.Args})
		}
	}
	for _, b := range open {
		to := end
		if to.Before(b.At) {
			to = b.At
		}
		out = append(out, argSpan{track: b.Track, name: b.Name, id: b.ID,
			from: b.At, to: to, beginArgs: b.Args})
	}
	return out
}
