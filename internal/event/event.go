// Package event implements a discrete-event simulation engine.
//
// An Engine owns a virtual clock and a priority queue of scheduled events.
// Running the engine repeatedly pops the earliest event, advances the clock
// to its deadline, and invokes its callback. Callbacks may schedule further
// events. The engine is single-threaded by design: simulations built on it
// are deterministic.
package event

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback. It is returned by Engine.Schedule and can be
// cancelled until it fires.
type Event struct {
	at     time.Time
	seq    uint64 // tie-break: FIFO among equal deadlines
	fn     func()
	index  int // heap index, -1 once removed
	cancel bool
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Engine struct {
	now   time.Time
	queue eventQueue
	seq   uint64
}

// New returns an engine whose virtual clock starts at start.
func New(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Time { return e.now }

// Schedule registers fn to run at absolute time at. Scheduling in the past is
// an error in the simulation logic; the event is clamped to the current time
// so that it fires next, preserving progress. name labels the event at its
// call site; the engine does not keep it.
func (e *Engine) Schedule(at time.Time, name string, fn func()) *Event {
	if at.Before(e.now) {
		at = e.now
	}
	e.seq++
	ev := &Event{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleAfter registers fn to run d after the current simulation time.
func (e *Engine) ScheduleAfter(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), name, fn)
}

// Cancel prevents ev from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancel || ev.index < 0 {
		if ev != nil {
			ev.cancel = true
		}
		return
	}
	ev.cancel = true
	// Lazy deletion: the event stays in the heap and is skipped when popped.
}

// Step executes the earliest pending event. It returns false when no events
// remain.
func (e *Engine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.cancel {
			continue
		}
		e.advance(ev.at)
		ev.fn()
		return true
	}
	return false
}

// Run executes events until none remain or limit events have fired.
// A limit of 0 means no limit. It returns the number of events fired during
// this call and an error if the limit was hit (which usually indicates a
// livelock in the simulated system).
func (e *Engine) Run(limit uint64) (uint64, error) {
	var n uint64
	for e.Step() {
		n++
		if limit > 0 && n >= limit {
			if e.queue.Len() > 0 {
				return n, fmt.Errorf("event: run limit %d reached with %d events pending", limit, e.queue.Len())
			}
			return n, nil
		}
	}
	return n, nil
}

// RunUntil executes events with deadlines <= t, then advances the clock to t.
func (e *Engine) RunUntil(t time.Time) {
	for e.queue.Len() > 0 {
		// Peek.
		ev := e.queue[0]
		if ev.cancel {
			heap.Pop(&e.queue)
			continue
		}
		if ev.at.After(t) {
			break
		}
		e.Step()
	}
	e.advance(t)
}

// advance moves the clock to t unless t is in the past: the clock never runs
// backwards.
func (e *Engine) advance(t time.Time) {
	if t.After(e.now) {
		e.now = t
	}
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
