package core

import "vroom/internal/hints"

// Stages is the stage gate of Vroom's client scheduler (§4.3, §5.2): the one
// state machine behind both the simulator's StagedScheduler and the wire
// client.
//
// High items go out as soon as they are wanted. Semi items wait until the
// root has arrived and no High fetch is outstanding; Low items until no High
// or Semi fetch is. Each class goes out in the order it was filed. A queued
// item wanted again at a more urgent class moves up to it, or goes out at
// once if that class is open; its class never moves down.
//
// The gate only decides and counts: callers issue what Want and Release
// return and report every arrival. The zero value is a gate at the High
// stage.
type Stages[T comparable] struct {
	open    hints.Priority // least urgent class allowed out
	root    bool
	pending [3][]T // FIFO queue per class
	out     [3]int // outstanding items per class
	items   map[T]gated
}

// gated is an item's class — the one it waits or went out under — and
// state.
type gated struct {
	class hints.Priority
	state uint8
}

const (
	itemWaiting uint8 = iota
	itemOut
	itemArrived
)

// Want asks for item at class p and reports whether to issue it now; it then
// counts as outstanding until Arrived. An item already out is left alone.
// One that has arrived goes out again if p is open — a fetch the caller gave
// up on.
func (g *Stages[T]) Want(item T, p hints.Priority) bool {
	if g.items == nil {
		g.items = make(map[T]gated)
	}
	st, known := g.items[item]
	switch {
	case known && st.state == itemOut:
		return false
	case p <= g.open:
		if known && st.state == itemWaiting {
			g.unqueue(item, st.class)
		}
		g.issue(item, p)
		return true
	case known && p >= st.class:
		return false // already filed as urgently, or went out under an open class
	case known:
		g.unqueue(item, st.class) // move up
	}
	g.items[item] = gated{class: p, state: itemWaiting}
	g.pending[p] = append(g.pending[p], item)
	return false
}

// Arrived retires an outstanding item: it arrived, failed for good, or the
// caller chose not to send it. Other items are ignored.
func (g *Stages[T]) Arrived(item T) {
	if st, ok := g.items[item]; ok && st.state == itemOut {
		g.out[st.class]--
		g.items[item] = gated{class: st.class, state: itemArrived}
	}
}

// RootArrived records the root document's arrival, which Semi waits for.
func (g *Stages[T]) RootArrived() { g.root = true }

// Release opens the next stage if its condition holds and returns its class
// and queue, in FIFO order and now outstanding. Callers repeat until ok is
// false: a Semi stage with nothing to send lets Low open at once.
func (g *Stages[T]) Release() (p hints.Priority, items []T, ok bool) {
	switch {
	case g.open == hints.High && g.root && g.out[hints.High] == 0:
	case g.open == hints.Semi && g.out[hints.High] == 0 && g.out[hints.Semi] == 0:
	default:
		return g.open, nil, false
	}
	g.open++
	items = g.pending[g.open]
	g.pending[g.open] = nil
	for _, it := range items {
		g.issue(it, g.open)
	}
	return g.open, items, true
}

// Drain empties the queues and returns what they held, per class in FIFO
// order.
func (g *Stages[T]) Drain() [3][]T {
	queued := g.pending
	g.pending = [3][]T{}
	for _, q := range queued {
		for _, it := range q {
			delete(g.items, it)
		}
	}
	return queued
}

// Queued reports the class a queued item waits under.
func (g *Stages[T]) Queued(item T) (hints.Priority, bool) {
	st, ok := g.items[item]
	return st.class, ok && st.state == itemWaiting
}

// Pending returns how many items are queued.
func (g *Stages[T]) Pending() int {
	return len(g.pending[hints.High]) + len(g.pending[hints.Semi]) + len(g.pending[hints.Low])
}

func (g *Stages[T]) issue(item T, p hints.Priority) {
	g.items[item] = gated{class: p, state: itemOut}
	g.out[p]++
}

func (g *Stages[T]) unqueue(item T, p hints.Priority) {
	for i, x := range g.pending[p] {
		if x == item {
			g.pending[p] = append(g.pending[p][:i], g.pending[p][i+1:]...)
			return
		}
	}
}
