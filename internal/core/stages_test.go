package core

import (
	"math/rand"
	"slices"
	"testing"

	"vroom/internal/hints"
)

func TestStagesRefilesQueuedItem(t *testing.T) {
	var g Stages[string]
	if !g.Want("root", hints.High) {
		t.Fatal("root not issued")
	}
	for _, w := range []struct {
		item string
		p    hints.Priority
	}{
		{"a", hints.Low},
		{"b", hints.Low},
		{"a", hints.Semi}, // the upgrade: re-filed under Semi
		{"a", hints.Low},  // a downgrade attempt is ignored
	} {
		if g.Want(w.item, w.p) {
			t.Fatalf("Want(%s, %v) issued with only High open", w.item, w.p)
		}
	}
	if p, ok := g.Queued("a"); !ok || p != hints.Semi {
		t.Errorf("a queued under %v (queued=%v), want semi", p, ok)
	}
	got := g.Drain()
	if want := [3][]string{nil, {"a"}, {"b"}}; !slices.Equal(got[0], want[0]) ||
		!slices.Equal(got[1], want[1]) || !slices.Equal(got[2], want[2]) {
		t.Errorf("Drain() = %v, want %v", got, want)
	}
}

// TestStagesModel drives the gate with seeded random wants, arrivals and
// spurious arrivals, as both adapters do, and checks every invariant after
// every step.
func TestStagesModel(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newGateModel(t)
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				m.want(rng.Intn(modelKeys), hints.Priority(rng.Intn(3)))
			case r < 9:
				if out := m.outKeys(); len(out) > 0 {
					m.arrive(out[rng.Intn(len(out))])
				}
			default:
				m.arrive(rng.Intn(modelKeys)) // possibly not out: ignored
			}
		}
		m.finish(seed%2 == 0)
	}
}

// FuzzStages runs the model's checker over byte-driven operation sequences.
func FuzzStages(f *testing.F) {
	f.Add([]byte{0, 0x21, 2, 0, 0, 0x13, 1, 0x05, 2, 1})
	f.Add([]byte{1, 0x20, 1, 0x10, 1, 0x02, 2, 0, 3, 0, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newGateModel(t)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 3 {
			case 0:
				m.want(arg%modelKeys, hints.Priority(arg/modelKeys%3))
			case 1:
				if out := m.outKeys(); len(out) > 0 {
					m.arrive(out[arg%len(out)])
				}
			default:
				m.arrive(arg % modelKeys)
			}
		}
		m.finish(len(ops)%2 == 1)
	})
}

const (
	modelKeys = 10
	modelRoot = 0
)

// gateModel drives a Stages gate the way StagedScheduler and wire.Client do
// — the root is wanted once, at High; every arrival is followed by a release
// loop — and checks the gate against what it has observed. The root is
// wanted at a random step, so other High fetches can come and go before it.
//
//   - staging: a stage opens only when its condition holds (Semi: root
//     arrived, no High out; Low: no High or Semi out), and never stays shut
//     once it holds; Want issues only at an open class;
//   - a key is never released while it is already out (it goes out again
//     only after it arrived, as a given-up fetch does in the simulator);
//   - a queued key's class never becomes less urgent;
//   - FIFO: a stage releases its queue in filing order;
//   - liveness: once the root is wanted, nothing is queued while nothing
//     is out.
type gateModel struct {
	t          testing.TB
	g          Stages[int]
	open       hints.Priority
	rootWanted bool
	root       bool                   // arrived
	out        map[int]hints.Priority // released and not yet arrived
	done       map[int]bool           // released and arrived
	fifo       [3][]int               // queued keys per class, in filing order
}

func newGateModel(t testing.TB) *gateModel {
	return &gateModel{t: t, out: map[int]hints.Priority{}, done: map[int]bool{}}
}

func (m *gateModel) queued(k int) (hints.Priority, bool) {
	for p, q := range m.fifo {
		if slices.Contains(q, k) {
			return hints.Priority(p), true
		}
	}
	return 0, false
}

func (m *gateModel) outKeys() []int {
	keys := make([]int, 0, len(m.out))
	for k := range m.out {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (m *gateModel) outIn(p hints.Priority) int {
	n := 0
	for _, c := range m.out {
		if c == p {
			n++
		}
	}
	return n
}

func (m *gateModel) want(k int, p hints.Priority) {
	if k == modelRoot {
		if m.rootWanted {
			return
		}
		m.rootWanted, p = true, hints.High
	}
	old, wasQueued := m.queued(k)
	_, wasOut := m.out[k]
	issued := m.g.Want(k, p)
	switch {
	case wasOut:
		if issued {
			m.t.Fatalf("Want(%d, %v) issued a key already out", k, p)
		}
	case p <= m.open:
		if !issued {
			m.t.Fatalf("Want(%d, %v) with %v open not issued", k, p, m.open)
		}
		if wasQueued {
			m.fifo[old] = slices.DeleteFunc(m.fifo[old], func(x int) bool { return x == k })
		}
		m.out[k] = p
		delete(m.done, k)
	case wasQueued:
		if issued {
			m.t.Fatalf("Want(%d, %v) issued a key queued under %v with %v open", k, p, old, m.open)
		}
		if p < old {
			m.fifo[old] = slices.DeleteFunc(m.fifo[old], func(x int) bool { return x == k })
			m.fifo[p] = append(m.fifo[p], k)
		}
		if c, _ := m.g.Queued(k); c > old {
			m.t.Fatalf("key %d lowered from %v to %v", k, old, c)
		}
	case m.done[k]:
		if issued {
			m.t.Fatalf("Want(%d, %v) issued an arrived key with %v open", k, p, m.open)
		}
	default:
		if issued {
			m.t.Fatalf("Want(%d, %v) issued a new key with %v open", k, p, m.open)
		}
		m.fifo[p] = append(m.fifo[p], k)
	}
	m.release() // wants never open a stage
}

func (m *gateModel) arrive(k int) {
	m.g.Arrived(k)
	if _, ok := m.out[k]; ok {
		delete(m.out, k)
		m.done[k] = true
		if k == modelRoot {
			m.g.RootArrived()
			m.root = true
		}
	}
	m.release()
}

func (m *gateModel) release() {
	for {
		canSemi := m.open == hints.High && m.root && m.outIn(hints.High) == 0
		canLow := m.open == hints.Semi && m.outIn(hints.High) == 0 && m.outIn(hints.Semi) == 0
		p, items, ok := m.g.Release()
		if !ok {
			if canSemi || canLow {
				m.t.Fatalf("stage after %v stayed shut (root=%v, out=%v)", m.open, m.root, m.out)
			}
			break
		}
		if !canSemi && !canLow || p != m.open+1 {
			m.t.Fatalf("opened %v after %v (root=%v, out=%v)", p, m.open, m.root, m.out)
		}
		m.open = p
		if !slices.Equal(items, m.fifo[p]) {
			m.t.Fatalf("%v released %v, want filing order %v", p, items, m.fifo[p])
		}
		for _, k := range items {
			if _, dup := m.out[k]; dup {
				m.t.Fatalf("key %d released while already out", k)
			}
			m.out[k] = p
			delete(m.done, k)
		}
		m.fifo[p] = nil
	}
	m.check()
}

func (m *gateModel) check() {
	n := 0
	for k := 0; k < modelKeys; k++ {
		wp, wok := m.queued(k)
		gp, gok := m.g.Queued(k)
		if wok != gok || wok && wp != gp {
			m.t.Fatalf("key %d: gate says queued=%v under %v, model %v under %v", k, gok, gp, wok, wp)
		}
		if wok {
			n++
		}
	}
	if got := m.g.Pending(); got != n {
		m.t.Fatalf("Pending() = %d, model holds %d", got, n)
	}
	if m.rootWanted && len(m.out) == 0 && n > 0 {
		m.t.Fatalf("nothing out but %d queued at %v: the load would hang", n, m.open)
	}
}

// finish ends the load one of two ways: a deadline drains whatever is still
// queued (which must come back in filing order), or every outstanding fetch
// arrives and nothing may be left to drain.
func (m *gateModel) finish(deadline bool) {
	m.want(modelRoot, hints.High)
	if !deadline {
		for out := m.outKeys(); len(out) > 0; out = m.outKeys() {
			m.arrive(out[0])
		}
	}
	got := m.g.Drain()
	for p := range got {
		if !slices.Equal(got[p], m.fifo[p]) {
			m.t.Fatalf("drained %v under %v, want %v", got[p], hints.Priority(p), m.fifo[p])
		}
	}
	m.fifo = [3][]int{}
	m.check()
}
