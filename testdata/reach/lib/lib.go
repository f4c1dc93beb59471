// Package lib plants five findings for the reachability audit (a dead
// function, the helper only it calls, a function only a test calls, a
// Config field nothing writes, and a field of a plain struct nothing
// writes) among patterns the audit must exempt.
package lib

import (
	"encoding/json"
	"errors"
	"sync/atomic"
)

// Config's Unset is read below but written nowhere: a knob. Name is
// JSON-tagged, so reflection may write it.
type Config struct {
	Set   int
	Unset int
	Name  string `json:"name"`
}

// Stats is a plain exported struct. Hits is read but written nowhere: a
// knob. Calls is written only through its pointer-receiver Add, which
// counts as a write.
type Stats struct {
	Hits  int
	Calls atomic.Int64
}

// Queue implements heap.Interface; only container/heap calls its methods.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *Queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// wrapped is only ever unwrapped by errors.Is.
type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w wrapped) Unwrap() error { return w.err }

// timeout follows net.Error's convention without naming it.
type timeout struct{}

func (timeout) Error() string   { return "timeout" }
func (timeout) Timeout() bool   { return true }
func (timeout) Temporary() bool { return true }

// base's field is only ever reached through outer.
type base struct{ n int }

type outer struct{ base }

// record's field is written only by encoding/json.
type record struct {
	ID int `json:"id"`
}

// cell is keyed positionally and used as a map key.
type cell struct{ a, b int }

// Run uses everything above.
func Run(c Config) int {
	err := error(wrapped{timeout{}})
	var o outer
	o.n = c.Set + c.Unset
	if errors.Is(err, timeout{}) {
		o.n++
	}
	var r record
	if json.Unmarshal([]byte(`{"id":1}`), &r) == nil {
		o.n += r.ID
	}
	seen := map[cell]int{}
	seen[cell{1, 2}]++
	var s Stats
	s.Calls.Add(1)
	return o.n + seen[cell{1, 2}] + s.Hits
}

func dead() int { return helperOfDead() }

func helperOfDead() int { return 1 }

func testOnly() int { return 2 }
