// Package overload implements the admission-control plane a hint-serving
// replay server needs to degrade gracefully instead of stalling clients
// when request pressure exceeds capacity: a bounded-concurrency gate with a
// LIFO load-shedding wait queue, and a degradation ladder derived from the
// gate's occupancy that sheds optional work (push first, then hints) long
// before the response itself is at risk.
//
// LIFO queueing is deliberate: under sustained overload a FIFO queue serves
// exactly the requests whose clients have already timed out, turning every
// slot into wasted work. Serving the newest waiter first keeps tail latency
// flat for the requests that still have a live client, and the oldest
// waiter — the one most likely to be abandoned — is the one shed when the
// queue overflows.
package overload

import (
	"errors"
	"log/slog"
	"sync"
	"time"
)

// Level is a rung on the degradation ladder. Higher levels shed more
// optional work; the response body itself is never shed by the ladder (a
// request is only rejected outright by admission when the wait queue
// overflows or the client's deadline cannot be met).
type Level int

// Ladder rungs, in increasing severity.
const (
	// LevelNormal serves full service: hints and push.
	LevelNormal Level = iota
	// LevelShedPush drops server push (speculative bytes first).
	LevelShedPush
	// LevelShedHints drops dependency hints too; only the response remains.
	LevelShedHints
)

func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelShedPush:
		return "shed-push"
	case LevelShedHints:
		return "shed-hints"
	}
	return "unknown"
}

// ErrShed reports a request rejected by admission control: either the LIFO
// queue overflowed onto it or its deadline expired while it waited. Callers
// answer with a fast retryable error (503), never by hanging.
var ErrShed = errors.New("overload: request shed")

// ErrDraining reports a gate that is no longer admitting work.
var ErrDraining = errors.New("overload: gate draining")

// Config sizes a Gate. The zero value of any field selects its default.
type Config struct {
	// MaxConcurrent bounds requests inside the gate at once (default 64).
	MaxConcurrent int
	// MaxQueue bounds waiting requests; an arrival beyond it sheds the
	// oldest waiter (default 2*MaxConcurrent).
	MaxQueue int
	// MaxWait bounds one request's time in the queue when it carries no
	// deadline of its own (default 1s).
	MaxWait time.Duration
	// Log, when non-nil, receives structured gate events: individual sheds
	// at Debug, drain at Info.
	Log *slog.Logger
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return 64
}

func (c Config) maxQueue() int {
	if c.MaxQueue > 0 {
		return c.MaxQueue
	}
	return 2 * c.maxConcurrent()
}

func (c Config) maxWait() time.Duration {
	if c.MaxWait > 0 {
		return c.MaxWait
	}
	return time.Second
}

// waiter is one queued request. The slot channel hands it admission; shed
// hands it rejection. Release, Drain or an overflowing Acquire that takes a
// waiter off the queue sends on exactly one of them, after unlocking; both
// are buffered so that send never blocks.
type waiter struct {
	slot chan struct{}
	shed chan struct{}
}

// Gate is the admission controller. A nil *Gate admits everything at
// LevelNormal, so call sites need no guards.
type Gate struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queue    []*waiter // stack: newest at the tail
	draining bool

	shedTotal  int64
	admitTotal int64
	peakQueue  int
}

// NewGate returns a gate sized by cfg.
func NewGate(cfg Config) *Gate { return &Gate{cfg: cfg} }

// Acquire admits the caller, queueing LIFO when the gate is full. deadline
// zero means "no client deadline": the configured MaxWait applies. It
// returns ErrShed when the queue overflowed onto this request or the wait
// exceeded the deadline, and ErrDraining after Drain. On nil error the
// caller must Release exactly once.
func (g *Gate) Acquire(deadline time.Time) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return ErrDraining
	}
	if g.inflight < g.cfg.maxConcurrent() {
		g.inflight++
		g.admitTotal++
		g.mu.Unlock()
		return nil
	}
	// Full: queue LIFO. Overflow sheds the oldest waiter (queue head), the
	// request most likely to have lost its client already.
	var victim *waiter
	if len(g.queue) >= g.cfg.maxQueue() {
		victim = g.queue[0]
		copy(g.queue, g.queue[1:])
		g.queue = g.queue[:len(g.queue)-1]
		g.shedTotal++
	}
	w := &waiter{slot: make(chan struct{}, 1), shed: make(chan struct{}, 1)}
	g.queue = append(g.queue, w)
	if len(g.queue) > g.peakQueue {
		g.peakQueue = len(g.queue)
	}
	g.mu.Unlock()
	if victim != nil {
		victim.shed <- struct{}{}
		g.logShed("queue-overflow")
	}

	wait := g.cfg.maxWait()
	if !deadline.IsZero() {
		if d := time.Until(deadline); d < wait {
			wait = d
		}
	}
	if wait <= 0 {
		g.abandon(w)
		return ErrShed
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-w.slot:
		return nil
	case <-w.shed:
		return ErrShed
	case <-t.C:
		g.abandon(w)
		return ErrShed
	}
}

// abandon removes w from the queue after a timeout, unless a grant or shed
// raced the timer (then it honors the grant by re-releasing the slot).
func (g *Gate) abandon(w *waiter) {
	g.mu.Lock()
	for i := len(g.queue) - 1; i >= 0; i-- {
		if g.queue[i] == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.shedTotal++
			g.mu.Unlock()
			g.logShed("wait-expired")
			return
		}
	}
	g.mu.Unlock()
	// Not queued anymore: whoever dequeued w is sending a grant or a shed,
	// possibly not yet. Wait for it — a granted slot must go back or it
	// leaks; a shed was already counted by the shedder.
	select {
	case <-w.slot:
		g.Release()
	case <-w.shed:
	}
}

func (g *Gate) logShed(reason string) {
	if g.cfg.Log != nil {
		g.cfg.Log.Debug("request shed", "reason", reason)
	}
}

// Release returns an admitted request's slot, handing it to the newest
// waiter if any.
func (g *Gate) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if n := len(g.queue); n > 0 {
		w := g.queue[n-1]
		g.queue = g.queue[:n-1]
		g.admitTotal++
		g.mu.Unlock()
		w.slot <- struct{}{}
		return
	}
	g.inflight--
	g.mu.Unlock()
}

// Level maps the gate's occupancy onto the degradation ladder: any queueing
// sheds push; a queue at half capacity sheds hints too. A nil gate is
// always LevelNormal.
func (g *Gate) Level() Level {
	if g == nil {
		return LevelNormal
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case len(g.queue)*2 >= g.cfg.maxQueue():
		return LevelShedHints
	case len(g.queue) > 0 || g.inflight >= g.cfg.maxConcurrent():
		return LevelShedPush
	default:
		return LevelNormal
	}
}

// Saturated reports whether the gate would queue or shed a new arrival —
// the transport layer uses it to refuse streams cheaply before a handler
// goroutine exists.
func (g *Gate) Saturated() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining || len(g.queue) >= g.cfg.maxQueue()
}

// Drain stops admission: queued waiters are shed immediately, future
// Acquire calls fail with ErrDraining, and in-flight requests finish
// normally (their Release still runs).
func (g *Gate) Drain() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.draining = true
	queued := g.queue
	g.queue = nil
	g.shedTotal += int64(len(queued))
	g.mu.Unlock()
	for _, w := range queued {
		w.shed <- struct{}{}
	}
	if g.cfg.Log != nil {
		g.cfg.Log.Info("gate draining", "shed_waiters", len(queued))
	}
}

// Snapshot is a point-in-time view of the gate for health endpoints and
// tests.
type Snapshot struct {
	Inflight  int
	Queued    int
	PeakQueue int
	Admitted  int64
	Shed      int64
	Draining  bool
	Level     Level
}

// Stats returns the gate's current snapshot.
func (g *Gate) Stats() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	level := g.Level()
	g.mu.Lock()
	defer g.mu.Unlock()
	return Snapshot{
		Inflight:  g.inflight,
		Queued:    len(g.queue),
		PeakQueue: g.peakQueue,
		Admitted:  g.admitTotal,
		Shed:      g.shedTotal,
		Draining:  g.draining,
		Level:     level,
	}
}
