package h1

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/h2"
	"vroom/internal/obs"
	"vroom/internal/telemetry"
)

// MaxConnsPerOrigin is the classic browser HTTP/1.1 connection limit.
const MaxConnsPerOrigin = 6

// Pool is an HTTP/1.1 client for one origin: up to MaxConnsPerOrigin
// keep-alive connections, one outstanding request each; excess requests
// queue for a free connection.
type Pool struct {
	Authority string
	Dial      func() (net.Conn, error)

	// Trace, when non-nil, records exchange spans on obs.TrackNet.
	// Metrics, when non-nil, feeds exchange latency into
	// the shared fetch-phase histogram and a per-origin connection gauge.
	// Set both before the first round trip.
	Trace   *obs.Tracer
	Metrics *telemetry.Registry

	mu      sync.Mutex
	idle    []*poolConn
	all     map[*poolConn]struct{}
	total   int
	waiters []chan *poolConn
	closed  bool

	exchMs  *telemetry.Histogram
	gConns  *telemetry.Gauge
	instrOK bool
}

// instruments resolves telemetry handles once. Caller holds p.mu.
func (p *Pool) instruments() {
	if p.instrOK {
		return
	}
	p.instrOK = true
	if p.Metrics == nil {
		return
	}
	p.exchMs = p.Metrics.Histogram("vroom_wire_fetch_phase_ms", telemetry.L("phase", "exchange"))
	p.gConns = p.Metrics.Gauge("vroom_wire_active_conns",
		telemetry.L("origin", "https://"+p.Authority), telemetry.L("proto", "h1"))
}

type poolConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// bufio readers/writers carry 4 KiB buffers each; recycling them across
// redials keeps connection churn (fault-heavy runs discard constantly)
// from allocating fresh ones per conn.
var (
	brPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	bwPool = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}
)

func newPoolConn(nc net.Conn) *poolConn {
	br := brPool.Get().(*bufio.Reader)
	br.Reset(nc)
	bw := bwPool.Get().(*bufio.Writer)
	bw.Reset(nc)
	return &poolConn{nc: nc, br: br, bw: bw}
}

// recycleBufs returns a discarded conn's buffers to the pools. Call only
// when the caller exclusively owns pc (the discard path does).
func (pc *poolConn) recycleBufs() {
	pc.br.Reset(nil)
	brPool.Put(pc.br)
	pc.br = nil
	pc.bw.Reset(nil)
	bwPool.Put(pc.bw)
	pc.bw = nil
}

// RoundTrip performs one request/response exchange, reusing or opening a
// connection within the limit.
func (p *Pool) RoundTrip(req *h2.Request) (*h2.Response, error) {
	return p.RoundTripTimeout(req, 0, 0)
}

// RoundTripTimeout is RoundTrip with one whole-exchange watchdog spanning
// header+stall: HTTP/1.1 has no frame-level progress to observe, and netem
// conns ignore read deadlines, so on expiry the connection is closed and the
// error surfaces as a *h2.TimeoutError. Zero disables the watchdog.
func (p *Pool) RoundTripTimeout(req *h2.Request, header, stall time.Duration) (*h2.Response, error) {
	pc, err := p.acquire()
	if err != nil {
		return nil, err
	}
	traced := p.Trace.Enabled() || p.exchMs != nil
	var start time.Time
	var sp obs.Span
	if traced {
		start = time.Now()
		if p.Trace.Enabled() {
			args := []obs.Arg{{Key: "path", Val: req.Path}}
			if vals := req.Header[obs.TraceHeader]; len(vals) > 0 {
				// Propagated trace context: stitch the exchange into the
				// cross-process timeline by its fetch's flow ID.
				args = append(args, obs.Arg{Key: obs.ArgFlow, Val: vals[0]})
			}
			sp = p.Trace.Begin(obs.TrackNet, "exchange", args...)
		}
	}
	var timedOut atomic.Bool
	if total := header + stall; total > 0 {
		watchdog := time.AfterFunc(total, func() {
			timedOut.Store(true)
			pc.nc.Close()
		})
		defer watchdog.Stop()
	}
	resp, err := p.exchange(pc, req)
	if err != nil && timedOut.Load() {
		sp.End(obs.Arg{Key: "error", Val: "timeout"})
		return nil, &h2.TimeoutError{Phase: "exchange"}
	}
	if traced {
		if err == nil {
			p.exchMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
		if sp.Active() {
			if err != nil {
				sp.End(obs.Arg{Key: "error", Val: err.Error()})
			} else {
				sp.End(obs.Arg{Key: "status", Val: strconv.Itoa(resp.Status)})
			}
		}
	}
	return resp, err
}

// exchange runs one request/response on pc, returning it to the pool or
// discarding it as the outcome dictates.
func (p *Pool) exchange(pc *poolConn, req *h2.Request) (*h2.Response, error) {
	if req.Authority == "" {
		req.Authority = p.Authority
	}
	if err := WriteRequest(pc.bw, req); err != nil {
		p.discard(pc)
		return nil, err
	}
	if err := pc.bw.Flush(); err != nil {
		p.discard(pc)
		return nil, err
	}
	resp, err := ReadResponse(pc.br)
	if err != nil {
		p.discard(pc)
		return nil, err
	}
	if vals := resp.Header["connection"]; len(vals) > 0 && vals[0] == "close" {
		p.discard(pc)
	} else {
		p.release(pc)
	}
	resp.Request = req
	return resp, nil
}

// SelfHealing reports that the pool replaces broken connections on its own
// (discard frees a slot, the next acquire redials); the wire client uses it
// to skip the evict-and-redial bookkeeping h2 conns need.
func (p *Pool) SelfHealing() bool { return true }

// Promised implements the wire origin-connection interface: HTTP/1.1 has
// no server push.
func (p *Pool) Promised(string) (*h2.Request, bool) { return nil, false }

// Close tears down every connection, in-flight ones included, so an aborted
// page load cannot leak sockets or park goroutines on dead reads.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	for pc := range p.all {
		pc.nc.Close()
	}
	p.all = nil
	p.idle = nil
	for _, ch := range p.waiters {
		close(ch)
	}
	p.waiters = nil
	p.gConns.Set(0)
	p.mu.Unlock()
	return nil
}

func (p *Pool) acquire() (*poolConn, error) {
	p.mu.Lock()
	p.instruments()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("h1: pool closed")
	}
	if n := len(p.idle); n > 0 {
		pc := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	if p.total < MaxConnsPerOrigin {
		p.total++
		p.gConns.Set(int64(p.total))
		p.mu.Unlock()
		nc, err := p.Dial()
		if err != nil {
			p.mu.Lock()
			p.total--
			p.gConns.Set(int64(p.total))
			p.mu.Unlock()
			return nil, err
		}
		pc := newPoolConn(nc)
		p.track(pc)
		return pc, nil
	}
	// Saturated: wait for a release.
	ch := make(chan *poolConn, 1)
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()
	pc, ok := <-ch
	if !ok {
		return nil, fmt.Errorf("h1: pool closed while waiting")
	}
	return pc, nil
}

func (p *Pool) release(pc *poolConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.nc.Close()
		return
	}
	if len(p.waiters) > 0 {
		ch := p.waiters[0]
		p.waiters = p.waiters[1:]
		p.mu.Unlock()
		ch <- pc
		return
	}
	p.idle = append(p.idle, pc)
	p.mu.Unlock()
}

// discard drops a broken connection, freeing a slot.
func (p *Pool) discard(pc *poolConn) {
	pc.nc.Close()
	pc.recycleBufs()
	p.mu.Lock()
	delete(p.all, pc)
	p.total--
	var next chan *poolConn
	if len(p.waiters) > 0 && p.total < MaxConnsPerOrigin {
		next = p.waiters[0]
		p.waiters = p.waiters[1:]
		p.total++
	}
	p.gConns.Set(int64(p.total))
	p.mu.Unlock()
	if p.Trace.Enabled() {
		p.Trace.Instant(obs.TrackNet, "conn-discarded", obs.Arg{Key: "origin", Val: p.Authority})
	}
	if next != nil {
		// Open a replacement for the waiter.
		nc, err := p.Dial()
		if err != nil {
			p.mu.Lock()
			p.total--
			p.gConns.Set(int64(p.total))
			p.mu.Unlock()
			close(next)
			return
		}
		npc := newPoolConn(nc)
		p.track(npc)
		next <- npc
	}
}

// track registers a freshly dialed conn so Close can reach it even while a
// round trip holds it. A pool closed mid-dial closes the conn immediately.
func (p *Pool) track(pc *poolConn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.nc.Close()
		return
	}
	if p.all == nil {
		p.all = make(map[*poolConn]struct{})
	}
	p.all[pc] = struct{}{}
	p.mu.Unlock()
}
