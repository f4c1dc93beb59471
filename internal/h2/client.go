package h2

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"vroom/internal/obs"
	"vroom/internal/telemetry"
)

// Metric families this package feeds. The phase histogram shares its family
// with the wire client (dial) and h1 pool (exchange), so one scrape shows
// every fetch phase side by side.
const (
	metricPhaseMs     = "vroom_wire_fetch_phase_ms"
	metricPushPromise = "vroom_h2_push_promises_total"
	metricGoAway      = "vroom_h2_goaway_total"
)

// ClientConn is the client end of an HTTP/2 connection.
type ClientConn struct {
	conn *conn

	// OnPush, when set, receives every pushed response as it completes.
	// It is invoked from the read loop goroutine; handlers must not block.
	OnPush func(*Response)

	mu      sync.Mutex
	instr   ccInstruments
	pending map[uint32]*clientStream
	// promises maps pushed stream IDs to their synthetic requests.
	promises map[uint32]*Request
	// goneAway records a graceful (NO_ERROR) GOAWAY: the conn keeps
	// delivering responses for streams at or below LastStreamID, but new
	// round trips fail fast with this error.
	goneAway *GoAwayError
	readErr  error
	readDone chan struct{}
}

type clientStream struct {
	s    *stream
	resp *Response
	err  error
	done chan struct{}
	// hdr closes when response headers arrive (before the body completes),
	// so callers can enforce a separate time-to-headers deadline.
	hdr chan struct{}
	// progress receives a token per DATA frame; body-stall deadlines reset
	// on it.
	progress chan struct{}
	// traced asks the read loop to stamp hdrAt when headers land. hdrAt is
	// written before hdr closes and read only after done closes, so the
	// channel edges order the accesses.
	traced bool
	hdrAt  time.Time
}

// csPool recycles clientStream state across round trips. done and hdr are
// closed channels by the time a stream is recycled, so they are remade per
// acquisition; the buffered progress channel is drained and reused.
var csPool = sync.Pool{
	New: func() any {
		return &clientStream{progress: make(chan struct{}, 1)}
	},
}

func getClientStream(s *stream, traced bool) *clientStream {
	cs := csPool.Get().(*clientStream)
	cs.s = s
	cs.resp = nil
	cs.err = nil
	cs.done = make(chan struct{})
	cs.hdr = make(chan struct{})
	select {
	case <-cs.progress: // drop a token left over from the previous use
	default:
	}
	cs.traced = traced
	cs.hdrAt = time.Time{}
	return cs
}

// putClientStream returns a stream's round-trip state to the pool. Safe
// only once the stream is out of cc.pending (the read loop reaches
// clientStreams exclusively through that map) and the round trip that owns
// it has read resp/err — i.e. at the return points of RoundTripTimeout.
func putClientStream(cs *clientStream) {
	cs.s = nil
	cs.resp = nil
	cs.err = nil
	csPool.Put(cs)
}

// ccInstruments is the connection's tracing and metrics attachment. The
// zero value is the disabled fast path.
type ccInstruments struct {
	trace *obs.Tracer
	track string

	hdrMs, bodyMs                           *telemetry.Histogram
	pushPromised, pushDelivered, pushOrphan *telemetry.Counter
	goaways                                 *telemetry.Counter
}

// Instrument attaches tracing and metrics to the connection: round-trip
// header/body phase spans and latency observations, push promise lifecycle
// (promised, delivered, orphaned), and GOAWAY receipt. Call it before the
// first round trip; like OnPush, the read loop reads the attachment under
// the connection mutex. A nil tracer and nil registry cost nothing.
func (cc *ClientConn) Instrument(tr *obs.Tracer, track string, reg *telemetry.Registry) {
	if track == "" {
		track = obs.TrackNet
	}
	in := ccInstruments{trace: tr, track: track}
	if reg != nil {
		in.hdrMs = reg.Histogram(metricPhaseMs, telemetry.L("phase", "headers"))
		in.bodyMs = reg.Histogram(metricPhaseMs, telemetry.L("phase", "body"))
		in.pushPromised = reg.Counter(metricPushPromise, telemetry.L("state", "promised"))
		in.pushDelivered = reg.Counter(metricPushPromise, telemetry.L("state", "delivered"))
		in.pushOrphan = reg.Counter(metricPushPromise, telemetry.L("state", "orphaned"))
		in.goaways = reg.Counter(metricGoAway)
		reg.Describe(metricPushPromise, "Push promises by fate: promised, delivered, orphaned on a dead connection.")
		reg.Describe(metricGoAway, "GOAWAY frames received from servers.")
	}
	cc.mu.Lock()
	cc.instr = in
	cc.mu.Unlock()
}

// active reports whether any instrumentation is attached.
func (in *ccInstruments) active() bool { return in.trace.Enabled() || in.hdrMs != nil }

// NewClientConn performs the client preface on nc and starts the read
// loop.
func NewClientConn(nc net.Conn) (*ClientConn, error) {
	cc := &ClientConn{
		conn:     newConn(nc, roleClient),
		pending:  make(map[uint32]*clientStream),
		promises: make(map[uint32]*Request),
		readDone: make(chan struct{}),
	}
	if _, err := nc.Write([]byte(ClientPreface)); err != nil {
		return nil, fmt.Errorf("h2: preface: %w", err)
	}
	if err := cc.conn.writeFrame(&Frame{Type: FrameSettings, Payload: encodeSettings(nil)}); err != nil {
		return nil, err
	}
	go cc.readLoop()
	return cc, nil
}

// Close tears the connection down.
func (cc *ClientConn) Close() error {
	cc.conn.closeWithError(fmt.Errorf("h2: client closed"))
	return nil
}

// RoundTrip issues a request and waits for the complete response.
func (cc *ClientConn) RoundTrip(req *Request) (*Response, error) {
	return cc.RoundTripTimeout(req, 0, 0)
}

// RoundTripTimeout issues a request with per-attempt deadlines: header
// bounds the time to response headers, stall bounds any gap in body
// progress after headers. Zero disables a deadline. On timeout the stream
// is reset (RST_STREAM CANCEL) and a *TimeoutError returned; the
// connection survives.
func (cc *ClientConn) RoundTripTimeout(req *Request, header, stall time.Duration) (*Response, error) {
	cc.mu.Lock()
	if ga := cc.goneAway; ga != nil {
		cc.mu.Unlock()
		return nil, *ga
	}
	in := cc.instr
	cc.mu.Unlock()
	traced := in.active()
	var start time.Time
	if traced {
		start = time.Now()
	}
	s := cc.conn.newStream()
	cs := getClientStream(s, traced)
	cc.mu.Lock()
	cc.pending[s.id] = cs
	cc.mu.Unlock()

	fields := []HeaderField{
		{Name: ":method", Value: orGET(req.Method)},
		{Name: ":scheme", Value: req.Scheme},
		{Name: ":authority", Value: req.Authority},
		{Name: ":path", Value: req.Path},
	}
	fields = append(fields, sortedFields(req.Header)...)
	endStream := len(req.Body) == 0
	if err := cc.conn.writeHeaderBlock(s.id, fields, endStream, 0); err != nil {
		cc.abortStream(s, nil)
		return nil, err
	}
	if !endStream {
		if err := cc.conn.writeData(s, req.Body, true); err != nil {
			cc.abortStream(s, nil)
			return nil, err
		}
	}

	if header > 0 {
		t := time.NewTimer(header)
		select {
		case <-cs.done:
			t.Stop()
		case <-cs.hdr:
			t.Stop()
		case <-t.C:
			err := &TimeoutError{Phase: "headers"}
			cc.abortStream(s, err)
			if in.trace.Enabled() {
				in.trace.Instant(in.track, "rt-timeout",
					obs.Arg{Key: "phase", Val: "headers"}, obs.Arg{Key: "path", Val: req.Path})
			}
			return nil, err
		}
	}
	if stall > 0 {
		t := time.NewTimer(stall)
	body:
		for {
			select {
			case <-cs.done:
				t.Stop()
				break body
			case <-cs.progress:
				// Bytes are flowing; the transfer is alive however slow.
				if !t.Stop() {
					<-t.C
				}
				t.Reset(stall)
			case <-t.C:
				err := &TimeoutError{Phase: "body"}
				cc.abortStream(s, err)
				if in.trace.Enabled() {
					in.trace.Instant(in.track, "rt-timeout",
						obs.Arg{Key: "phase", Val: "body"}, obs.Arg{Key: "path", Val: req.Path})
				}
				return nil, err
			}
		}
	}
	<-cs.done
	// done was closed by the read loop (not an abort), so the read loop is
	// finished with cs and it can go back to the pool once resp/err/hdrAt
	// are captured. The abort/timeout paths above leave cs unpooled: a
	// racing dispatch may still hold a pointer it fetched from pending
	// before the abort deleted it.
	resp, rtErr, hdrAt := cs.resp, cs.err, cs.hdrAt
	putClientStream(cs)
	if rtErr != nil {
		return nil, rtErr
	}
	if traced {
		end := time.Now()
		if hdrAt.IsZero() {
			hdrAt = end
		}
		if in.hdrMs != nil {
			in.hdrMs.Observe(float64(hdrAt.Sub(start)) / float64(time.Millisecond))
			in.bodyMs.Observe(float64(end.Sub(hdrAt)) / float64(time.Millisecond))
		}
		if in.trace.Enabled() {
			rtArgs := []obs.Arg{{Key: "path", Val: req.Path}}
			if vals := req.Header[obs.TraceHeader]; len(vals) > 0 {
				// Propagated trace context: tag the round trip with the
				// fetch's flow ID so transport spans stitch into the
				// cross-process timeline.
				rtArgs = append(rtArgs, obs.Arg{Key: obs.ArgFlow, Val: vals[0]})
			}
			rt := in.trace.BeginAt(start, in.track, "rt", rtArgs...)
			hs := in.trace.BeginAt(start, in.track, "headers")
			hs.EndAt(hdrAt)
			bs := in.trace.BeginAt(hdrAt, in.track, "body")
			bs.EndAt(end)
			rt.EndAt(end, obs.Arg{Key: "status", Val: strconv.Itoa(resp.Status)})
		}
	}
	resp.Request = req
	return resp, nil
}

// abortStream cancels a locally initiated stream: the peer sees RST_STREAM
// CANCEL, the local waiter (if err != nil) completes with err.
func (cc *ClientConn) abortStream(s *stream, err error) {
	cc.mu.Lock()
	cs, ok := cc.pending[s.id]
	if ok {
		delete(cc.pending, s.id)
		cs.err = err
	}
	cc.mu.Unlock()
	if ok && err != nil {
		close(cs.done)
	}
	_ = cc.conn.writeRst(s.id, ErrCancel)
	cc.conn.finishStream(s)
}

func (cc *ClientConn) readLoop() {
	var err error
	defer func() {
		cc.mu.Lock()
		if cc.goneAway != nil {
			// The peer announced a graceful shutdown before the read error;
			// that is the real story for anything still pending.
			err = *cc.goneAway
		}
		ga, gotGoAway := err.(GoAwayError)
		cc.readErr = err
		for id, cs := range cc.pending {
			if cs.err == nil && cs.resp == nil {
				if gotGoAway && id > ga.LastStreamID {
					// The peer guarantees it never processed this stream;
					// replaying it on a fresh connection is always safe.
					cs.err = StreamError{StreamID: id, Code: ErrRefusedStream,
						Reason: "unprocessed at GOAWAY"}
				} else {
					cs.err = err
				}
			}
			delete(cc.pending, id)
			close(cs.done)
		}
		// Promises whose pushed response never completed are orphans now —
		// no response can arrive on a dead connection. Dropping them keeps
		// Promised from parking fetches on pushes that will never land.
		in := cc.instr
		for id, req := range cc.promises {
			delete(cc.promises, id)
			in.pushOrphan.Inc()
			if in.trace.Enabled() {
				in.trace.Instant(in.track, "push-orphaned", obs.Arg{Key: "path", Val: req.Path})
			}
		}
		cc.mu.Unlock()
		if in.trace.Enabled() && err != nil {
			in.trace.Instant(in.track, "conn-close", obs.Arg{Key: "reason", Val: err.Error()})
		}
		cc.conn.closeWithError(err)
		close(cc.readDone)
	}()
	for {
		// Reuse-mode reads: f and f.Payload are invalidated by the next
		// ReadFrameReuse, so every dispatch path that keeps payload bytes
		// past this iteration copies them first (stream bodies and partial
		// header blocks append-copy; header blocks decode into strings
		// before the loop comes back around).
		var f *Frame
		f, err = cc.conn.fr.ReadFrameReuse()
		if err != nil {
			return
		}
		if err = cc.dispatch(f); err != nil {
			if ce, ok := err.(ConnError); ok {
				cc.conn.goAway(ce.Code, ce.Reason)
			}
			return
		}
	}
}

func (cc *ClientConn) dispatch(f *Frame) error {
	c := cc.conn
	switch f.Type {
	case FrameSettings:
		return c.handleSettings(f)
	case FrameWindowUpdate:
		return c.handleWindowUpdate(f)
	case FramePing:
		if f.Flags&FlagAck == 0 {
			return c.writeFrame(&Frame{Type: FramePing, Flags: FlagAck, Payload: f.Payload})
		}
		return nil
	case FrameHeaders:
		complete, err := c.beginHeaderBlock(f, 0, f.Payload)
		if err != nil || !complete {
			return err
		}
		return cc.applyHeaders(f.StreamID, f.Payload, f.EndStream())
	case FrameContinuation:
		done, err := c.continueHeaderBlock(f)
		if err != nil || done == nil {
			return err
		}
		if done.promisedID != 0 {
			return cc.applyPushPromise(done.promisedID, done.block)
		}
		return cc.applyHeaders(done.streamID, done.block, done.endStream)
	case FrameData:
		s := c.stream(f.StreamID)
		if s == nil {
			return ConnError{Code: ErrProtocol, Reason: "DATA on unknown stream"}
		}
		s.body = append(s.body, f.Payload...)
		cc.noteProgress(f.StreamID)
		if err := c.consumeData(f.StreamID, len(f.Payload)); err != nil {
			return err
		}
		if f.EndStream() {
			cc.completeStream(f.StreamID, s)
		}
		return nil
	case FramePushPromise:
		if len(f.Payload) < 4 {
			return ConnError{Code: ErrFrameSize, Reason: "short PUSH_PROMISE"}
		}
		promisedID := uint32(f.Payload[0]&0x7f)<<24 | uint32(f.Payload[1])<<16 | uint32(f.Payload[2])<<8 | uint32(f.Payload[3])
		complete, err := c.beginHeaderBlock(f, promisedID, f.Payload[4:])
		if err != nil || !complete {
			return err
		}
		return cc.applyPushPromise(promisedID, f.Payload[4:])
	case FrameRSTStream:
		s := c.stream(f.StreamID)
		if s != nil {
			code, err := parseRst(f.Payload)
			if err != nil {
				return err
			}
			c.mu.Lock()
			s.rst = true
			s.rstCode = code
			c.mu.Unlock()
			c.sendCond.Broadcast()
			cc.failStream(f.StreamID, StreamError{StreamID: f.StreamID, Code: code, Reason: "reset by server"})
		}
		return nil
	case FrameGoAway:
		last, code, debug, err := parseGoAway(f.Payload)
		if err != nil {
			return err
		}
		ga := GoAwayError{LastStreamID: last, Code: code, Reason: debug}
		cc.mu.Lock()
		in := cc.instr
		cc.mu.Unlock()
		in.goaways.Inc()
		if in.trace.Enabled() {
			in.trace.Instant(in.track, "goaway",
				obs.Arg{Key: "code", Val: code.String()},
				obs.Arg{Key: "last", Val: strconv.FormatUint(uint64(last), 10)})
		}
		if code != ErrNone {
			return ga
		}
		// Graceful shutdown: streams above last were never processed — fail
		// them retryable right away — while streams at or below may still
		// complete, so keep reading until the peer closes the connection.
		cc.mu.Lock()
		if cc.goneAway == nil {
			cc.goneAway = &ga
		}
		var refused []*clientStream
		for id, cs := range cc.pending {
			if id > last {
				delete(cc.pending, id)
				cs.err = StreamError{StreamID: id, Code: ErrRefusedStream,
					Reason: "unprocessed at GOAWAY"}
				refused = append(refused, cs)
			}
		}
		cc.mu.Unlock()
		for _, cs := range refused {
			close(cs.done)
		}
		return nil
	default:
		return nil
	}
}

// noteProgress signals body progress to a deadline-bound RoundTrip.
func (cc *ClientConn) noteProgress(id uint32) {
	cc.mu.Lock()
	cs := cc.pending[id]
	cc.mu.Unlock()
	if cs == nil || cs.progress == nil {
		return
	}
	select {
	case cs.progress <- struct{}{}:
	default:
	}
}

// applyHeaders installs a complete response header block.
func (cc *ClientConn) applyHeaders(streamID uint32, block []byte, endStream bool) error {
	fields, err := cc.conn.dec.Decode(block)
	if err != nil {
		return err
	}
	s := cc.conn.stream(streamID)
	if s == nil {
		return ConnError{Code: ErrProtocol, Reason: "HEADERS on unknown stream"}
	}
	s.headers = fields
	cc.mu.Lock()
	cs := cc.pending[streamID]
	cc.mu.Unlock()
	if cs != nil && cs.hdr != nil {
		select {
		case <-cs.hdr:
		default:
			if cs.traced && cs.hdrAt.IsZero() {
				cs.hdrAt = time.Now()
			}
			close(cs.hdr)
		}
	}
	if endStream {
		cc.completeStream(streamID, s)
	}
	return nil
}

// applyPushPromise registers a complete push promise.
func (cc *ClientConn) applyPushPromise(promisedID uint32, block []byte) error {
	fields, err := cc.conn.dec.Decode(block)
	if err != nil {
		return err
	}
	req, err := requestFromFields(fields)
	if err != nil {
		return ConnError{Code: ErrProtocol, Reason: err.Error()}
	}
	cc.conn.remoteStream(promisedID)
	cc.mu.Lock()
	cc.promises[promisedID] = req
	in := cc.instr
	cc.mu.Unlock()
	in.pushPromised.Inc()
	if in.trace.Enabled() {
		in.trace.Instant(in.track, "push-promise", obs.Arg{Key: "path", Val: req.Path})
	}
	return nil
}

// completeStream turns a finished stream into a Response and routes it.
func (cc *ClientConn) completeStream(id uint32, s *stream) {
	resp := &Response{Header: make(map[string][]string), Body: s.body}
	for _, f := range s.headers {
		if f.Name == ":status" {
			resp.Status, _ = strconv.Atoi(f.Value)
			continue
		}
		resp.Header[f.Name] = append(resp.Header[f.Name], f.Value)
	}
	cc.conn.finishStream(s)
	cc.mu.Lock()
	if cs, ok := cc.pending[id]; ok {
		delete(cc.pending, id)
		cs.resp = resp
		cc.mu.Unlock()
		close(cs.done)
		return
	}
	req, promised := cc.promises[id]
	delete(cc.promises, id)
	onPush := cc.OnPush
	in := cc.instr
	cc.mu.Unlock()
	if promised {
		resp.Pushed = true
		resp.Request = req
		in.pushDelivered.Inc()
		if in.trace.Enabled() {
			in.trace.Instant(in.track, "push-delivered", obs.Arg{Key: "path", Val: req.Path})
		}
		if onPush != nil {
			onPush(resp)
		}
	}
}

func (cc *ClientConn) failStream(id uint32, err error) {
	cc.mu.Lock()
	cs, ok := cc.pending[id]
	if ok {
		delete(cc.pending, id)
		cs.err = err
	}
	cc.mu.Unlock()
	if ok {
		close(cs.done)
	}
}

// Promised returns the synthetic request of an outstanding push promise,
// if the server has announced one for the given path.
func (cc *ClientConn) Promised(path string) (*Request, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, req := range cc.promises {
		if req.Path == path {
			return req, true
		}
	}
	return nil, false
}
