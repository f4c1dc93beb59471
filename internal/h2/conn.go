package h2

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
)

// defaultWindow is the initial flow-control window (RFC 7540 §6.9.2).
const defaultWindow = 65535

// role distinguishes the two connection endpoints.
type role int

const (
	roleClient role = iota
	roleServer
)

// conn is the shared connection core: framing, HPACK state, flow control,
// and the stream table. Server and client wrap it with role-specific
// stream handling.
type conn struct {
	nc net.Conn
	fr *Framer

	role role

	// wmu serializes frame writes; the HPACK encoder state is part of the
	// write stream so it lives under the same lock.
	wmu sync.Mutex
	enc *HPACKEncoder
	// ctrl is reusable scratch for fixed-size control payloads
	// (WINDOW_UPDATE, RST_STREAM), guarded by wmu, so the per-frame
	// bookkeeping writes allocate nothing.
	ctrl [8]byte

	// dec is only touched by the read loop goroutine.
	dec *HPACKDecoder

	// mu guards the stream table and send windows; sendCond wakes writers
	// blocked on flow control.
	mu         sync.Mutex
	sendCond   *sync.Cond
	sendWindow int64
	streams    map[uint32]*stream
	nextID     uint32
	goingAway  bool
	closed     bool
	closeErr   error

	// peerInitialWindow is the peer's SETTINGS_INITIAL_WINDOW_SIZE for
	// new streams we send on.
	peerInitialWindow int64

	// pushEnabled mirrors the peer's SETTINGS_ENABLE_PUSH.
	pushEnabled bool

	// partial is the in-progress cross-frame header block (read side; only
	// touched by the read loop). The struct and its block buffer are
	// reused across header blocks — only one may be open at a time (§6.10)
	// — so CONTINUATION accumulation stops allocating once the buffer has
	// grown to the largest block seen.
	partial     partialHeaders
	partialOpen bool
}

// stream is one HTTP/2 stream's state.
type stream struct {
	id uint32

	// send-side flow control.
	sendWindow int64

	// receive accumulation.
	headers []HeaderField
	body    []byte
	rstCode ErrCode
	rst     bool

	// done closes when the peer half-closes or resets the stream.
	done chan struct{}
}

func newConn(nc net.Conn, r role) *conn {
	c := &conn{
		nc:                nc,
		fr:                NewFramer(nc),
		role:              r,
		enc:               NewHPACKEncoder(),
		dec:               NewHPACKDecoder(),
		sendWindow:        defaultWindow,
		streams:           make(map[uint32]*stream),
		peerInitialWindow: defaultWindow,
		pushEnabled:       true,
	}
	c.sendCond = sync.NewCond(&c.mu)
	if r == roleClient {
		c.nextID = 1
	} else {
		c.nextID = 2
	}
	return c
}

// newStream registers a locally initiated stream.
func (c *conn) newStream() *stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID += 2
	s := &stream{id: id, sendWindow: c.peerInitialWindow, done: make(chan struct{})}
	c.streams[id] = s
	return s
}

// remoteStream registers a peer-initiated stream.
func (c *conn) remoteStream(id uint32) *stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.streams[id]; ok {
		return s
	}
	s := &stream{id: id, sendWindow: c.peerInitialWindow, done: make(chan struct{})}
	c.streams[id] = s
	return s
}

func (c *conn) stream(id uint32) *stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[id]
}

// writeFrame writes one frame under the write lock.
func (c *conn) writeFrame(f *Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fr.WriteFrame(f)
}

// writeWindowUpdate sends WINDOW_UPDATE from the conn's control scratch —
// it runs twice per received DATA frame, so it must not allocate.
func (c *conn) writeWindowUpdate(streamID, increment uint32) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	binary.BigEndian.PutUint32(c.ctrl[:4], increment&^(1<<31))
	f := Frame{Type: FrameWindowUpdate, StreamID: streamID, Payload: c.ctrl[:4]}
	return c.fr.WriteFrame(&f)
}

// writeRst sends RST_STREAM from the conn's control scratch.
func (c *conn) writeRst(streamID uint32, code ErrCode) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	binary.BigEndian.PutUint32(c.ctrl[:4], uint32(code))
	f := Frame{Type: FrameRSTStream, StreamID: streamID, Payload: c.ctrl[:4]}
	return c.fr.WriteFrame(&f)
}

// writeHeaderBlock writes HEADERS (or PUSH_PROMISE when promisedID != 0),
// splitting oversized header blocks across CONTINUATION frames (§6.10) —
// Vroom's hint headers for complex pages can exceed one frame. The block
// is assembled in a pooled buffer (prefix + HPACK encode in one pass) that
// every frame write slices out of; the frames hit the wire before the
// buffer returns to the pool, so nothing aliases it afterwards.
func (c *conn) writeHeaderBlock(streamID uint32, fields []HeaderField, endStream bool, promisedID uint32) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	maxFrame := c.fr.MaxWriteFrameSize()
	bp := getPayloadBuf()
	defer putPayloadBuf(bp)
	buf := (*bp)[:0]
	typ := FrameHeaders
	var firstFlags uint8
	prefixLen := 0
	if promisedID != 0 {
		typ = FramePushPromise
		buf = append(buf, byte(promisedID>>24)&0x7f, byte(promisedID>>16), byte(promisedID>>8), byte(promisedID))
		prefixLen = 4
	} else if endStream {
		firstFlags |= FlagEndStream
	}
	buf = c.enc.Encode(buf, fields)
	*bp = buf // keep the grown capacity when the buffer goes back
	block := buf[prefixLen:]

	// First frame carries the prefix plus as much of the block as fits.
	first := maxFrame - prefixLen
	if first > len(block) {
		first = len(block)
	}
	rest := block[first:]
	if len(rest) == 0 {
		firstFlags |= FlagEndHeaders
	}
	if err := c.fr.WriteFrame(&Frame{Type: typ, Flags: firstFlags, StreamID: streamID, Payload: buf[:prefixLen+first]}); err != nil {
		return err
	}
	for len(rest) > 0 {
		n := len(rest)
		if n > maxFrame {
			n = maxFrame
		}
		var flags uint8
		if n == len(rest) {
			flags = FlagEndHeaders
		}
		if err := c.fr.WriteFrame(&Frame{Type: FrameContinuation, Flags: flags, StreamID: streamID, Payload: rest[:n]}); err != nil {
			return err
		}
		rest = rest[n:]
	}
	return nil
}

// partialHeaders buffers a header block that spans CONTINUATION frames.
// Only one header block may be open on a connection at a time (§6.10).
type partialHeaders struct {
	streamID   uint32
	promisedID uint32
	endStream  bool
	block      []byte
}

// beginHeaderBlock starts (or completes, if END_HEADERS is already set)
// accumulation of a header block. It returns (complete, payload) where
// complete reports whether the block is ready to decode. body is copied
// into the conn's reusable accumulation buffer, so callers may pass a
// reuse-mode frame payload.
func (c *conn) beginHeaderBlock(f *Frame, promisedID uint32, body []byte) (bool, error) {
	if c.partialOpen {
		return false, ConnError{Code: ErrProtocol, Reason: "HEADERS while another header block is open"}
	}
	if f.Flags&FlagEndHeaders != 0 {
		return true, nil
	}
	c.partialOpen = true
	c.partial.streamID = f.StreamID
	c.partial.promisedID = promisedID
	c.partial.endStream = f.EndStream()
	c.partial.block = append(c.partial.block[:0], body...)
	return false, nil
}

// continueHeaderBlock appends a CONTINUATION frame; when END_HEADERS
// arrives it returns the finished block. The returned struct and its
// block are the conn's reusable accumulation state: they stay valid until
// the next header block opens, which is after the caller (the read loop)
// has decoded them.
func (c *conn) continueHeaderBlock(f *Frame) (*partialHeaders, error) {
	if !c.partialOpen || c.partial.streamID != f.StreamID {
		return nil, ConnError{Code: ErrProtocol, Reason: "CONTINUATION without open header block"}
	}
	c.partial.block = append(c.partial.block, f.Payload...)
	if f.Flags&FlagEndHeaders == 0 {
		return nil, nil
	}
	c.partialOpen = false
	return &c.partial, nil
}

// writeData sends a body with flow control, chunking at the frame size and
// blocking while either window is empty.
func (c *conn) writeData(s *stream, data []byte, endStream bool) error {
	for {
		c.mu.Lock()
		for !c.closed && !s.rst && (c.sendWindow <= 0 || s.sendWindow <= 0) {
			c.sendCond.Wait()
		}
		if c.closed {
			err := c.closeErr
			c.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("h2: connection closed")
			}
			return err
		}
		if s.rst {
			c.mu.Unlock()
			return StreamError{StreamID: s.id, Code: s.rstCode, Reason: "stream reset by peer"}
		}
		n := len(data)
		if max := c.fr.MaxWriteFrameSize(); n > max {
			n = max
		}
		if int64(n) > c.sendWindow {
			n = int(c.sendWindow)
		}
		if int64(n) > s.sendWindow {
			n = int(s.sendWindow)
		}
		c.sendWindow -= int64(n)
		s.sendWindow -= int64(n)
		c.mu.Unlock()

		chunk := data[:n]
		data = data[n:]
		last := len(data) == 0
		var flags uint8
		if last && endStream {
			flags = FlagEndStream
		}
		if err := c.writeFrame(&Frame{Type: FrameData, Flags: flags, StreamID: s.id, Payload: chunk}); err != nil {
			return err
		}
		if last {
			return nil
		}
	}
}

// handleWindowUpdate credits windows and wakes blocked writers.
func (c *conn) handleWindowUpdate(f *Frame) error {
	inc, err := parseWindowUpdate(f.Payload)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.StreamID == 0 {
		c.sendWindow += int64(inc)
	} else if s, ok := c.streams[f.StreamID]; ok {
		s.sendWindow += int64(inc)
	}
	c.sendCond.Broadcast()
	return nil
}

// handleSettings applies peer settings and acks.
func (c *conn) handleSettings(f *Frame) error {
	if f.Flags&FlagAck != 0 {
		return nil
	}
	ss, err := decodeSettings(f.Payload)
	if err != nil {
		return err
	}
	c.mu.Lock()
	for _, s := range ss {
		switch s.ID {
		case SettingInitialWindowSize:
			delta := int64(s.Value) - c.peerInitialWindow
			c.peerInitialWindow = int64(s.Value)
			for _, st := range c.streams {
				st.sendWindow += delta
			}
		case SettingEnablePush:
			c.pushEnabled = s.Value == 1
		case SettingMaxFrameSize:
			// The peer-advertised max governs every frame we send from now
			// on; out-of-range values are a connection error (§6.5.2).
			if err := c.fr.SetMaxWriteFrameSize(s.Value); err != nil {
				c.mu.Unlock()
				return err
			}
		}
	}
	c.sendCond.Broadcast()
	c.mu.Unlock()
	return c.writeFrame(&Frame{Type: FrameSettings, Flags: FlagAck})
}

// consumeData accounts received DATA and replenishes both windows so the
// peer never stalls (the reproduction reads bodies eagerly).
func (c *conn) consumeData(streamID uint32, n int) error {
	if n == 0 {
		return nil
	}
	if err := c.writeWindowUpdate(0, uint32(n)); err != nil {
		return err
	}
	return c.writeWindowUpdate(streamID, uint32(n))
}

// closeWithError tears the connection down and unblocks writers.
func (c *conn) closeWithError(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = err
	for _, s := range c.streams {
		select {
		case <-s.done:
		default:
			close(s.done)
		}
	}
	c.sendCond.Broadcast()
	c.mu.Unlock()
	c.nc.Close()
}

// finishStream marks a stream complete and signals waiters.
func (c *conn) finishStream(s *stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

// goAway sends GOAWAY and closes.
func (c *conn) goAway(code ErrCode, reason string) {
	c.mu.Lock()
	last := c.nextID
	c.goingAway = true
	c.mu.Unlock()
	_ = c.writeFrame(&Frame{Type: FrameGoAway, Payload: goAwayPayload(last, code, reason)})
	c.closeWithError(ConnError{Code: code, Reason: reason})
}
