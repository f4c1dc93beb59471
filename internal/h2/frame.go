// Package h2 implements the subset of HTTP/2 (RFC 7540) and HPACK (RFC
// 7541) that Vroom's wire-level components need: framing, header
// compression with static and dynamic tables, stream multiplexing,
// connection- and stream-level flow control, and — centrally — server push
// via PUSH_PROMISE. It runs over any net.Conn (h2c style; TLS is modeled at
// the netem layer in this reproduction).
//
// Deliberate omissions, documented in DESIGN.md: HPACK Huffman coding
// (literals are always sent uncompressed; a Huffman-coded peer is rejected
// with a clear error), stream priorities (Vroom schedules at the request
// layer instead), and CONTINUATION frames (header blocks are bounded by the
// max frame size).
package h2

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// FrameType identifies an HTTP/2 frame type (RFC 7540 §6).
type FrameType uint8

// Frame types.
const (
	FrameData         FrameType = 0x0
	FrameHeaders      FrameType = 0x1
	FramePriority     FrameType = 0x2
	FrameRSTStream    FrameType = 0x3
	FrameSettings     FrameType = 0x4
	FramePushPromise  FrameType = 0x5
	FramePing         FrameType = 0x6
	FrameGoAway       FrameType = 0x7
	FrameWindowUpdate FrameType = 0x8
	FrameContinuation FrameType = 0x9
)

func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "DATA"
	case FrameHeaders:
		return "HEADERS"
	case FramePriority:
		return "PRIORITY"
	case FrameRSTStream:
		return "RST_STREAM"
	case FrameSettings:
		return "SETTINGS"
	case FramePushPromise:
		return "PUSH_PROMISE"
	case FramePing:
		return "PING"
	case FrameGoAway:
		return "GOAWAY"
	case FrameWindowUpdate:
		return "WINDOW_UPDATE"
	case FrameContinuation:
		return "CONTINUATION"
	}
	return fmt.Sprintf("UNKNOWN(0x%x)", uint8(t))
}

// Frame flags (RFC 7540 §6).
const (
	FlagEndStream  = 0x1
	FlagEndHeaders = 0x4
	FlagAck        = 0x1 // SETTINGS and PING
)

// maxFrameSize is the protocol's initial SETTINGS_MAX_FRAME_SIZE (RFC 7540
// §6.5.2): the value both directions start at until a SETTINGS frame moves
// it, and the floor a peer may never advertise below. This end never
// advertises another value, so it is also the incoming-frame limit.
const maxFrameSize = 16384

// absMaxFrameSize is the protocol ceiling for SETTINGS_MAX_FRAME_SIZE
// (2^24-1); values outside [maxFrameSize, absMaxFrameSize] are a
// connection error.
const absMaxFrameSize = 1<<24 - 1

// Frame is one HTTP/2 frame.
type Frame struct {
	Type     FrameType
	Flags    uint8
	StreamID uint32
	Payload  []byte
}

// EndStream reports the END_STREAM flag on DATA/HEADERS frames.
func (f *Frame) EndStream() bool { return f.Flags&FlagEndStream != 0 }

// Framer reads and writes frames on a connection. Reads and writes may be
// used concurrently with each other but each direction is single-caller.
type Framer struct {
	r io.Reader
	w io.Writer

	readBuf  [9]byte
	writeBuf [9]byte

	// frame and payload back ReadFrameReuse: the payload buffer grows to
	// the largest frame seen and is then reused, so steady-state reads
	// allocate nothing.
	frame   Frame
	payload []byte

	// maxWrite is what the peer advertised (what we may send it). Atomic
	// because SETTINGS arrive on the read loop while writers are active;
	// zero means the protocol initial value so a zero Framer works.
	maxWrite atomic.Uint32
}

// NewFramer wraps a transport.
func NewFramer(rw io.ReadWriter) *Framer { return &Framer{r: rw, w: rw} }

// orDefault maps the unset limit to the protocol initial value.
func orDefault(n uint32) uint32 {
	if n == 0 {
		return maxFrameSize
	}
	return n
}

// SetMaxWriteFrameSize installs the peer-advertised SETTINGS_MAX_FRAME_SIZE
// as the outgoing-frame limit. A peer that lowers its max mid-connection
// immediately shrinks what WriteFrame accepts.
func (fr *Framer) SetMaxWriteFrameSize(n uint32) error {
	if n < maxFrameSize || n > absMaxFrameSize {
		return ConnError{Code: ErrProtocol, Reason: fmt.Sprintf("SETTINGS_MAX_FRAME_SIZE %d outside [%d, %d]", n, maxFrameSize, absMaxFrameSize)}
	}
	fr.maxWrite.Store(n)
	return nil
}

// MaxWriteFrameSize returns the current peer-advertised outgoing limit;
// writers chunk DATA and header blocks at this size.
func (fr *Framer) MaxWriteFrameSize() int { return int(orDefault(fr.maxWrite.Load())) }

// ReadFrame reads the next frame into a fresh Frame whose payload the
// caller owns indefinitely. Prefer ReadFrameReuse on hot read loops.
func (fr *Framer) ReadFrame() (*Frame, error) {
	f := &Frame{}
	if err := fr.readInto(f, false); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameReuse reads the next frame into the Framer's reusable Frame.
// The returned Frame and its Payload are valid only until the next
// ReadFrameReuse call: the payload buffer is reused across reads (grown
// only when capacity is insufficient), so any consumer that retains
// payload bytes past the next read must copy them first (copy-on-escape —
// see DESIGN.md "Zero-allocation wire path").
func (fr *Framer) ReadFrameReuse() (*Frame, error) {
	if err := fr.readInto(&fr.frame, true); err != nil {
		return nil, err
	}
	return &fr.frame, nil
}

// readInto decodes one frame. With reuse set the payload lands in fr's
// capacity-grown scratch buffer; otherwise it is freshly allocated.
func (fr *Framer) readInto(f *Frame, reuse bool) error {
	if _, err := io.ReadFull(fr.r, fr.readBuf[:]); err != nil {
		return err
	}
	length := uint32(fr.readBuf[0])<<16 | uint32(fr.readBuf[1])<<8 | uint32(fr.readBuf[2])
	if length > maxFrameSize {
		return ConnError{Code: ErrFrameSize, Reason: fmt.Sprintf("frame of %d bytes exceeds max %d", length, maxFrameSize)}
	}
	f.Type = FrameType(fr.readBuf[3])
	f.Flags = fr.readBuf[4]
	f.StreamID = binary.BigEndian.Uint32(fr.readBuf[5:9]) &^ (1 << 31)
	f.Payload = nil
	if length > 0 {
		if reuse {
			if cap(fr.payload) < int(length) {
				fr.payload = make([]byte, length)
			}
			f.Payload = fr.payload[:length]
		} else {
			f.Payload = make([]byte, length)
		}
		if _, err := io.ReadFull(fr.r, f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// WriteFrame writes one frame, enforcing the peer-advertised max frame
// size.
func (fr *Framer) WriteFrame(f *Frame) error {
	if max := orDefault(fr.maxWrite.Load()); len(f.Payload) > int(max) {
		return ConnError{Code: ErrFrameSize, Reason: fmt.Sprintf("oversized frame write: %d bytes exceeds peer max %d", len(f.Payload), max)}
	}
	hdr := &fr.writeBuf
	hdr[0] = byte(len(f.Payload) >> 16)
	hdr[1] = byte(len(f.Payload) >> 8)
	hdr[2] = byte(len(f.Payload))
	hdr[3] = byte(f.Type)
	hdr[4] = f.Flags
	binary.BigEndian.PutUint32(hdr[5:9], f.StreamID&^(1<<31))
	if _, err := fr.w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := fr.w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// payloadPool recycles header-block scratch buffers: PUSH_PROMISE/HEADERS
// assembly on the write side and CONTINUATION accumulation on the read
// side. Buffers are pooled as pointers so Get/Put don't allocate slice
// headers.
var payloadPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, maxFrameSize)
		return &b
	},
}

// maxPooledPayload caps what goes back into payloadPool so one giant
// header block can't pin memory forever.
const maxPooledPayload = 1 << 20

func getPayloadBuf() *[]byte { return payloadPool.Get().(*[]byte) }

func putPayloadBuf(b *[]byte) {
	if cap(*b) <= maxPooledPayload {
		*b = (*b)[:0]
		payloadPool.Put(b)
	}
}

// ClientPreface is the fixed connection preface (RFC 7540 §3.5).
const ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// Settings identifiers (RFC 7540 §6.5.2).
const (
	SettingEnablePush        = 0x2
	SettingInitialWindowSize = 0x4
	SettingMaxFrameSize      = 0x5
)

// Setting is one settings parameter.
type Setting struct {
	ID    uint16
	Value uint32
}

// encodeSettings serializes settings into a SETTINGS payload.
func encodeSettings(ss []Setting) []byte {
	buf := make([]byte, 0, len(ss)*6)
	for _, s := range ss {
		var b [6]byte
		binary.BigEndian.PutUint16(b[0:2], s.ID)
		binary.BigEndian.PutUint32(b[2:6], s.Value)
		buf = append(buf, b[:]...)
	}
	return buf
}

// decodeSettings parses a SETTINGS payload.
func decodeSettings(p []byte) ([]Setting, error) {
	if len(p)%6 != 0 {
		return nil, ConnError{Code: ErrFrameSize, Reason: "SETTINGS payload not a multiple of 6"}
	}
	out := make([]Setting, 0, len(p)/6)
	for i := 0; i < len(p); i += 6 {
		out = append(out, Setting{
			ID:    binary.BigEndian.Uint16(p[i : i+2]),
			Value: binary.BigEndian.Uint32(p[i+2 : i+6]),
		})
	}
	return out, nil
}

// parseWindowUpdate extracts the increment.
func parseWindowUpdate(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, ConnError{Code: ErrFrameSize, Reason: "WINDOW_UPDATE payload must be 4 bytes"}
	}
	return binary.BigEndian.Uint32(p) &^ (1 << 31), nil
}

// goAwayPayload builds a GOAWAY payload.
func goAwayPayload(lastStream uint32, code ErrCode, debug string) []byte {
	b := make([]byte, 8, 8+len(debug))
	binary.BigEndian.PutUint32(b[0:4], lastStream&^(1<<31))
	binary.BigEndian.PutUint32(b[4:8], uint32(code))
	return append(b, debug...)
}

// parseGoAway extracts the last-stream-id, error code, and debug data.
func parseGoAway(p []byte) (lastStream uint32, code ErrCode, debug string, err error) {
	if len(p) < 8 {
		return 0, 0, "", ConnError{Code: ErrFrameSize, Reason: "short GOAWAY"}
	}
	lastStream = binary.BigEndian.Uint32(p[0:4]) &^ (1 << 31)
	code = ErrCode(binary.BigEndian.Uint32(p[4:8]))
	return lastStream, code, string(p[8:]), nil
}

// parseRst extracts the error code from a RST_STREAM payload.
func parseRst(p []byte) (ErrCode, error) {
	if len(p) != 4 {
		return 0, ConnError{Code: ErrFrameSize, Reason: "RST_STREAM payload must be 4 bytes"}
	}
	return ErrCode(binary.BigEndian.Uint32(p)), nil
}
