package h2

import (
	"bytes"
	"io"
	"testing"
)

// rewindReader replays the same encoded bytes forever; rewind() between
// reads keeps the framer fed without per-iteration reader allocations.
type rewindReader struct {
	data []byte
	off  int
}

func (r *rewindReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *rewindReader) rewind() { r.off = 0 }

// encodeFrames serializes frames for replay through a reader.
func encodeFrames(t testing.TB, frames ...*Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := &Framer{w: &buf}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// benchFrames is a read-loop-shaped mix: a HEADERS frame and DATA frames of
// uneven sizes, so the reusable payload buffer shrinks and regrows.
func benchFrames(t testing.TB) []byte {
	return encodeFrames(t,
		&Frame{Type: FrameHeaders, Flags: FlagEndHeaders, StreamID: 1, Payload: bytes.Repeat([]byte("h"), 200)},
		&Frame{Type: FrameData, StreamID: 1, Payload: bytes.Repeat([]byte("d"), 8192)},
		&Frame{Type: FrameData, Flags: FlagEndStream, StreamID: 1, Payload: bytes.Repeat([]byte("e"), 64)},
	)
}

// TestFrameReadWriteZeroAlloc pins the tentpole property: once the reusable
// payload buffer has grown to the largest frame seen, the frame hot path —
// reuse-mode reads and writes — allocates nothing.
func TestFrameReadWriteZeroAlloc(t *testing.T) {
	wire := benchFrames(t)
	src := &rewindReader{data: wire}
	fr := &Framer{r: src, w: io.Discard}
	// Warm up: grows fr.payload to the largest frame in the mix.
	if _, err := fr.ReadFrameReuse(); err != nil {
		t.Fatal(err)
	}
	src.rewind()

	out := &Frame{Type: FrameData, StreamID: 1, Payload: bytes.Repeat([]byte("w"), 4096)}
	if n := testing.AllocsPerRun(200, func() {
		src.rewind()
		for i := 0; i < 3; i++ {
			f, err := fr.ReadFrameReuse()
			if err != nil {
				t.Fatal(err)
			}
			if err := fr.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := fr.WriteFrame(out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("frame read/write hot path allocates %.1f times per iteration, want 0", n)
	}
}

// TestHPACKEncodeZeroAlloc pins the encoder's steady state: re-encoding a
// header set already resident in the dynamic table emits only indexed
// fields into a caller-reused buffer, with zero allocations.
func TestHPACKEncodeZeroAlloc(t *testing.T) {
	enc := NewHPACKEncoder()
	fields := []HeaderField{
		{":method", "GET"},
		{":path", "/index.html"},
		{":scheme", "https"},
		{":authority", "www.example.com"},
		{"link", "<https://cdn.example.com/a.js>; rel=preload"},
		{"cache-control", "max-age=600"},
	}
	// First encode populates the dynamic table and sizes the buffer.
	buf := enc.Encode(nil, fields)
	if n := testing.AllocsPerRun(200, func() {
		buf = enc.Encode(buf[:0], fields)
	}); n != 0 {
		t.Fatalf("steady-state HPACK encode allocates %.1f times per run, want 0", n)
	}
}

// TestControlFrameWritesZeroAlloc covers the conn-level bookkeeping frames
// sent per received DATA frame: WINDOW_UPDATE and RST_STREAM from the
// conn's control scratch.
func TestControlFrameWritesZeroAlloc(t *testing.T) {
	c := &conn{fr: &Framer{w: io.Discard}}
	if n := testing.AllocsPerRun(200, func() {
		if err := c.writeWindowUpdate(0, 4096); err != nil {
			t.Fatal(err)
		}
		if err := c.writeWindowUpdate(1, 4096); err != nil {
			t.Fatal(err)
		}
		if err := c.writeRst(3, ErrCancel); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("control frame writes allocate %.1f times per run, want 0", n)
	}
}

// BenchmarkFrameReadWrite measures the frame hot path: reuse-mode reads of
// a mixed frame stream plus a write per frame. The repository benchmark's
// h2.frame_write_read_ns row times the same path end to end; the alloc
// figure is the one the zero-alloc tests pin.
func BenchmarkFrameReadWrite(b *testing.B) {
	wire := benchFrames(b)
	src := &rewindReader{data: wire}
	fr := &Framer{r: src, w: io.Discard}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.rewind()
		for {
			f, err := fr.ReadFrameReuse()
			if err != nil {
				break
			}
			if err := fr.WriteFrame(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHPACKEncode measures steady-state header-block encoding of a
// repeated header set (all dynamic-table hits after the first pass).
func BenchmarkHPACKEncode(b *testing.B) {
	enc := NewHPACKEncoder()
	fields := []HeaderField{
		{":method", "GET"},
		{":path", "/index.html"},
		{":scheme", "https"},
		{":authority", "www.example.com"},
		{"link", "<https://cdn.example.com/a.js>; rel=preload"},
		{"cache-control", "max-age=600"},
	}
	buf := enc.Encode(nil, fields)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.Encode(buf[:0], fields)
	}
}

// BenchmarkHPACKDecode measures the decoder on a block of indexed fields —
// the read-loop counterpart of BenchmarkHPACKEncode.
func BenchmarkHPACKDecode(b *testing.B) {
	enc := NewHPACKEncoder()
	dec := NewHPACKDecoder()
	fields := []HeaderField{
		{":method", "GET"},
		{":path", "/index.html"},
		{":status", "200"},
		{"content-type", "text/html"},
	}
	// Encode twice so the benchmark block is all dynamic-table hits.
	block := enc.Encode(nil, fields)
	if _, err := dec.Decode(block); err != nil {
		b.Fatal(err)
	}
	block = enc.Encode(nil, fields)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(block); err != nil {
			b.Fatal(err)
		}
	}
}
