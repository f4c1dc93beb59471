package h2

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

func TestMaxFrameSizeValidation(t *testing.T) {
	fr := &Framer{}
	for _, bad := range []uint32{0, 1, maxFrameSize - 1, absMaxFrameSize + 1, 1 << 30} {
		var ce ConnError
		if err := fr.SetMaxWriteFrameSize(bad); !errors.As(err, &ce) || ce.Code != ErrProtocol {
			t.Errorf("SetMaxWriteFrameSize(%d) = %v, want PROTOCOL_ERROR", bad, err)
		}
	}
	for _, ok := range []uint32{maxFrameSize, maxFrameSize + 1, absMaxFrameSize} {
		if err := fr.SetMaxWriteFrameSize(ok); err != nil {
			t.Errorf("SetMaxWriteFrameSize(%d) = %v, want nil", ok, err)
		}
	}
	// A rejected value must not change the effective limit.
	fr2 := &Framer{w: io.Discard}
	_ = fr2.SetMaxWriteFrameSize(1 << 30)
	if got := fr2.MaxWriteFrameSize(); got != maxFrameSize {
		t.Errorf("limit moved to %d after rejected setting", got)
	}
}

// TestWriteFrameRespectsPeerMax covers the negotiation direction the old
// compile-time constant got wrong: a peer that advertises a larger
// SETTINGS_MAX_FRAME_SIZE unlocks bigger writes, and one that lowers it
// again immediately shrinks what WriteFrame accepts.
func TestWriteFrameRespectsPeerMax(t *testing.T) {
	fr := &Framer{w: io.Discard}
	big := &Frame{Type: FrameData, StreamID: 1, Payload: make([]byte, 20000)}

	// Default limit: 20000 bytes is oversized.
	var ce ConnError
	if err := fr.WriteFrame(big); !errors.As(err, &ce) || ce.Code != ErrFrameSize {
		t.Fatalf("oversized write under default limit: %v, want FRAME_SIZE_ERROR", err)
	}
	// Peer raises its max: the same frame now fits.
	if err := fr.SetMaxWriteFrameSize(32768); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteFrame(big); err != nil {
		t.Fatalf("write within raised limit failed: %v", err)
	}
	// Peer lowers its max back down: the write must fail again.
	if err := fr.SetMaxWriteFrameSize(maxFrameSize); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteFrame(big); !errors.As(err, &ce) || ce.Code != ErrFrameSize {
		t.Fatalf("oversized write after peer lowered max: %v, want FRAME_SIZE_ERROR", err)
	}
}

func TestReadFrameEnforcesAdvertisedMax(t *testing.T) {
	encode := func(payloadLen int) []byte {
		var buf bytes.Buffer
		fw := &Framer{w: &buf}
		fw.SetMaxWriteFrameSize(absMaxFrameSize)
		if err := fw.WriteFrame(&Frame{Type: FrameData, StreamID: 1, Payload: make([]byte, payloadLen)}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Past the advertised (protocol initial) max: a FRAME_SIZE_ERROR.
	fr := &Framer{r: bytes.NewReader(encode(maxFrameSize + 1))}
	var ce ConnError
	if _, err := fr.ReadFrame(); !errors.As(err, &ce) || ce.Code != ErrFrameSize {
		t.Fatalf("oversized read = %v, want FRAME_SIZE_ERROR", err)
	}
	// A frame of exactly the max reads fine.
	fr = &Framer{r: bytes.NewReader(encode(maxFrameSize))}
	f, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != maxFrameSize {
		t.Fatalf("payload %d bytes, want %d", len(f.Payload), maxFrameSize)
	}
}

// connPair builds two conn cores over a pipe; the remote end is drained so
// acks written by handleSettings never block the test.
func connPair(t *testing.T) (*conn, net.Conn) {
	t.Helper()
	local, remote := net.Pipe()
	c := newConn(local, roleClient)
	t.Cleanup(func() { local.Close(); remote.Close() })
	return c, remote
}

func TestConnAppliesPeerMaxFrameSize(t *testing.T) {
	c, remote := connPair(t)
	go io.Copy(io.Discard, remote) // drain the SETTINGS ack
	f := &Frame{Type: FrameSettings, Payload: encodeSettings([]Setting{{SettingMaxFrameSize, 32768}})}
	if err := c.handleSettings(f); err != nil {
		t.Fatal(err)
	}
	if got := c.fr.MaxWriteFrameSize(); got != 32768 {
		t.Fatalf("write limit %d after peer advertised 32768", got)
	}
}

func TestConnRejectsInvalidMaxFrameSizeSetting(t *testing.T) {
	c, _ := connPair(t)
	f := &Frame{Type: FrameSettings, Payload: encodeSettings([]Setting{{SettingMaxFrameSize, 1024}})}
	var ce ConnError
	if err := c.handleSettings(f); !errors.As(err, &ce) || ce.Code != ErrProtocol {
		t.Fatalf("invalid SETTINGS_MAX_FRAME_SIZE = %v, want PROTOCOL_ERROR", err)
	}
	// The bogus value must not have moved the limit.
	if got := c.fr.MaxWriteFrameSize(); got != maxFrameSize {
		t.Fatalf("write limit %d after rejected setting", got)
	}
}
