package h2

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// rstPayload builds a RST_STREAM payload.
func rstPayload(code ErrCode) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(code))
	return b[:]
}

// rawServe runs a scripted fake server: it accepts one connection, performs
// the server half of the h2 handshake, and hands the framer to script. Tests
// use it to inject exact frame sequences (RST codes, GOAWAY boundaries) that
// the real Server never emits on demand.
func rawServe(t *testing.T, script func(nc net.Conn, fr *Framer)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer l.Close()
		buf := make([]byte, len(ClientPreface))
		if _, err := io.ReadFull(nc, buf); err != nil {
			return
		}
		fr := NewFramer(nc)
		_ = fr.WriteFrame(&Frame{Type: FrameSettings})
		script(nc, fr)
	}()
	return l.Addr().String()
}

func get(path string) *Request {
	return &Request{Method: "GET", Scheme: "http", Authority: "a", Path: path}
}

func TestRSTStreamRetryability(t *testing.T) {
	cases := []struct {
		code      ErrCode
		retryable bool
	}{
		{ErrRefusedStream, true}, // server guarantees it never processed the stream
		{ErrCancel, true},        // idempotent GETs replay safely
		{ErrProtocol, false},     // a replay would hit the same bug
		{ErrInternal, false},
	}
	for _, tc := range cases {
		t.Run(tc.code.String(), func(t *testing.T) {
			addr := rawServe(t, func(nc net.Conn, fr *Framer) {
				defer nc.Close()
				for {
					f, err := fr.ReadFrame()
					if err != nil {
						return
					}
					if f.Type == FrameHeaders {
						_ = fr.WriteFrame(&Frame{Type: FrameRSTStream, StreamID: f.StreamID, Payload: rstPayload(tc.code)})
					}
				}
			})
			cc := dialClient(t, addr)
			defer cc.Close()
			_, err := cc.RoundTrip(get("/r"))
			var se StreamError
			if !errors.As(err, &se) || se.Code != tc.code {
				t.Fatalf("RoundTrip error = %v, want StreamError %s", err, tc.code)
			}
			if got := Retryable(err); got != tc.retryable {
				t.Fatalf("Retryable(%v) = %v, want %v", err, got, tc.retryable)
			}
		})
	}
}

func TestGoAwayMidLoadClassifiesPending(t *testing.T) {
	headersCh := make(chan uint32, 2)
	goCh := make(chan struct{})
	addr := rawServe(t, func(nc net.Conn, fr *Framer) {
		defer nc.Close()
		for n := 0; n < 2; {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if f.Type == FrameHeaders {
				headersCh <- f.StreamID
				n++
			}
		}
		<-goCh
		// Stream 1 is covered, stream 3 is declared unprocessed.
		_ = fr.WriteFrame(&Frame{Type: FrameGoAway, Payload: goAwayPayload(1, ErrNone, "shedding")})
		time.Sleep(50 * time.Millisecond)
	})
	cc := dialClient(t, addr)
	defer cc.Close()
	err1Ch := make(chan error, 1)
	err3Ch := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(get("/a"))
		err1Ch <- err
	}()
	<-headersCh // stream 1 reached the server; the next request gets id 3
	go func() {
		_, err := cc.RoundTrip(get("/b"))
		err3Ch <- err
	}()
	<-headersCh
	close(goCh)

	err3 := <-err3Ch
	var se StreamError
	if !errors.As(err3, &se) || se.Code != ErrRefusedStream {
		t.Fatalf("stream above GOAWAY boundary: %v, want REFUSED_STREAM", err3)
	}
	if !Retryable(err3) {
		t.Fatal("unprocessed stream after GOAWAY must be retryable")
	}
	err1 := <-err1Ch
	var ga GoAwayError
	if !errors.As(err1, &ga) || ga.LastStreamID != 1 {
		t.Fatalf("stream below GOAWAY boundary: %v, want GoAwayError last=1", err1)
	}
	if !Retryable(err1) {
		t.Fatal("graceful GOAWAY must be retryable for idempotent requests")
	}
	// The gone-away connection fails new round trips fast.
	if _, err := cc.RoundTrip(get("/c")); !errors.As(err, &ga) {
		t.Fatalf("round trip on gone-away conn: %v, want GoAwayError", err)
	}
}

func TestGoAwayOrphansPushPromises(t *testing.T) {
	headersSeen := make(chan struct{}, 1)
	sendGoAway := make(chan struct{})
	addr := rawServe(t, func(nc net.Conn, fr *Framer) {
		defer nc.Close()
		enc := NewHPACKEncoder()
		for {
			f, err := fr.ReadFrame()
			if err != nil {
				return
			}
			if f.Type != FrameHeaders {
				continue
			}
			block := enc.Encode(nil, []HeaderField{
				{":method", "GET"}, {":scheme", "http"},
				{":authority", "a"}, {":path", "/push.css"},
			})
			payload := append([]byte{0, 0, 0, 2}, block...)
			_ = fr.WriteFrame(&Frame{Type: FramePushPromise, Flags: FlagEndHeaders, StreamID: f.StreamID, Payload: payload})
			headersSeen <- struct{}{}
			<-sendGoAway
			// The promise never completes: GOAWAY, then the conn dies.
			_ = fr.WriteFrame(&Frame{Type: FrameGoAway, Payload: goAwayPayload(f.StreamID, ErrNone, "bye")})
			return
		}
	})
	cc := dialClient(t, addr)
	defer cc.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := cc.RoundTrip(get("/"))
		errCh <- err
	}()
	<-headersSeen
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := cc.Promised("/push.css"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("push promise never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(sendGoAway)
	<-cc.readDone
	if _, ok := cc.Promised("/push.css"); ok {
		t.Fatal("orphaned push promise survived connection teardown")
	}
	var ga GoAwayError
	if err := <-errCh; !errors.As(err, &ga) || ga.LastStreamID != 1 {
		t.Fatalf("pending stream error = %v, want GoAwayError last=1", err)
	}
}

func TestRoundTripTimeoutHeaders(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr, stop := startServer(t, HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/slow" {
			<-release
		}
		w.Write([]byte("ok"))
	}))
	defer stop()
	cc := dialClient(t, addr)
	defer cc.Close()
	_, err := cc.RoundTripTimeout(get("/slow"), 50*time.Millisecond, 0)
	var te *TimeoutError
	if !errors.As(err, &te) || te.Phase != "headers" {
		t.Fatalf("slow headers: %v, want TimeoutError(headers)", err)
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError must report Timeout() = true")
	}
	// The timeout reset only the stream; the connection still works.
	resp, err := cc.RoundTrip(get("/fast"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("conn did not survive a stream timeout: %v (%+v)", err, resp)
	}
}

func TestRoundTripTimeoutBodyStall(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr, stop := startServer(t, HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Write([]byte("partial"))
		<-release
		w.Write([]byte("rest"))
	}))
	defer stop()
	cc := dialClient(t, addr)
	defer cc.Close()
	_, err := cc.RoundTripTimeout(get("/stall"), time.Second, 100*time.Millisecond)
	var te *TimeoutError
	if !errors.As(err, &te) || te.Phase != "body" {
		t.Fatalf("stalled body: %v, want TimeoutError(body)", err)
	}
}

func TestServerDrainFinishesInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		started <- struct{}{}
		<-release
		w.Write([]byte("done"))
	})}
	go srv.Serve(l)
	cc := dialClient(t, l.Addr().String())
	defer cc.Close()
	type result struct {
		resp *Response
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := cc.RoundTrip(get("/hang"))
		resCh <- result{resp, err}
	}()
	<-started
	drained := make(chan struct{})
	go func() {
		srv.Drain(2 * time.Second)
		close(drained)
	}()
	time.Sleep(50 * time.Millisecond) // let the GOAWAY land client-side
	close(release)
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed across drain: %v", res.err)
	}
	if string(res.resp.Body) != "done" {
		t.Fatalf("in-flight body %q", res.resp.Body)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed")
	}
	<-cc.readDone
	_, err = cc.RoundTrip(get("/new"))
	var ga GoAwayError
	if !errors.As(err, &ga) || ga.Code != ErrNone {
		t.Fatalf("round trip after drain: %v, want graceful GoAwayError", err)
	}
	if !Retryable(err) {
		t.Fatal("drained-conn error must be retryable")
	}
}

func TestServerDrainRefusesNewStreams(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		started <- struct{}{}
		<-release
		w.Write([]byte("late"))
	})}
	go srv.Serve(l)

	// Raw client: the real one fails fast after GOAWAY, so drive frames by
	// hand to observe the server's refusal of post-drain streams.
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write([]byte(ClientPreface)); err != nil {
		t.Fatal(err)
	}
	fr := NewFramer(nc)
	if err := fr.WriteFrame(&Frame{Type: FrameSettings}); err != nil {
		t.Fatal(err)
	}
	enc := NewHPACKEncoder()
	reqBlock := func(path string) []byte {
		return enc.Encode(nil, []HeaderField{
			{":method", "GET"}, {":scheme", "http"},
			{":authority", "a"}, {":path", path},
		})
	}
	if err := fr.WriteFrame(&Frame{Type: FrameHeaders, Flags: FlagEndHeaders | FlagEndStream,
		StreamID: 1, Payload: reqBlock("/hang")}); err != nil {
		t.Fatal(err)
	}
	<-started
	go srv.Drain(2 * time.Second)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("conn died before GOAWAY: %v", err)
		}
		if f.Type != FrameGoAway {
			continue
		}
		last, code, _, err := parseGoAway(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if code != ErrNone || last != 1 {
			t.Fatalf("drain GOAWAY code=%s last=%d, want NO_ERROR last=1", code, last)
		}
		break
	}
	// A stream opened after the drain GOAWAY must be refused, not served.
	if err := fr.WriteFrame(&Frame{Type: FrameHeaders, Flags: FlagEndHeaders | FlagEndStream,
		StreamID: 3, Payload: reqBlock("/new")}); err != nil {
		t.Fatal(err)
	}
	close(release)
	var gotRefused, gotInFlight bool
	for !gotRefused || !gotInFlight {
		f, err := fr.ReadFrame()
		if err != nil {
			break
		}
		switch f.Type {
		case FrameRSTStream:
			if f.StreamID != 3 {
				continue
			}
			code, err := parseRst(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if code != ErrRefusedStream {
				t.Fatalf("post-drain stream reset with %s, want REFUSED_STREAM", code)
			}
			gotRefused = true
		case FrameData:
			if f.StreamID == 1 && f.EndStream() {
				gotInFlight = true
			}
		}
	}
	if !gotRefused {
		t.Fatal("stream opened after drain was not refused")
	}
	if !gotInFlight {
		t.Fatal("in-flight stream did not finish during drain")
	}
}
