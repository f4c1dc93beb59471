package h2

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"vroom/internal/obs"
	"vroom/internal/telemetry"
)

// Server-side metric families.
const (
	metricServerConns   = "vroom_h2_server_conns"
	metricServerStreams = "vroom_h2_server_streams"
	metricServerDrain   = "vroom_h2_server_draining"
	metricServerRefused = "vroom_h2_server_refused_total"
)

// Request is an HTTP/2 request (or the synthetic request of a push
// promise).
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    map[string][]string
	Body      []byte
}

// Response is a complete HTTP/2 response.
type Response struct {
	Status int
	Header map[string][]string
	Body   []byte
	// Pushed marks responses delivered via server push.
	Pushed bool
	// Request echoes what this response answers.
	Request *Request
}

// Handler serves HTTP/2 requests.
type Handler interface {
	ServeH2(w *ResponseWriter, r *Request)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(w *ResponseWriter, r *Request)

// ServeH2 implements Handler.
func (f HandlerFunc) ServeH2(w *ResponseWriter, r *Request) { f(w, r) }

// Server is a minimal HTTP/2 (h2c) server with push support.
type Server struct {
	Handler Handler

	// Overloaded, when set, is consulted before a handler goroutine is
	// started for a new stream; returning true refuses the stream with
	// RST_STREAM(REFUSED_STREAM) — the same retryable refusal draining
	// uses — so a saturated server sheds load before spending a goroutine
	// on it. Set before Serve.
	Overloaded func() bool

	// Trace, when non-nil, records the connection and drain lifecycle on
	// obs.TrackServer (accepts, refused streams, GOAWAY emission). Use
	// obs.NewWall; connections emit concurrently. Set before Serve.
	Trace *obs.Tracer
	// Metrics, when non-nil, exposes live gauges (open connections, active
	// handler streams, draining) and a refused-stream counter. Set before
	// Serve.
	Metrics *telemetry.Registry

	mu      sync.Mutex
	conns   map[*serverConn]struct{}
	done    bool
	serving bool // Serve was called

	gConns   *telemetry.Gauge
	gStreams *telemetry.Gauge
	gDrain   *telemetry.Gauge
	cRefused *telemetry.Counter
	instrOK  bool
}

// instruments resolves the server's telemetry handles once, under s.mu.
func (s *Server) instruments() {
	if s.instrOK {
		return
	}
	s.instrOK = true
	if s.Metrics == nil {
		return
	}
	s.Metrics.Describe(metricServerConns, "Open HTTP/2 server connections.")
	s.Metrics.Describe(metricServerStreams, "HTTP/2 handler streams currently running.")
	s.Metrics.Describe(metricServerDrain, "Whether the server is draining (GOAWAY sent).")
	s.Metrics.Describe(metricServerRefused, "Streams refused with REFUSED_STREAM during drain.")
	s.gConns = s.Metrics.Gauge(metricServerConns)
	s.gStreams = s.Metrics.Gauge(metricServerStreams)
	s.gDrain = s.Metrics.Gauge(metricServerDrain)
	s.cRefused = s.Metrics.Counter(metricServerRefused)
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.serving = true
	s.mu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.done
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		sc := &serverConn{conn: newConn(nc, roleServer), srv: s}
		s.mu.Lock()
		s.instruments()
		if s.conns == nil {
			s.conns = make(map[*serverConn]struct{})
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.gConns.Inc()
		if s.Trace.Enabled() {
			sc.span = s.Trace.Begin(obs.TrackServer, "conn",
				obs.Arg{Key: "remote", Val: nc.RemoteAddr().String()})
		}
		go sc.serve()
	}
}

// Close shuts down all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.conn.closeWithError(fmt.Errorf("h2: server closed"))
	}
}

// Drain shuts the server down gracefully: every connection gets a GOAWAY
// (NO_ERROR) advertising the last stream its handler actually started, new
// streams are refused with RST_STREAM(REFUSED_STREAM) — which clients
// classify as safely retryable elsewhere — and in-flight handlers get up to
// timeout to finish before the connections close. The caller closes its
// listener; Drain marks the server done so Serve returns nil when it does.
// A server that never served has nothing to drain and records nothing.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	s.done = true
	if !s.serving {
		s.mu.Unlock()
		return
	}
	s.instruments()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	s.gDrain.Set(1)
	var span obs.Span
	if s.Trace.Enabled() {
		span = s.Trace.Begin(obs.TrackServer, "drain",
			obs.Arg{Key: "conns", Val: strconv.Itoa(len(conns))})
	}
	defer span.End()
	for _, sc := range conns {
		sc.mu.Lock()
		sc.draining = true
		last := sc.lastStarted
		sc.mu.Unlock()
		_ = sc.conn.writeFrame(&Frame{Type: FrameGoAway,
			Payload: goAwayPayload(last, ErrNone, "draining")})
	}
	deadline := time.Now().Add(timeout)
	for _, sc := range conns {
		for {
			sc.mu.Lock()
			active := sc.active
			sc.mu.Unlock()
			if active == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		sc.conn.closeWithError(fmt.Errorf("h2: server drained"))
	}
}

// serverConn handles one accepted connection.
type serverConn struct {
	conn *conn
	srv  *Server

	mu sync.Mutex
	// active counts running handlers; drain waits for it to reach zero.
	active int
	// lastStarted is the highest client stream a handler was started for,
	// advertised in the drain GOAWAY.
	lastStarted uint32
	draining    bool
	// promised is what PushOnce pushed on this connection; nil until then.
	promised map[pushKey]bool
	// span covers accept to connection close when tracing is on.
	span obs.Span
}

// pushKey identifies a pushed request.
type pushKey struct{ scheme, authority, path string }

func (sc *serverConn) serve() {
	defer sc.conn.closeWithError(io.EOF)
	defer func() {
		sc.srv.mu.Lock()
		delete(sc.srv.conns, sc)
		sc.srv.mu.Unlock()
		sc.srv.gConns.Dec()
		sc.span.End()
	}()
	// Connection preface: client magic, then SETTINGS both ways.
	buf := make([]byte, len(ClientPreface))
	if _, err := io.ReadFull(sc.conn.nc, buf); err != nil || string(buf) != ClientPreface {
		return
	}
	if err := sc.conn.writeFrame(&Frame{Type: FrameSettings, Payload: encodeSettings(nil)}); err != nil {
		return
	}
	for {
		// Reuse-mode reads: the frame payload is only valid until the next
		// iteration. dispatch copies anything it keeps (request bodies and
		// partial header blocks append-copy; header blocks decode into
		// strings synchronously).
		f, err := sc.conn.fr.ReadFrameReuse()
		if err != nil {
			if ce, ok := err.(ConnError); ok {
				sc.conn.goAway(ce.Code, ce.Reason)
			}
			return
		}
		if err := sc.dispatch(f); err != nil {
			if ce, ok := err.(ConnError); ok {
				sc.conn.goAway(ce.Code, ce.Reason)
			}
			return
		}
	}
}

func (sc *serverConn) dispatch(f *Frame) error {
	c := sc.conn
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
		if f.StreamID == 0 || f.StreamID%2 == 0 {
			return ConnError{Code: ErrProtocol, Reason: "HEADERS on invalid stream id"}
		}
		complete, err := c.beginHeaderBlock(f, 0, f.Payload)
		if err != nil || !complete {
			return err
		}
		return sc.applyHeaders(f.StreamID, f.Payload, f.EndStream())
	case FrameContinuation:
		done, err := c.continueHeaderBlock(f)
		if err != nil || done == nil {
			return err
		}
		return sc.applyHeaders(done.streamID, done.block, done.endStream)
	case FrameData:
		s := c.stream(f.StreamID)
		if s == nil {
			return ConnError{Code: ErrProtocol, Reason: "DATA on unknown stream"}
		}
		s.body = append(s.body, f.Payload...)
		if err := c.consumeData(f.StreamID, len(f.Payload)); err != nil {
			return err
		}
		if f.EndStream() {
			sc.startHandler(s)
		}
		return nil
	case FrameRSTStream:
		if s := c.stream(f.StreamID); s != nil {
			c.mu.Lock()
			s.rst = true
			c.mu.Unlock()
			c.finishStream(s)
			c.sendCond.Broadcast()
		}
		return nil
	case FrameGoAway:
		return io.EOF
	default:
		return nil // ignore PRIORITY and unknown extension frames
	}
}

// applyHeaders installs a complete, decoded header block on a stream.
func (sc *serverConn) applyHeaders(streamID uint32, block []byte, endStream bool) error {
	fields, err := sc.conn.dec.Decode(block)
	if err != nil {
		return err
	}
	s := sc.conn.remoteStream(streamID)
	s.headers = fields
	if endStream {
		sc.startHandler(s)
	}
	return nil
}

func (sc *serverConn) startHandler(s *stream) {
	sc.mu.Lock()
	if sc.draining || (sc.srv.Overloaded != nil && sc.srv.Overloaded()) {
		// Past the drain GOAWAY or over the admission ceiling: this stream
		// was never processed, so a REFUSED_STREAM reset lets the client
		// replay it safely elsewhere (or later).
		sc.mu.Unlock()
		sc.srv.cRefused.Inc()
		if sc.srv.Trace.Enabled() {
			sc.srv.Trace.Instant(obs.TrackServer, "stream-refused",
				obs.Arg{Key: "stream", Val: strconv.FormatUint(uint64(s.id), 10)})
		}
		_ = sc.conn.writeRst(s.id, ErrRefusedStream)
		return
	}
	if s.id > sc.lastStarted {
		sc.lastStarted = s.id
	}
	sc.mu.Unlock()
	req, err := requestFromFields(s.headers)
	if err != nil {
		_ = sc.conn.writeRst(s.id, ErrProtocol)
		return
	}
	req.Body = s.body
	w := &ResponseWriter{sc: sc, streamID: s.id, header: make(map[string][]string), status: 200}
	handler := sc.srv.Handler
	sc.mu.Lock()
	sc.active++
	sc.mu.Unlock()
	sc.srv.gStreams.Inc()
	go func() {
		defer func() {
			sc.mu.Lock()
			sc.active--
			sc.mu.Unlock()
			sc.srv.gStreams.Dec()
		}()
		if handler != nil {
			handler.ServeH2(w, req)
		}
		_ = w.Close()
	}()
}

// requestFromFields converts decoded HPACK fields into a Request.
func requestFromFields(fields []HeaderField) (*Request, error) {
	req := &Request{Header: make(map[string][]string)}
	for _, f := range fields {
		switch f.Name {
		case ":method":
			req.Method = f.Value
		case ":scheme":
			req.Scheme = f.Value
		case ":authority":
			req.Authority = f.Value
		case ":path":
			req.Path = f.Value
		default:
			if strings.HasPrefix(f.Name, ":") {
				return nil, fmt.Errorf("h2: unknown pseudo-header %q", f.Name)
			}
			req.Header[f.Name] = append(req.Header[f.Name], f.Value)
		}
	}
	if req.Method == "" || req.Path == "" {
		return nil, fmt.Errorf("h2: missing required pseudo-headers")
	}
	return req, nil
}

// ResponseWriter lets a handler reply on its stream and push related
// resources.
type ResponseWriter struct {
	sc       *serverConn
	streamID uint32

	mu          sync.Mutex
	header      map[string][]string
	status      int
	wroteHeader bool
	closed      bool
}

// Header returns the response headers; mutate before the first Write.
func (w *ResponseWriter) Header() map[string][]string { return w.header }

// WriteHeader sets the status and flushes the header block.
func (w *ResponseWriter) WriteHeader(status int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeHeaderLocked(status, false)
}

func (w *ResponseWriter) writeHeaderLocked(status int, endStream bool) error {
	if w.wroteHeader {
		return nil
	}
	w.wroteHeader = true
	w.status = status
	fields := []HeaderField{{Name: ":status", Value: strconv.Itoa(status)}}
	fields = append(fields, sortedFields(w.header)...)
	return w.sc.conn.writeHeaderBlock(w.streamID, fields, endStream, 0)
}

// Write sends body bytes (flushing headers first if needed).
func (w *ResponseWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	if !w.wroteHeader {
		if err := w.writeHeaderLocked(w.status, false); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	w.mu.Unlock()
	s := w.sc.conn.stream(w.streamID)
	if s == nil {
		return 0, fmt.Errorf("h2: write on closed stream %d", w.streamID)
	}
	if err := w.sc.conn.writeData(s, p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close ends the response stream.
func (w *ResponseWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if !w.wroteHeader {
		err := w.writeHeaderLocked(w.status, true)
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	s := w.sc.conn.stream(w.streamID)
	if s == nil {
		return nil
	}
	return w.sc.conn.writeData(s, nil, true)
}

// Push emits a PUSH_PROMISE for the given request on this response's
// stream and returns a writer for the pushed response. It fails if the
// client disabled push.
func (w *ResponseWriter) Push(req *Request) (*ResponseWriter, error) {
	c := w.sc.conn
	c.mu.Lock()
	enabled := c.pushEnabled
	c.mu.Unlock()
	if !enabled {
		return nil, fmt.Errorf("h2: peer disabled push")
	}
	promised := c.newStream()
	fields := []HeaderField{
		{Name: ":method", Value: orGET(req.Method)},
		{Name: ":scheme", Value: req.Scheme},
		{Name: ":authority", Value: req.Authority},
		{Name: ":path", Value: req.Path},
	}
	fields = append(fields, sortedFields(req.Header)...)
	if err := c.writeHeaderBlock(w.streamID, fields, false, promised.id); err != nil {
		return nil, err
	}
	return &ResponseWriter{sc: w.sc, streamID: promised.id, header: make(map[string][]string), status: 200}, nil
}

// PushOnce is Push for a request not yet pushed on this connection, the
// scope RFC 7540 §8.2 gives a push. A repeat pushes nothing and returns a
// nil writer and a nil error.
func (w *ResponseWriter) PushOnce(req *Request) (*ResponseWriter, error) {
	key := pushKey{req.Scheme, req.Authority, req.Path}
	sc := w.sc
	sc.mu.Lock()
	if sc.promised == nil {
		sc.promised = make(map[pushKey]bool)
	}
	repeat := sc.promised[key]
	sc.promised[key] = true
	sc.mu.Unlock()
	if repeat {
		return nil, nil
	}
	return w.Push(req)
}

func orGET(m string) string {
	if m == "" {
		return "GET"
	}
	return m
}

// sortedFields flattens a header map deterministically.
func sortedFields(h map[string][]string) []HeaderField {
	names := make([]string, 0, len(h))
	for n := range h {
		names = append(names, n)
	}
	// Insertion sort keeps this tiny and allocation-light.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	var out []HeaderField
	for _, n := range names {
		for _, v := range h[n] {
			out = append(out, HeaderField{Name: strings.ToLower(n), Value: v})
		}
	}
	return out
}
