package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"vroom/internal/core"
	"vroom/internal/h1"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/hintstore/persist"
	"vroom/internal/netem"
	"vroom/internal/obs"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// must aborts on a probe set-up error: a probe that cannot run would leave
// its metric out of the output.
func must(err error) {
	if err != nil {
		fatal("probe: %v", err)
	}
}

// hpackChunk is how many header blocks a probe codes on one HPACK table
// before starting a fresh one, as a connection's worth of requests would.
const hpackChunk = 4096

func probeH2(p *prober) {
	// Framer: a 16 KiB DATA frame and a small HEADERS frame, written and
	// read back through an in-memory buffer.
	var wireBuf bytes.Buffer
	fr := h2.NewFramer(&wireBuf)
	data := &h2.Frame{Type: h2.FrameData, StreamID: 1, Payload: make([]byte, 16<<10)}
	head := &h2.Frame{Type: h2.FrameHeaders, Flags: h2.FlagEndHeaders, StreamID: 1, Payload: make([]byte, 64)}
	p.time("h2.frame_write_read_ns", time.Nanosecond, "h2.frame_write_read_allocs", func() {
		must(fr.WriteFrame(head))
		must(fr.WriteFrame(data))
		for i := 0; i < 2; i++ {
			_, err := fr.ReadFrameReuse()
			must(err)
		}
	})

	// HPACK on a request-sized field set: what wire.Client sends, a new
	// path every request.
	reqFields := make([][]h2.HeaderField, hpackChunk)
	reqBlocks := make([][]byte, hpackChunk)
	enc := h2.NewHPACKEncoder()
	for i := range reqFields {
		reqFields[i] = []h2.HeaderField{
			{Name: ":method", Value: "GET"}, {Name: ":scheme", Value: "https"},
			{Name: ":authority", Value: "static.probe000000.com"},
			{Name: ":path", Value: fmt.Sprintf("/img/photo%d-%010x.jpg", i%40, i)},
			{Name: wire.HeaderDeadline, Value: "5000"},
		}
		reqBlocks[i] = enc.Encode(nil, reqFields[i])
	}
	var buf []byte
	d, _ := p.measure(func(n int, _ *stopwatch) {
		for done := 0; done < n; done += hpackChunk {
			e := h2.NewHPACKEncoder()
			for i := 0; i < hpackChunk && done+i < n; i++ {
				buf = e.Encode(buf[:0], reqFields[i])
			}
		}
	})
	p.set("h2.hpack_encode_req_ns", per(d, time.Nanosecond))
	d, a := p.measure(func(n int, _ *stopwatch) {
		for done := 0; done < n; done += hpackChunk {
			dec := h2.NewHPACKDecoder()
			for i := 0; i < hpackChunk && done+i < n; i++ {
				_, err := dec.Decode(reqBlocks[i])
				must(err)
			}
		}
	})
	p.set("h2.hpack_decode_req_ns", per(d, time.Nanosecond))
	p.set("h2.hpack_decode_req_allocs", a)

	// HPACK on a document response's hint headers. The block is larger
	// than the dynamic table, so every field is a literal every time.
	hintFields := []h2.HeaderField{{Name: ":status", Value: "200"}, {Name: "content-type", Value: "text/html; charset=utf-8"}}
	for _, name := range []string{hints.HeaderLink, hints.HeaderSemi, hints.HeaderLow} {
		for _, v := range p.fix.headers[name] {
			hintFields = append(hintFields, h2.HeaderField{Name: name, Value: v})
		}
	}
	hintEnc, hintDec := h2.NewHPACKEncoder(), h2.NewHPACKDecoder()
	var block []byte
	p.time("h2.hpack_encode_hints_ns", time.Nanosecond, "", func() { block = hintEnc.Encode(block[:0], hintFields) })
	p.set("h2.hpack_hints_block_bytes", float64(len(block)))
	p.time("h2.hpack_decode_hints_ns", time.Nanosecond, "", func() {
		// Encoder and decoder tables move in step: one block each.
		block = hintEnc.Encode(block[:0], hintFields)
		_, err := hintDec.Decode(block)
		must(err)
	})
	p.set("h2.hpack_decode_hints_ns", p.values["h2.hpack_decode_hints_ns"]-p.values["h2.hpack_encode_hints_ns"])

	// Round trips through a live connection pair on a zero-delay link.
	bodies := map[string][]byte{"/1k": make([]byte, 1<<10), "/100k": make([]byte, 100<<10), "/10k": make([]byte, 10<<10)}
	srv := &h2.Server{Handler: h2.HandlerFunc(func(w *h2.ResponseWriter, r *h2.Request) {
		if r.Path == "/push" {
			for i := 0; i < 4; i++ {
				pw, err := w.Push(&h2.Request{Scheme: "https", Authority: r.Authority, Path: fmt.Sprintf("/pushed%d", i)})
				if err != nil {
					continue
				}
				go func() {
					pw.Write(bodies["/10k"])
					pw.Close()
				}()
			}
			w.Write(bodies["/1k"])
			return
		}
		w.Write(bodies[r.Path])
	})}
	link := netem.Listen(netem.LinkConfig{})
	go srv.Serve(link)
	nc, err := link.Dial()
	must(err)
	cc, err := h2.NewClientConn(nc)
	must(err)
	pushed := make(chan struct{}, 64) // OnPush must not block; 4 arrive per round trip
	cc.OnPush = func(*h2.Response) { pushed <- struct{}{} }
	get := func(path string) {
		_, err := cc.RoundTrip(&h2.Request{Method: "GET", Scheme: "https", Authority: "probe", Path: path})
		must(err)
	}
	p.time("h2.roundtrip_1k_us", time.Microsecond, "h2.roundtrip_1k_allocs", func() { get("/1k") })
	p.time("h2.roundtrip_100k_us", time.Microsecond, "", func() { get("/100k") })
	p.time("h2.push_roundtrip_us", time.Microsecond, "", func() {
		get("/push")
		for i := 0; i < 4; i++ {
			<-pushed
		}
	})
	cc.Close()
	srv.Close()
	link.Close()
}

func probeH1(p *prober) {
	resp := &h2.Response{Status: 200, Header: map[string][]string{"content-type": {"image/jpeg"}}, Body: make([]byte, 1<<10)}
	var wireBuf bytes.Buffer
	br := bufio.NewReader(&wireBuf)
	p.time("h1.codec_ns", time.Nanosecond, "h1.codec_allocs", func() {
		must(h1.WriteResponse(&wireBuf, resp, true))
		_, err := h1.ReadResponse(br)
		must(err)
	})

	bodies := map[string][]byte{"/1k": make([]byte, 1<<10), "/100k": make([]byte, 100<<10)}
	srv := &h1.Server{Handler: h1.HandlerFunc(func(r *h2.Request) *h2.Response {
		return &h2.Response{Status: 200, Header: map[string][]string{"content-type": {"image/jpeg"}}, Body: bodies[r.Path]}
	})}
	link := netem.Listen(netem.LinkConfig{})
	go srv.Serve(link)
	pool := &h1.Pool{Authority: "probe", Dial: link.Dial}
	get := func(path string) {
		_, err := pool.RoundTrip(&h2.Request{Method: "GET", Scheme: "https", Authority: "probe", Path: path})
		must(err)
	}
	p.time("h1.roundtrip_1k_us", time.Microsecond, "h1.roundtrip_1k_allocs", func() { get("/1k") })
	p.time("h1.roundtrip_100k_us", time.Microsecond, "", func() { get("/100k") })
	pool.Close()
	srv.Close()
	link.Close()
}

func probeNetem(p *prober) {
	// Throughput: 1 MiB in 16 KiB writes, read by a second goroutine.
	client, server := netem.Pipe(netem.LinkConfig{})
	chunk := make([]byte, 16<<10)
	d, _ := p.measure(func(n int, _ *stopwatch) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := io.CopyN(io.Discard, server, int64(n)<<20)
			must(err)
		}()
		for i := 0; i < n*64; i++ {
			_, err := client.Write(chunk)
			must(err)
		}
		wg.Wait()
	})
	p.set("netem.pipe_mb_per_s", float64(1<<20)/1e6/(d/1e9))

	// Round trip: one byte there, one byte back.
	go io.Copy(server, server)
	one := make([]byte, 1)
	p.time("netem.pipe_rtt_us", time.Microsecond, "", func() {
		_, err := client.Write(one)
		must(err)
		_, err = io.ReadFull(client, one)
		must(err)
	})
	client.Close()
}

func probeOverload(p *prober) {
	g := overload.NewGate(overload.Config{MaxConcurrent: 64})
	acquireRelease := func() {
		if g.Acquire(time.Time{}) == nil {
			g.Release()
		}
	}
	p.time("overload.acquire_release_ns", time.Nanosecond, "", acquireRelease)

	// The same from nproc goroutines at once; time per call is wall time
	// over all calls.
	workers := runtime.GOMAXPROCS(0)
	d, _ := p.measure(func(n int, _ *stopwatch) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i += workers {
					acquireRelease()
				}
			}()
		}
		wg.Wait()
	})
	p.set("overload.acquire_release_contended_ns", per(d, time.Nanosecond))

	// A full gate refusing a request whose client deadline has passed.
	full := overload.NewGate(overload.Config{MaxConcurrent: 1})
	must(full.Acquire(time.Time{}))
	expired := time.Now().Add(-time.Second)
	p.time("overload.shed_ns", time.Nanosecond, "", func() {
		if full.Acquire(expired) == nil {
			fatal("probe: saturated gate admitted a request")
		}
	})
}

// tableState is the durable form of the fixture's trained table.
func (f *fixture) tableState(origin string, version uint64) persist.TableState {
	return persist.TableState{Origin: origin, Version: version, TrainedAt: recordTime,
		Device: device, Resolver: f.resolver.Export()}
}

func probeHintstore(p *prober) {
	f := p.fix
	trainer := hintstore.SiteTrainer(f.tn.site, recordTime, device, core.DefaultResolverConfig())
	lookup := func(st *hintstore.Store, want hintstore.Source) func() {
		return func() {
			if hs, res := st.Lookup(f.tn.root, f.tn.body); res.Source != want || (want != hintstore.Miss && len(hs) == 0) {
				fatal("probe: lookup answered %v with %d hints, want %v", res.Source, len(hs), want)
			}
		}
	}

	fresh := hintstore.New(hintstore.Config{TTL: time.Hour})
	must(fresh.Register(f.tn.root.Host, device, trainer))
	p.time("hintstore.lookup_fresh_us", time.Microsecond, "hintstore.lookup_fresh_allocs", lookup(fresh, hintstore.Fresh))
	p.time("hintstore.register_ms", time.Millisecond, "", func() { must(fresh.Register(f.tn.root.Host, device, trainer)) })
	fresh.Drain(time.Second)

	empty := hintstore.New(hintstore.Config{})
	p.time("hintstore.lookup_miss_ns", time.Nanosecond, "", lookup(empty, hintstore.Miss))
	empty.Drain(time.Second)

	// Stale: an injected clock puts the table two TTLs in the past, and the
	// retrain the first stale lookup schedules blocks until the drain, so
	// every lookup of the probe is served stale-while-revalidate.
	var mu sync.Mutex
	now := recordTime
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	stale := hintstore.New(hintstore.Config{TTL: time.Hour, MaxStale: 24 * time.Hour, Clock: clock})
	first := true
	must(stale.Register(f.tn.root.Host, device, func(v uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		if first {
			first = false
			return trainer(v, cancel)
		}
		<-cancel
		return nil, fmt.Errorf("probe: retrain cancelled")
	}))
	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()
	p.time("hintstore.lookup_stale_us", time.Microsecond, "", lookup(stale, hintstore.Stale))
	stale.Drain(time.Second)

	// Restored: a second store opened over the state the first one left.
	dir, err := os.MkdirTemp(outDir(), "probe-restore-")
	must(err)
	defer os.RemoveAll(dir)
	durable := hintstore.Config{TTL: time.Hour, Persist: persist.Options{Dir: dir, Fsync: persist.FsyncNone}}
	writer, _, err := hintstore.NewDurable(durable)
	must(err)
	must(writer.Register(f.tn.root.Host, device, trainer))
	writer.Drain(time.Second)
	restored, _, err := hintstore.NewDurable(durable)
	must(err)
	p.time("hintstore.lookup_restored_us", time.Microsecond, "", func() {
		if hs, res := restored.Lookup(f.tn.root, f.tn.body); !res.Restored || len(hs) == 0 {
			fatal("probe: lookup on a restored store: restored=%v, %d hints", res.Restored, len(hs))
		}
	})
	restored.Drain(time.Second)

	// Parallel: nproc goroutines over 64 tenants sharing the fixture's
	// table.
	const tenants = 64
	many := hintstore.New(hintstore.Config{TTL: time.Hour})
	docs := make([]urlutil.URL, tenants)
	for i := range docs {
		docs[i] = urlutil.URL{Scheme: "https", Host: fmt.Sprintf("www.par%02d.com", i), Path: "/"}
		must(many.Register(docs[i].Host, device, hintstore.StaticTrainer(f.resolver)))
	}
	workers := runtime.GOMAXPROCS(0)
	d, _ := p.measure(func(n int, _ *stopwatch) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					many.Lookup(docs[i%tenants], f.tn.body)
				}
			}(w)
		}
		wg.Wait()
	})
	p.set("hintstore.lookup_fresh_parallel_us", per(d, time.Microsecond))
	many.Drain(time.Second)
}

func probePersist(p *prober) {
	f := p.fix
	payload, err := persist.EncodeTable(f.tableState("www.probe000000.com", 1))
	must(err)
	p.set("persist.table_bytes", float64(len(payload)))
	p.time("persist.encode_table_us", time.Microsecond, "", func() {
		_, err := persist.EncodeTable(f.tableState("www.probe000000.com", 1))
		must(err)
	})

	for _, mode := range []struct {
		name  string
		fsync persist.FsyncPolicy
	}{{"persist.append_fsync_always_us", persist.FsyncAlways}, {"persist.append_fsync_none_us", persist.FsyncNone}} {
		dir, err := os.MkdirTemp(outDir(), "probe-wal-")
		must(err)
		ps, err := persist.Open(persist.Options{Dir: dir, Fsync: mode.fsync})
		must(err)
		version := uint64(0)
		p.time(mode.name, time.Microsecond, "", func() {
			version++
			must(ps.Append(f.tableState("www.probe000000.com", version)))
		})
		must(ps.Close())
		os.RemoveAll(dir)
	}

	// Snapshot and recovery of a 64-tenant store.
	dir, err := os.MkdirTemp(outDir(), "probe-snap-")
	must(err)
	defer os.RemoveAll(dir)
	tables := make([]persist.TableState, 64)
	for i := range tables {
		tables[i] = f.tableState(fmt.Sprintf("www.snap%02d.com", i), 1)
	}
	ps, err := persist.Open(persist.Options{Dir: dir, Fsync: persist.FsyncNone})
	must(err)
	p.time("persist.snapshot_all_ms", time.Millisecond, "", func() {
		for i := range tables {
			tables[i].Version++
		}
		_, err := ps.SnapshotAll(tables)
		must(err)
	})
	must(ps.Close())
	p.time("persist.recover_ms", time.Millisecond, "", func() {
		rec, err := persist.Recover(dir, nil)
		must(err)
		if len(rec.Tables) != len(tables) {
			fatal("probe: recovered %d of %d tables", len(rec.Tables), len(tables))
		}
	})
}

func probeHints(p *prober) {
	f := p.fix
	p.time("hints.format_us", time.Microsecond, "hints.format_allocs", func() { hints.Format(f.hints) })
	p.time("hints.parse_us", time.Microsecond, "hints.parse_allocs", func() {
		if got := hints.Parse(f.headers); len(got) != len(f.hints) {
			fatal("probe: parsed %d of %d hints", len(got), len(f.hints))
		}
	})
}

func probeCore(p *prober) {
	f := p.fix
	p.time("core.hints_for_us", time.Microsecond, "core.hints_for_allocs", func() {
		f.resolver.HintsFor(f.tn.root, f.tn.body, device)
	})
	p.time("core.train_ms", time.Millisecond, "", func() {
		core.NewResolver(core.DefaultResolverConfig()).Train(f.tn.site, recordTime, device)
	})
	p.time("core.push_set_us", time.Microsecond, "", func() { core.PushSet(f.hints, f.tn.root, false) })
	p.time("core.export_us", time.Microsecond, "", func() { f.resolver.Export() })
}

func probeWebpage(p *prober) {
	f := p.fix
	// The largest document of each parsed type in the fixture's snapshot.
	largest := map[webpage.ResourceType]*webpage.Resource{}
	for _, r := range f.snapshot.Ordered() {
		if r.Type.NeedsProcessing() && (largest[r.Type] == nil || len(r.Body) > len(largest[r.Type].Body)) {
			largest[r.Type] = r
		}
	}
	for typ, name := range map[webpage.ResourceType]string{
		webpage.HTML: "webpage.extract_refs_html_mb_per_s",
		webpage.CSS:  "webpage.extract_refs_css_mb_per_s",
		webpage.JS:   "webpage.extract_refs_js_mb_per_s",
	} {
		res := largest[typ]
		d, _ := p.measure(simple(func() { webpage.ExtractRefs(res) }))
		p.set(name, float64(len(res.Body))/1e6/(d/1e9))
	}
	p.time("webpage.snapshot_ms", time.Millisecond, "webpage.snapshot_allocs", func() {
		f.tn.site.Snapshot(recordTime, webpage.Profile{Device: device, UserID: 11}, 1)
	})
}

func probeReplay(p *prober) {
	f := p.fix
	urls := make([]string, len(f.tn.archive.Records))
	for i, rec := range f.tn.archive.Records {
		urls[i] = rec.URL
	}
	i := 0
	p.time("replay.lookup_ns", time.Nanosecond, "", func() {
		if _, ok := f.tn.archive.Lookup(urls[i%len(urls)]); !ok {
			fatal("probe: archive lost %s", urls[i%len(urls)])
		}
		i++
	})
	p.time("replay.from_snapshot_ms", time.Millisecond, "", func() { replay.FromSnapshot(f.snapshot) })
}

// probeServer is the serving core with no transport: the fixture's archive
// behind a store and a gate, called through ServeH1.
func (f *fixture) probeServer() (*wire.Server, func()) {
	store := hintstore.New(hintstore.Config{TTL: time.Hour})
	must(store.Register(f.tn.root.Host, device, hintstore.StaticTrainer(f.resolver)))
	srv := wire.NewServer(f.tn.archive, nil, device, wire.ServerConfig{SendHints: true, Push: true})
	srv.Store = store
	srv.Gate = overload.NewGate(overload.Config{MaxConcurrent: 64})
	return srv, func() { store.Drain(time.Second) }
}

func probeWire(p *prober) {
	f := p.fix
	var asset *replay.Record
	for i := range f.tn.archive.Records {
		if rec := &f.tn.archive.Records[i]; rec.ResourceType() == webpage.Image {
			asset = rec
			break
		}
	}
	assetURL, err := asset.ParsedURL()
	must(err)
	docReq := &h2.Request{Method: "GET", Scheme: "https", Authority: f.tn.root.Host, Path: "/", Header: docHeader}
	assetReq := &h2.Request{Method: "GET", Scheme: "https", Authority: assetURL.Host, Path: assetURL.Path, Header: docHeader}
	serve := func(srv *wire.Server, req *h2.Request) func() {
		return func() {
			if resp := srv.ServeH1(req); resp.Status != 200 {
				fatal("probe: ServeH1 %s answered %d", req.Path, resp.Status)
			}
		}
	}

	srv, stop := f.probeServer()
	p.time("wire.serve_h1_doc_us", time.Microsecond, "wire.serve_h1_doc_allocs", serve(srv, docReq))
	p.time("wire.serve_h1_asset_ns", time.Nanosecond, "wire.serve_h1_asset_allocs", serve(srv, assetReq))
	stop()

	// The same with both telemetry planes enabled: a wall tracer and a
	// metrics registry on the server and its store.
	srv, stop = f.probeServer()
	reg := telemetry.NewRegistry()
	srv.Instrument(obs.NewWall(obs.NewFlightRecorder(obs.DefaultFlightEvents)), reg)
	p.time("wire.serve_h1_doc_instrumented_us", time.Microsecond, "", serve(srv, docReq))
	p.time("telemetry.write_prometheus_us", time.Microsecond, "", func() { must(reg.WritePrometheus(io.Discard)) })
	stop()

	// The accountant on its own: a request no hint predicted, a document's
	// worth of hint windows opened, and the same windows settled.
	store := hintstore.New(hintstore.Config{TTL: time.Hour})
	acct := wire.NewAccountant(wire.AccountingConfig{Store: store})
	p.time("wire.accountant_note_request_ns", time.Nanosecond, "", func() {
		acct.NoteRequest(assetURL.Host, asset.URL, false)
	})
	d, _ := p.measure(func(n int, sw *stopwatch) {
		for i := 0; i < n; i++ {
			acct.NoteHints(f.tn.root.Host, f.hints, time.Minute, true)
			sw.pause()
			acct.Flush()
			sw.resume()
		}
	})
	p.set("wire.accountant_note_hints_us", per(d, time.Microsecond))
	d, _ = p.measure(func(n int, sw *stopwatch) {
		for i := 0; i < n; i++ {
			sw.pause()
			acct.NoteHints(f.tn.root.Host, f.hints, time.Minute, true)
			sw.resume()
			acct.Flush()
		}
	})
	p.set("wire.accountant_flush_us", per(d, time.Microsecond))
	store.Drain(time.Second)
}

func probeTelemetry(p *prober) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("probe_total")
	hist := reg.Histogram("probe_ms")
	p.time("telemetry.counter_inc_ns", time.Nanosecond, "", ctr.Inc)
	v := 0.0
	p.time("telemetry.histogram_observe_ns", time.Nanosecond, "", func() {
		v += 0.37
		hist.Observe(v)
	})
	// A span on the wall tracer into a growing recording, and into the
	// bounded flight-recorder ring.
	d, _ := p.measure(func(n int, _ *stopwatch) {
		tr := obs.NewWall(&obs.LiveRecording{})
		for i := 0; i < n; i++ {
			tr.Begin(obs.TrackServer, "probe").End()
		}
	})
	p.set("obs.wall_span_ns", per(d, time.Nanosecond))
	flight := obs.NewWall(obs.NewFlightRecorder(obs.DefaultFlightEvents))
	p.time("obs.flight_span_ns", time.Nanosecond, "", func() { flight.Begin(obs.TrackServer, "probe").End() })
}
