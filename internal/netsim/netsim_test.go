package netsim

import (
	"math/rand"
	"testing"
	"time"

	"vroom/internal/event"
	"vroom/internal/urlutil"
)

var start = time.Date(2017, 8, 21, 0, 0, 0, 0, time.UTC)

func fixedRTT(time.Duration) func(string) time.Duration {
	return func(string) time.Duration { return 0 }
}

func testConfig(p Protocol) Config {
	return Config{
		DownlinkBytesPerSec: 1e6,
		BaseRTT:             100 * time.Millisecond,
		ExtraRTT:            func(string) time.Duration { return 0 },
		DNSDelay:            50 * time.Millisecond,
		TLSRoundTrips:       2,
		Protocol:            p,
		MaxConnsPerOrigin:   6,
		DisableSlowStart:    true, // timing tests assume full rate at once
	}
}

// echoServer responds with the given size after zero think time.
func echoServer(size int, think time.Duration, done func(t time.Time), eng *event.Engine) func(*RoundTrip) {
	return func(rt *RoundTrip) {
		rt.Respond(size, think, func() { done(eng.Now()) })
	}
}

func TestSingleFetchTiming(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP2))
	var doneAt time.Time
	u := urlutil.MustParse("https://a.example.com/x.js")
	n.Do(u, echoServer(1e6, 0, func(at time.Time) { doneAt = at }, eng))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// DNS 50ms + handshake 3*RTT (TCP 1 + TLS 2) = 300ms + req 50ms +
	// resp first byte 50ms + 1e6B at 1e6B/s = 1s. Total 1.45s.
	want := start.Add(1450 * time.Millisecond)
	if d := doneAt.Sub(want); d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("completion at %v, want ~%v", doneAt.Sub(start), want.Sub(start))
	}
	if n.BytesDelivered != 1e6 {
		t.Fatalf("BytesDelivered = %d, want 1e6", n.BytesDelivered)
	}
	if !n.Idle() {
		t.Fatal("network not idle after completion")
	}
}

func TestFairSharingAcrossOrigins(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP2))
	var aAt, bAt time.Time
	// Two equal transfers from different origins with identical setup
	// must finish together, each at half rate.
	n.Do(urlutil.MustParse("https://a.com/1"), echoServer(5e5, 0, func(at time.Time) { aAt = at }, eng))
	n.Do(urlutil.MustParse("https://b.com/2"), echoServer(5e5, 0, func(at time.Time) { bAt = at }, eng))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if aAt.IsZero() || bAt.IsZero() {
		t.Fatal("transfers did not complete")
	}
	if d := aAt.Sub(bAt); d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("equal transfers finished %v apart", d)
	}
	// Each got ~half the link: transfer time ~1s for 5e5 bytes.
	xfer := aAt.Sub(start) - 450*time.Millisecond // setup+latency
	if xfer < 950*time.Millisecond || xfer > 1100*time.Millisecond {
		t.Fatalf("transfer phase took %v, want ~1s (half rate each)", xfer)
	}
}

func TestHTTP1SixConnectionLimit(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP1))
	doneTimes := make([]time.Time, 0, 8)
	u := func(i int) urlutil.URL {
		return urlutil.URL{Scheme: "https", Host: "a.com", Path: "/r" + string(rune('0'+i))}
	}
	for i := 0; i < 8; i++ {
		n.Do(u(i), echoServer(1000, 0, func(at time.Time) { doneTimes = append(doneTimes, at) }, eng))
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(doneTimes) != 8 {
		t.Fatalf("completed %d of 8", len(doneTimes))
	}
	// The 7th and 8th requests must have waited for a free connection:
	// strictly later than the first six.
	sixth := doneTimes[5]
	if !doneTimes[6].After(sixth) || !doneTimes[7].After(sixth) {
		t.Fatalf("overflow requests not delayed: %v then %v, %v", sixth.Sub(start), doneTimes[6].Sub(start), doneTimes[7].Sub(start))
	}
}

func TestHTTP2SingleConnectionMultiplexes(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP2))
	var serverArrivals []time.Time
	for i := 0; i < 4; i++ {
		u := urlutil.URL{Scheme: "https", Host: "a.com", Path: "/m" + string(rune('0'+i))}
		n.Do(u, func(rt *RoundTrip) {
			serverArrivals = append(serverArrivals, rt.ServerAt)
			rt.Respond(1000, 0, nil)
		})
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(serverArrivals) != 4 {
		t.Fatalf("server saw %d requests", len(serverArrivals))
	}
	// All four requests ride the single connection and arrive together
	// right after setup (no per-request queueing).
	for _, at := range serverArrivals[1:] {
		if !at.Equal(serverArrivals[0]) {
			t.Fatalf("multiplexed requests arrived at different times: %v vs %v", at.Sub(start), serverArrivals[0].Sub(start))
		}
	}
}

func TestSerializedResponsesArriveInOrder(t *testing.T) {
	cfg := testConfig(HTTP2)
	cfg.SerializeResponses = true
	eng := event.New(start)
	n := New(eng, cfg)
	var order []string
	mk := func(name string, size int) {
		u := urlutil.URL{Scheme: "https", Host: "a.com", Path: "/" + name}
		n.Do(u, func(rt *RoundTrip) {
			rt.Respond(size, 0, func() { order = append(order, name) })
		})
	}
	// A huge first response must still finish before a tiny second one.
	mk("big", 500000)
	mk("small", 100)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("serialized order = %v, want [big small]", order)
	}
}

func TestInterleavedSmallResponseFinishesFirst(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP2))
	var order []string
	mk := func(name string, size int) {
		u := urlutil.URL{Scheme: "https", Host: "a.com", Path: "/" + name}
		n.Do(u, func(rt *RoundTrip) {
			rt.Respond(size, 0, func() { order = append(order, name) })
		})
	}
	mk("big", 500000)
	mk("small", 100)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "small" {
		t.Fatalf("interleaved order = %v, want small first", order)
	}
}

func TestPushSharesConnection(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP2))
	var pushedAt, mainAt time.Time
	u := urlutil.MustParse("https://a.com/index.html")
	pu := urlutil.MustParse("https://a.com/style.css")
	n.Do(u, func(rt *RoundTrip) {
		rt.Push(pu, 2000, 0, func() { pushedAt = eng.Now() }, nil)
		rt.Respond(2000, 0, func() { mainAt = eng.Now() })
	})
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if pushedAt.IsZero() || mainAt.IsZero() {
		t.Fatal("push or main response missing")
	}
	if n.BytesDelivered != 4000 {
		t.Fatalf("BytesDelivered = %d, want 4000", n.BytesDelivered)
	}
}

func TestDNSCachedAcrossConnections(t *testing.T) {
	eng := event.New(start)
	n := New(eng, testConfig(HTTP1))
	var first, second time.Time
	n.Do(urlutil.MustParse("https://a.com/1"), echoServer(100, 0, func(at time.Time) { first = at }, eng))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Second request opens a fresh origin struct? No — same origin, conn
	// idle, so no DNS and no handshake: should be much faster.
	n.Do(urlutil.MustParse("https://a.com/2"), echoServer(100, 0, func(at time.Time) { second = at }, eng))
	base := eng.Now()
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	d2 := second.Sub(base)
	d1 := first.Sub(start)
	if d2 >= d1 {
		t.Fatalf("reused connection not faster: first %v, second %v", d1, d2)
	}
}

func TestZeroRTTInfiniteBandwidthDegenerate(t *testing.T) {
	cfg := Config{
		DownlinkBytesPerSec: 1e15,
		BaseRTT:             0,
		ExtraRTT:            fixedRTT(0),
		DNSDelay:            0,
		TLSRoundTrips:       0,
		Protocol:            HTTP2,
	}
	eng := event.New(start)
	n := New(eng, cfg)
	var doneAt time.Time
	n.Do(urlutil.MustParse("https://a.com/x"), echoServer(1e9, 0, func(at time.Time) { doneAt = at }, eng))
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if doneAt.Sub(start) > time.Millisecond {
		t.Fatalf("degenerate network took %v", doneAt.Sub(start))
	}
}

func TestSlowStartRampsThroughput(t *testing.T) {
	cfg := testConfig(HTTP2)
	cfg.DisableSlowStart = false
	cfg.InitCwndBytes = 14600
	// A large transfer must take longer with slow start than without.
	run := func(c Config) time.Duration {
		eng := event.New(start)
		n := New(eng, c)
		var doneAt time.Time
		n.Do(urlutil.MustParse("https://a.com/big"), echoServer(2e6, 0, func(at time.Time) { doneAt = at }, eng))
		if _, err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return doneAt.Sub(start)
	}
	withSS := run(cfg)
	cfg.DisableSlowStart = true
	without := run(cfg)
	if withSS <= without {
		t.Fatalf("slow start had no effect: %v vs %v", withSS, without)
	}
	// The ramp doubles per RTT; after ~7 RTTs the window covers the link,
	// so the penalty is bounded (well under a second here).
	if withSS > without+2*time.Second {
		t.Fatalf("slow-start penalty implausible: %v vs %v", withSS, without)
	}
}

func TestQueueDelayGrowsWithBacklog(t *testing.T) {
	cfg := testConfig(HTTP2)
	cfg.QueueWeight = 0.5
	cfg.MaxQueueDelay = 400 * time.Millisecond
	eng := event.New(start)
	n := New(eng, cfg)
	if d := n.queueDelay(); d != 0 {
		t.Fatalf("idle link has queue delay %v", d)
	}
	// Start a big transfer, then check the delay mid-flight.
	n.Do(urlutil.MustParse("https://a.com/big"), echoServer(5e6, 0, func(time.Time) {}, eng))
	eng.RunUntil(start.Add(600 * time.Millisecond))
	if d := n.queueDelay(); d == 0 {
		t.Fatal("loaded link has no queue delay")
	} else if d > cfg.MaxQueueDelay {
		t.Fatalf("queue delay %v exceeds cap", d)
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if d := n.queueDelay(); d != 0 {
		t.Fatalf("drained link still has queue delay %v", d)
	}
}

func TestWaterFillRespectsCaps(t *testing.T) {
	eng := event.New(start)
	cfg := testConfig(HTTP2)
	cfg.DisableSlowStart = false
	cfg.InitCwndBytes = 1460 // tiny: cap = 14.6 KB/s per fresh conn at 100ms RTT
	n := New(eng, cfg)
	// Two origins: both capped well below the fair share; aggregate use
	// is far below capacity, and each flow advances.
	var done int
	for _, h := range []string{"a.com", "b.com"} {
		u := urlutil.URL{Scheme: "https", Host: h, Path: "/x"}
		n.Do(u, echoServer(2000, 0, func(time.Time) { done++ }, eng))
	}
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("capped flows did not complete: %d", done)
	}
}

func TestRateTraceLookup(t *testing.T) {
	tr := &RateTrace{Interval: 100 * time.Millisecond, Rates: []float64{1e6, 2e6, 3e6}}
	cases := map[time.Duration]float64{
		0:                      1e6,
		99 * time.Millisecond:  1e6,
		100 * time.Millisecond: 2e6,
		250 * time.Millisecond: 3e6,
		300 * time.Millisecond: 1e6, // cycles
	}
	for at, want := range cases {
		if got := tr.RateAt(at); got != want {
			t.Errorf("RateAt(%v) = %v, want %v", at, got, want)
		}
	}
	if b := tr.NextBoundary(150 * time.Millisecond); b != 200*time.Millisecond {
		t.Errorf("NextBoundary = %v", b)
	}
}

func TestSyntheticTraceBounds(t *testing.T) {
	tr := SyntheticLTETrace(rand.New(rand.NewSource(7)), 500, 100*time.Millisecond, 5e5, 2e6)
	if len(tr.Rates) != 500 {
		t.Fatalf("%d samples", len(tr.Rates))
	}
	for i, r := range tr.Rates {
		if r < 5e5 || r > 2e6 {
			t.Fatalf("sample %d = %v outside bounds", i, r)
		}
	}
}

func TestTraceDrivenTransfer(t *testing.T) {
	cfg := testConfig(HTTP2)
	run := func(trace *RateTrace) time.Duration {
		c := cfg
		c.Trace = trace
		eng := event.New(start)
		n := New(eng, c)
		var doneAt time.Time
		n.Do(urlutil.MustParse("https://a.com/big"), echoServer(1e6, 0, func(at time.Time) { doneAt = at }, eng))
		if _, err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		if doneAt.IsZero() {
			t.Fatal("transfer never completed")
		}
		return doneAt.Sub(start)
	}
	fast := run(&RateTrace{Interval: 100 * time.Millisecond, Rates: []float64{2e6}})
	slow := run(&RateTrace{Interval: 100 * time.Millisecond, Rates: []float64{2e5}})
	varying := run(&RateTrace{Interval: 100 * time.Millisecond, Rates: []float64{2e6, 2e5}})
	if !(fast < varying && varying < slow) {
		t.Fatalf("ordering violated: fast=%v varying=%v slow=%v", fast, varying, slow)
	}
}
