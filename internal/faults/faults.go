// Package faults provides deterministic, seeded fault injection for the
// simulated load path. Vroom's dependency hints are explicitly best-effort
// (§4): offline analysis is hourly, third-party origins die, and measurement
// studies show pushes are frequently wasted in the wild. A Plan decides —
// reproducibly, from a seed — which origins suffer outages or brown-outs,
// which responses 5xx, truncate, or stall, and which hinted URLs have gone
// stale (404 or redirect). internal/netsim honors the network-level faults
// when scheduling responses; internal/server honors the server-level ones;
// internal/browser supplies the timeout/retry/degradation machinery the
// faults exercise.
//
// Every decision is a pure function of (seed, fault kind, subject,
// occurrence index), so two runs with the same seed inject exactly the same
// faults regardless of call order, and two policies compared under one seed
// face the same broken world.
//
// The wire path (internal/netem's fault shim and internal/wire's server)
// shares one Plan across concurrent goroutines, so Plan methods serialize
// internally; the single-goroutine event engine pays only an uncontended
// lock.
package faults

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"vroom/internal/hints"
	"vroom/internal/urlutil"
)

// Config sets the fault rates of a Plan. All rates are probabilities in
// [0, 1]; the zero value injects nothing.
type Config struct {
	// OriginOutageFrac is the fraction of origins that suffer a hard outage
	// window during the load: connections are refused while it is active.
	OriginOutageFrac float64
	// OutageMaxStart bounds where an origin's outage window begins,
	// relative to the start of the load.
	OutageMaxStart time.Duration
	// OutageDuration is how long each outage window lasts.
	OutageDuration time.Duration

	// BrownoutFrac is the fraction of origins that are degraded: every
	// response from them gains extra first-byte latency.
	BrownoutFrac float64
	// BrownoutMaxDelay bounds the per-origin brown-out delay; the actual
	// delay is seeded per origin in [BrownoutMaxDelay/4, BrownoutMaxDelay].
	BrownoutMaxDelay time.Duration

	// ErrorRate is the per-response probability of a 5xx: the server
	// answers with a small error body instead of content.
	ErrorRate float64
	// TruncateRate is the per-response probability that the connection dies
	// mid-transfer: part of the body arrives, then the request fails.
	TruncateRate float64
	// StallRate is the per-response probability that the first byte never
	// arrives; only a client timeout rescues the request.
	StallRate float64

	// StaleHintRate is the probability that a hinted URL has gone stale
	// since the resolver learned it: the client fetches a URL the server no
	// longer has.
	StaleHintRate float64
	// RedirectFrac is the fraction of stale hints that redirect to the
	// fresh URL (costing a round trip) instead of returning 404.
	RedirectFrac float64

	// CrashRate is the per-boundary probability that a named persistence
	// write boundary kills the process (see Plan.CrashPoint). The hint
	// store's durable layer consults it at every snapshot/WAL write step,
	// so the crash-recovery torture harness can die at any of them.
	CrashRate float64
	// CrashMaxTorn bounds how many bytes of the interrupted write land on
	// disk before a crash — the torn-record case recovery must quarantine.
	// Zero means the whole write is lost.
	CrashMaxTorn int
}

// Regime is a named fault intensity preset.
type Regime int

// Regimes, in increasing severity.
const (
	RegimeNone Regime = iota
	RegimeMild
	RegimeSevere
)

func (r Regime) String() string {
	switch r {
	case RegimeNone:
		return "none"
	case RegimeMild:
		return "mild"
	case RegimeSevere:
		return "severe"
	}
	return "unknown"
}

// ParseRegime parses a regime name as used by the -faults CLI flag.
func ParseRegime(s string) (Regime, error) {
	switch s {
	case "none", "":
		return RegimeNone, nil
	case "mild":
		return RegimeMild, nil
	case "severe":
		return RegimeSevere, nil
	}
	return RegimeNone, fmt.Errorf("faults: unknown regime %q (want none, mild, or severe)", s)
}

// RegimeConfig returns the fault rates for a named regime. Mild models an
// ordinary bad day on the web (a few slow or flaky third parties); severe
// models the worst hour the measurement studies report — dead origins,
// double-digit error rates, a quarter of hints stale.
func RegimeConfig(r Regime) Config {
	switch r {
	case RegimeMild:
		return Config{
			OriginOutageFrac: 0.05,
			OutageMaxStart:   5 * time.Second,
			OutageDuration:   20 * time.Second,
			BrownoutFrac:     0.10,
			BrownoutMaxDelay: 400 * time.Millisecond,
			ErrorRate:        0.02,
			TruncateRate:     0.01,
			StallRate:        0.005,
			StaleHintRate:    0.05,
			RedirectFrac:     0.3,
		}
	case RegimeSevere:
		return Config{
			OriginOutageFrac: 0.20,
			OutageMaxStart:   5 * time.Second,
			OutageDuration:   60 * time.Second,
			BrownoutFrac:     0.30,
			BrownoutMaxDelay: time.Second,
			ErrorRate:        0.10,
			TruncateRate:     0.05,
			StallRate:        0.02,
			StaleHintRate:    0.25,
			RedirectFrac:     0.3,
		}
	}
	return Config{}
}

// ResponseFault classifies what happens to one response.
type ResponseFault int

// Response fault kinds.
const (
	FaultNone ResponseFault = iota
	// FaultError: the server answers 5xx with a small error body.
	FaultError
	// FaultTruncate: part of the body arrives, then the transfer fails.
	FaultTruncate
	// FaultStall: the first byte never arrives.
	FaultStall
	// FaultReset: the connection is torn down mid-transfer (wire path only;
	// the simulator models the equivalent as truncation).
	FaultReset
)

func (f ResponseFault) String() string {
	switch f {
	case FaultError:
		return "5xx"
	case FaultTruncate:
		return "truncated"
	case FaultStall:
		return "stall"
	case FaultReset:
		return "reset"
	}
	return "none"
}

// hintFate classifies what a stale hint turned into.
type hintFate int

// Hint fates.
const (
	hintFresh hintFate = iota
	// hintGone: the hinted URL 404s.
	hintGone
	// hintRedirect: the hinted URL redirects to the fresh URL.
	hintRedirect
)

// Plan is one load's fault schedule plus the health state accumulated while
// it runs. A nil *Plan is valid and injects nothing, so call sites need no
// guards. Plan methods are safe for concurrent use: the wire load path
// consults one plan from many fetch goroutines at once.
type Plan struct {
	cfg  Config
	seed int64

	// mu serializes the mutable decision state (attempts, stats, failing).
	mu sync.Mutex

	// attempts counts per-(kind, subject) decisions so that a retried
	// request can draw a fresh verdict (a 503 on attempt one may succeed on
	// attempt two).
	attempts map[string]int
	// exempt shields specific URLs (the root document) from all faults.
	exempt map[string]bool
	// failing holds origins marked unhealthy by observed failures; the
	// server consults this to suppress pushes.
	failing map[string]bool

	stats map[string]int64
}

// New returns a plan over the given rates. The seed fully determines every
// injected fault.
func New(seed int64, cfg Config) *Plan {
	return &Plan{
		cfg:      cfg,
		seed:     seed,
		attempts: make(map[string]int),
		exempt:   make(map[string]bool),
		failing:  make(map[string]bool),
		stats:    make(map[string]int64),
	}
}

// ExemptURL shields a URL from response and hint faults. The runner exempts
// the root document so every load has content to degrade around.
func (p *Plan) ExemptURL(u urlutil.URL) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.exempt[u.String()] = true
	p.mu.Unlock()
}

// u01 derives a uniform value in [0, 1) from the seed and a decision key.
func (p *Plan) u01(parts ...string) float64 {
	h := fnv.New64a()
	var b [8]byte
	s := uint64(p.seed)
	for i := range b {
		b[i] = byte(s >> (8 * i))
	}
	h.Write(b[:])
	for _, part := range parts {
		h.Write([]byte{0})
		h.Write([]byte(part))
	}
	// FNV-1a diffuses a trailing-byte difference through only one multiply,
	// so keys differing at the end (e.g. consecutive attempt counters) hash
	// to nearly identical values. Finish with a murmur3-style avalanche so
	// every input bit reaches every output bit.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// count records an injected fault. Caller holds p.mu.
func (p *Plan) count(name string) {
	p.stats[name]++
}

// nth returns the occurrence index for a (kind, subject) pair, starting at
// 0, advancing on each call. The simulation is deterministic, so the
// sequence of calls — and therefore every verdict — replays exactly under
// the same seed. Caller holds p.mu.
func (p *Plan) nth(kind, subject string) int {
	k := kind + "|" + subject
	n := p.attempts[k]
	p.attempts[k] = n + 1
	return n
}

// OriginDown reports whether an origin's outage window covers the given
// offset from load start. internal/netsim consults this when a request
// would open or reuse a connection.
func (p *Plan) OriginDown(origin string, since time.Duration) bool {
	if p == nil || p.cfg.OriginOutageFrac <= 0 {
		return false
	}
	if p.u01("outage", origin) >= p.cfg.OriginOutageFrac {
		return false
	}
	start := time.Duration(p.u01("outage-start", origin) * float64(p.cfg.OutageMaxStart))
	if since < start || since >= start+p.cfg.OutageDuration {
		return false
	}
	p.mu.Lock()
	p.count("outage-refused")
	p.mu.Unlock()
	return true
}

// BrownoutDelay returns the extra first-byte latency for a degraded origin,
// or zero. The delay is fixed per origin: an overloaded origin is
// consistently slow.
func (p *Plan) BrownoutDelay(origin string) time.Duration {
	if p == nil || p.cfg.BrownoutFrac <= 0 {
		return 0
	}
	if p.u01("brownout", origin) >= p.cfg.BrownoutFrac {
		return 0
	}
	frac := 0.25 + 0.75*p.u01("brownout-delay", origin)
	p.mu.Lock()
	p.count("brownout-responses")
	p.mu.Unlock()
	return time.Duration(frac * float64(p.cfg.BrownoutMaxDelay))
}

// ResponseVerdict decides the fate of one response for a URL. Each call for
// the same URL is a fresh draw (keyed by occurrence index), so a failed
// attempt can succeed on retry. internal/netsim consults this when the
// server schedules a response.
func (p *Plan) ResponseVerdict(u urlutil.URL) ResponseFault {
	if p == nil {
		return FaultNone
	}
	c := p.cfg
	if c.ErrorRate <= 0 && c.TruncateRate <= 0 && c.StallRate <= 0 {
		return FaultNone
	}
	key := u.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exempt[key] {
		return FaultNone
	}
	draw := p.u01("response", key, fmt.Sprint(p.nth("response", key)))
	switch {
	case draw < c.ErrorRate:
		p.count("responses-5xx")
		return FaultError
	case draw < c.ErrorRate+c.TruncateRate:
		p.count("responses-truncated")
		return FaultTruncate
	case draw < c.ErrorRate+c.TruncateRate+c.StallRate:
		p.count("responses-stalled")
		return FaultStall
	}
	return FaultNone
}

// WireConnFault decides, at dial time, the fate of one wire connection to an
// origin: it may be reset, stalled, or truncated partway through its
// server-to-client byte stream. The verdict is seeded per (origin, nth
// connection) so retried or re-dialed connections draw fresh fates, and the
// returned index identifies the draw for deterministic fault logs. cutBytes
// is the downlink byte offset at which a mid-transfer fault fires (zero for
// stalls: the first byte never arrives). internal/netem's fault shim
// consults this when the wire client dials through it.
func (p *Plan) WireConnFault(origin string) (fault ResponseFault, cutBytes int, index int) {
	if p == nil {
		return FaultNone, 0, 0
	}
	c := p.cfg
	p.mu.Lock()
	defer p.mu.Unlock()
	index = p.nth("wire-conn", origin)
	if c.ErrorRate <= 0 && c.TruncateRate <= 0 && c.StallRate <= 0 {
		return FaultNone, 0, index
	}
	sub := fmt.Sprint(index)
	draw := p.u01("wire-conn", origin, sub)
	// Mid-transfer faults cut the stream after a seeded budget of delivered
	// bytes; the range keeps the HTTP/2 handshake plausible on most draws
	// while still severing bodies.
	cutBytes = 256 + int(p.u01("wire-cut", origin, sub)*float64(16<<10))
	switch {
	case draw < c.ErrorRate:
		p.count("wire-conns-reset")
		return FaultReset, cutBytes, index
	case draw < c.ErrorRate+c.TruncateRate:
		p.count("wire-conns-truncated")
		return FaultTruncate, cutBytes, index
	case draw < c.ErrorRate+c.TruncateRate+c.StallRate:
		p.count("wire-conns-stalled")
		return FaultStall, 0, index
	}
	return FaultNone, 0, index
}

// CrashPoint decides whether the process dies at a named persistence write
// boundary ("wal-append", "snap-rename", ...), and if so how many bytes of
// the in-progress write survive on disk (a torn record). Each call for the
// same point is a fresh seeded draw keyed by occurrence index, so one plan
// crashes at a reproducible sequence of boundaries across a torture run.
// The persist layer honors the verdict by truncating the write and failing
// every later operation, simulating kill -9 at exactly that boundary.
func (p *Plan) CrashPoint(point string) (crash bool, tornBytes int) {
	if p == nil || p.cfg.CrashRate <= 0 {
		return false, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sub := fmt.Sprint(p.nth("crash", point))
	if p.u01("crash", point, sub) >= p.cfg.CrashRate {
		return false, 0
	}
	p.count("crashes-injected")
	if p.cfg.CrashMaxTorn > 0 {
		tornBytes = int(p.u01("crash-torn", point, sub) * float64(p.cfg.CrashMaxTorn+1))
	}
	return true, tornBytes
}

// TruncateFrac returns the fraction of the body delivered before a
// truncated transfer fails, seeded per URL, in [0.1, 0.9].
func (p *Plan) TruncateFrac(u urlutil.URL) float64 {
	if p == nil {
		return 1
	}
	return 0.1 + 0.8*p.u01("truncate-frac", u.String())
}

// StaleHints passes served hints through the plan: a stale hint's URL is
// mangled to what an outdated resolver view would carry, and redirect is
// told each stale URL that must answer with a redirect to its fresh one
// (the others 404). Mangled URLs stay same-origin, so push and connection
// semantics are preserved. hs may be shared, such as a hint store's answer:
// the result is a copy, never hs rewritten in place. A nil plan or empty hs
// returns hs itself.
func (p *Plan) StaleHints(hs []hints.Hint, redirect func(stale, fresh urlutil.URL)) []hints.Hint {
	if p == nil || len(hs) == 0 {
		return hs
	}
	out := make([]hints.Hint, len(hs))
	for i, h := range hs {
		m, fate := p.staleHint(h.URL)
		if fate == hintRedirect {
			redirect(m, h.URL)
		}
		h.URL = m
		out[i] = h
	}
	return out
}

// staleHint decides whether a hinted URL has gone stale and, if so, what
// the client finds there: a 404 (hintGone) or a redirect to the fresh URL
// (hintRedirect). It returns the URL the hint now carries: the mangled one
// when stale, u itself otherwise. The decision is fixed per URL: a stale
// hint is stale for the whole load.
func (p *Plan) staleHint(u urlutil.URL) (urlutil.URL, hintFate) {
	if p == nil || p.cfg.StaleHintRate <= 0 {
		return u, hintFresh
	}
	key := u.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.exempt[key] {
		return u, hintFresh
	}
	if p.u01("stale-hint", key) >= p.cfg.StaleHintRate {
		return u, hintFresh
	}
	mangled := u
	mangled.Path = u.Path + ".stale"
	if p.u01("stale-kind", key) < p.cfg.RedirectFrac {
		p.count("hints-redirected")
		return mangled, hintRedirect
	}
	p.count("hints-gone")
	return mangled, hintGone
}

// MarkFailing records a client-observed failure against an origin. The
// server's push policy consults Failing to stop pushing to origins that are
// burning the client's bandwidth.
func (p *Plan) MarkFailing(origin string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.failing[origin] {
		p.failing[origin] = true
		p.count("origins-marked-failing")
	}
	p.mu.Unlock()
}

// Failing reports whether an origin should be treated as unhealthy at the
// given offset from load start: it was marked by observed failures, is
// inside an outage window, or is browning out.
func (p *Plan) Failing(origin string, since time.Duration) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	marked := p.failing[origin]
	p.mu.Unlock()
	if marked {
		return true
	}
	if p.cfg.OriginOutageFrac > 0 && p.u01("outage", origin) < p.cfg.OriginOutageFrac {
		start := time.Duration(p.u01("outage-start", origin) * float64(p.cfg.OutageMaxStart))
		if since >= start && since < start+p.cfg.OutageDuration {
			return true
		}
	}
	if p.cfg.BrownoutFrac > 0 && p.u01("brownout", origin) < p.cfg.BrownoutFrac {
		return true
	}
	return false
}

// Stats returns the counts of injected faults, sorted by name, for the
// metrics report.
func (p *Plan) Stats() []Stat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Stat, 0, len(p.stats))
	for name, v := range p.stats {
		out = append(out, Stat{Name: name, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stat is one named injected-fault count.
type Stat struct {
	Name  string
	Count int64
}
