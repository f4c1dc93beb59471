package wire

import (
	"sync"
	"time"

	"vroom/internal/hints"
	"vroom/internal/hintstore"
)

// Accountant reconciles what the serving path predicted against what
// clients actually did: every hint emitted opens a short-lived prediction
// window, and the window settles either when a request for that URL arrives
// (hint used) or when it expires (hint unused). Requests for subresources
// no table predicted settle immediately as recall misses. Settled outcomes
// fold into the hint store's per-tenant quality ledgers (and through them
// the vroom_hint_quality_* metric families), which is what vroom-audit and
// ROADMAP item 3's push policies read.
//
// It is the server's only estimator; the truth is what the client settles
// with hints.Settle (Report.PushQuality). It sees requests, not needs, so a
// client that prefetches every hint makes every hint settle used: used is
// an upper bound (TestAccountantAgainstClientSettlement measures the gap).
// A claimed push never re-crosses the wire, so a pushed prediction that
// expires unrequested settles used (the push pre-empted the request), and
// only a redundant push — the client also requested the URL — is wasted.
//
// Windows are attributed to the hinted URL's own host (same-origin for the
// vast majority of hints); the staleness-age observation rides on the
// document origin whose table served the lookup.
//
// A nil *Accountant no-ops on every method without allocating — the
// disabled hot path is pinned at 0 allocs/op by the bench-alloc gate.
type Accountant struct {
	cfg   AccountingConfig
	clock func() time.Time

	// origins holds at most MaxOrigins ledgers of at most MaxOpenPerOrigin
	// windows each. A prediction past either bound is not tracked: it
	// settles as nothing (emitted-only), so bounded memory never skews
	// precision, it only reduces sample size.
	mu      sync.Mutex
	origins map[string]*originLedger
}

// AccountingConfig sizes the accountant.
type AccountingConfig struct {
	// Window is how long an emitted hint may wait for its request before it
	// settles unused. Default 5s — generous against a page load's tail, far
	// below tenant-eviction timescales.
	Window time.Duration
	// MaxOrigins bounds tracked origins (default 256); MaxOpenPerOrigin
	// bounds open windows per origin (default 512). Past either bound new
	// predictions are dropped, never blocking the serving path.
	MaxOrigins       int
	MaxOpenPerOrigin int
	// Store receives settled outcomes (required — a nil store makes
	// NewAccountant return nil, the disabled path).
	Store *hintstore.Store
	// Clock defaults to time.Now.
	Clock func() time.Time
}

func (c AccountingConfig) window() time.Duration {
	if c.Window > 0 {
		return c.Window
	}
	return 5 * time.Second
}

func (c AccountingConfig) maxOrigins() int {
	if c.MaxOrigins > 0 {
		return c.MaxOrigins
	}
	return 256
}

func (c AccountingConfig) maxOpen() int {
	if c.MaxOpenPerOrigin > 0 {
		return c.MaxOpenPerOrigin
	}
	return 512
}

// originLedger is one host's open prediction windows.
type originLedger struct {
	open map[string]*prediction // keyed by full URL
	// oldest is no later than any open window's emission. Every window has
	// the same length, so nothing in the ledger can have expired before
	// oldest plus that length and expireLocked need not look.
	oldest time.Time
}

// prediction is one emitted hint waiting for its request.
type prediction struct {
	attr    string // tenant credited at settlement (the hinted URL's host)
	emitted time.Time
	pushed  bool
	bytes   int64
}

// NewAccountant builds an accountant feeding cfg.Store. Returns nil (the
// no-op accountant) when the store is nil.
func NewAccountant(cfg AccountingConfig) *Accountant {
	if cfg.Store == nil {
		return nil
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Accountant{cfg: cfg, clock: clock, origins: make(map[string]*originLedger)}
}

// NoteHints opens a prediction window per emitted hint and records the
// serving table's staleness age against the document's origin. age is the
// hint table's staleness at lookup; ageValid is false on fallback paths
// with no table identity.
func (a *Accountant) NoteHints(docOrigin string, hs []hints.Hint, age time.Duration, ageValid bool) {
	if a == nil || len(hs) == 0 {
		return
	}
	now := a.clock()
	a.mu.Lock()
	for i := range hs {
		host := hs[i].URL.Host
		ol := a.ledgerLocked(host)
		if ol == nil {
			continue
		}
		a.expireLocked(ol, now)
		key := hs[i].URL.String()
		if _, dup := ol.open[key]; dup {
			continue // re-emission refreshes nothing; first window stands
		}
		if len(ol.open) >= a.cfg.maxOpen() {
			continue
		}
		if len(ol.open) == 0 || now.Before(ol.oldest) {
			ol.oldest = now
		}
		ol.open[key] = &prediction{attr: host, emitted: now}
	}
	a.mu.Unlock()
	d := hints.QualityDelta{HintsEmitted: int64(len(hs))}
	if ageValid {
		d.StaleMs = float64(age.Milliseconds())
		d.StaleObs = 1
	}
	a.cfg.Store.NoteQuality(docOrigin, d)
}

// NotePush marks the URL's open window as pushed with its body size and
// accounts the pushed bytes. A push without a prior hint window (dedup
// races, hints shed after push decision) is accounted but not tracked.
func (a *Accountant) NotePush(host, url string, bytes int64) {
	if a == nil {
		return
	}
	attr := host
	a.mu.Lock()
	if ol := a.origins[host]; ol != nil {
		if p := ol.open[url]; p != nil {
			p.pushed = true
			p.bytes = bytes
			attr = p.attr
		}
	}
	a.mu.Unlock()
	a.cfg.Store.NoteQuality(attr, hints.QualityDelta{PushedCount: 1, PushedBytes: bytes})
}

// NoteRequest settles the URL's window as used (plus redundant-push waste
// if the resource was also pushed — the client fetched it anyway, so the
// pushed bytes were duplicate transfer). A request no window predicted
// settles as a recall miss unless it is a document: documents are inputs
// to hint tables, not predictions of them.
func (a *Accountant) NoteRequest(host, url string, isDoc bool) {
	if a == nil {
		return
	}
	now := a.clock()
	var settled *prediction
	a.mu.Lock()
	ol := a.origins[host]
	if ol != nil {
		a.expireLocked(ol, now)
		if p := ol.open[url]; p != nil {
			delete(ol.open, url)
			settled = p
		}
	}
	a.mu.Unlock()
	switch {
	case settled != nil:
		d := hints.QualityDelta{HintsUsed: 1}
		if settled.pushed {
			d.WastedPushBytes = settled.bytes
		}
		a.cfg.Store.NoteQuality(settled.attr, d)
	case !isDoc:
		a.cfg.Store.NoteQuality(host, hints.QualityDelta{HintsMissed: 1})
	}
}

// endOfTime is past every window's expiry.
var endOfTime = time.Unix(1<<40, 0)

// Flush settles every open window immediately (drain path), as expiry
// would: unpushed windows as unused, pushed ones as used (see the type
// comment). Returns how many windows were settled.
func (a *Accountant) Flush() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, ol := range a.origins {
		n += len(ol.open)
		a.expireLocked(ol, endOfTime)
	}
	return n
}

// ledgerLocked returns (creating) a host's ledger, or nil at the origin
// bound. Caller holds a.mu.
func (a *Accountant) ledgerLocked(host string) *originLedger {
	ol := a.origins[host]
	if ol != nil {
		return ol
	}
	if len(a.origins) >= a.cfg.maxOrigins() {
		return nil
	}
	ol = &originLedger{open: make(map[string]*prediction)}
	a.origins[host] = ol
	return ol
}

// expireLocked settles a ledger's windows older than the accounting
// window. It scans only when the ledger's oldest emission can have expired,
// and leaves oldest at the survivors' earliest emission — so of the calls
// NoteHints makes for one document's hints, at most the first per ledger
// scans. Caller holds a.mu; calling the store under it is safe —
// NoteQuality only takes the store's own RLock.
func (a *Accountant) expireLocked(ol *originLedger, now time.Time) {
	cutoff := now.Add(-a.cfg.window())
	if len(ol.open) == 0 || ol.oldest.After(cutoff) {
		return
	}
	ol.oldest = now
	for key, p := range ol.open {
		if p.emitted.After(cutoff) {
			if p.emitted.Before(ol.oldest) {
				ol.oldest = p.emitted
			}
			continue
		}
		delete(ol.open, key)
		if p.pushed {
			a.cfg.Store.NoteQuality(p.attr, hints.QualityDelta{HintsUsed: 1})
		} else {
			a.cfg.Store.NoteQuality(p.attr, hints.QualityDelta{HintsUnused: 1})
		}
	}
}
