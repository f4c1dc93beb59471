// Package hintstore promotes Vroom's dependency resolver from a
// train-once-at-startup object to a long-running, multi-tenant service
// component (§4): a sharded, versioned hint store whose per-origin shards
// each hold an immutable, atomically-swapped hint table, refreshed off the
// request path by a bounded background training pool as pages churn (the
// paper retrains hourly).
//
// Concurrency model (RCU): a shard's current table lives behind an
// atomic.Pointer. Lookups load the pointer once and read only that
// immutable table — they never block on retraining and can never observe a
// torn (half-swapped) table. Retraining builds a complete replacement table
// aside and publishes it with one atomic store; the old table stays valid
// for readers that already hold it.
//
// Staleness model (stale-while-revalidate): a lookup whose table has aged
// past the TTL is served from the old version, tagged Stale, and schedules
// a background retrain; only past MaxStale does the store stop serving
// hints (Shed) — an outdated hint is advisory and cheap, a blocked lookup
// stalls a response. Tenants beyond the LRU capacity are evicted coldest
// first, mirroring a hint cache in front of per-site crawlers.
package hintstore

import (
	"errors"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/core"
	"vroom/internal/hints"
	"vroom/internal/hintstore/persist"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// Store metric families.
const (
	metricLookups   = "vroom_store_lookups_total"
	metricLookupMs  = "vroom_store_hint_lookup_ms"
	metricRetrains  = "vroom_store_retrains_total"
	metricSwaps     = "vroom_store_swaps_total"
	metricTenants   = "vroom_store_tenants"
	metricEvictions = "vroom_store_evictions_total"
	metricQueueFull = "vroom_store_retrain_queue_full_total"
	metricMemo      = "vroom_store_memo_total"
)

// Trainer builds one tenant's resolver. It runs on a background worker, off
// the request path; version is the table version the result will publish
// as. Implementations should return promptly after cancel closes — the
// result is discarded during drain either way.
type Trainer func(version uint64, cancel <-chan struct{}) (*core.Resolver, error)

// Source classifies where a lookup's hints came from.
type Source int

// Lookup sources.
const (
	// Fresh: the serving table is within its TTL.
	Fresh Source = iota
	// Stale: the table aged past the TTL; the previous version was served
	// and a background retrain is (or was already) scheduled.
	Stale
	// Shed: the table aged past MaxStale; no hints were served.
	Shed
	// Miss: no tenant is registered for the origin.
	Miss
)

func (s Source) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Stale:
		return "stale"
	case Shed:
		return "shed"
	}
	return "miss"
}

// Result describes one lookup: its source, the table version that answered
// it, and the table's age at lookup time.
type Result struct {
	Source  Source
	Version uint64
	Age     time.Duration
	// Restored marks an answer served from a table loaded off disk at cold
	// start that background retraining has not refreshed yet. The serving
	// path tags such responses vroom-degraded: stale-restore — correct at
	// the time it was persisted, possibly behind the site's churn since.
	Restored bool
	// Memoized reports that the answer was not computed for this lookup: the
	// serving table had already resolved this document for byte-identical
	// content and returned that shared Answer. Always false on Shed and Miss.
	Memoized bool
}

// Config sizes a Store. Zero fields select defaults.
type Config struct {
	// TTL is how long one trained table serves fresh before a background
	// retrain is scheduled (default one hour — the paper's churn period).
	TTL time.Duration
	// MaxStale is the age past which hints are shed instead of served
	// stale (default 4*TTL). Stale serving between TTL and MaxStale is the
	// stale-while-revalidate window.
	MaxStale time.Duration
	// MaxTenants caps resident origins; registering past it evicts the
	// least-recently-looked-up tenant (default 256).
	MaxTenants int
	// Workers bounds concurrent background retrains (default 2). At most
	// 4*Workers retrain jobs wait for a worker; a full queue drops the
	// retrain request — the next stale lookup re-requests it.
	Workers int
	// Clock supplies time for tests; nil means time.Now.
	Clock func() time.Time
	// Log, when non-nil, receives structured store events: retrain swaps
	// and dropped retrains at Debug, evictions and drain at Info.
	Log *slog.Logger
	// Persist configures the durable snapshot+WAL layer: snapshot interval,
	// WAL rotation size, fsync policy (see persist.Options). Only NewDurable
	// honors it; New ignores it and keeps every table in memory only.
	Persist persist.Options
}

func (c Config) ttl() time.Duration {
	if c.TTL > 0 {
		return c.TTL
	}
	return time.Hour
}

func (c Config) maxStale() time.Duration {
	if c.MaxStale > 0 {
		return c.MaxStale
	}
	return 4 * c.ttl()
}

func (c Config) maxTenants() int {
	if c.MaxTenants > 0 {
		return c.MaxTenants
	}
	return 256
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 2
}

// table is one immutable published hint table. Readers hold it only via
// shard.cur.Load(); nothing in it is mutated after publication except memo,
// which caches a pure function of the fields above.
type table struct {
	version   uint64
	trainedAt time.Time
	resolver  *core.Resolver
	device    webpage.DeviceClass
	// restored marks a table loaded from disk at cold start; the first
	// retrain swap clears it (the replacement table has restored=false).
	restored bool
	// memo holds the answers this table has already resolved, one per
	// document URL, published copy-on-write (see answer). It starts empty
	// and dies with the table, so a swap invalidates it and a superseded
	// table pins nothing once its last reader lets go.
	memo atomic.Pointer[memo]
}

// memoSlots caps the documents one table memoizes. A tenant serves a root
// document and a handful of same-origin frames; past the cap a new document
// displaces an arbitrary one, so a table pins at most memoSlots bodies.
const memoSlots = 16

// memo maps a document to the table's answer for the bytes last served as it.
// A published memo is never written again.
type memo map[urlutil.URL]*Answer

// Answer is what one table resolves for one document as served: the sorted
// hints core.Resolver.HintsFor derives from exactly those bytes, and the
// header set hints.Format renders from them.
//
// An Answer is shared by every request that presents the same bytes under
// the same table, concurrently. It is read-only: do not assign into, append
// to or re-sort Hints, and do not assign into Headers or its value slices.
// A caller that must change either copies first.
type Answer struct {
	Hints   []hints.Hint
	Headers map[string][]string

	// body is the content the answer was derived from. Hints computed from
	// one user's bytes may only accompany those same bytes (§4.2), so an
	// Answer is reused on full equality with body and on nothing weaker.
	body string
}

// answer resolves doc as served with body, reusing the memoized Answer when
// body is byte-for-byte what that answer was derived from (O(1) when it is
// the same archive string, one memcmp otherwise). Anything else is resolved
// afresh and takes over the document's slot. Nothing here locks: a miss
// computes first, then publishes a copy of the memo with one CAS, so
// lookups racing each other at worst both compute the same answer.
func (t *table) answer(doc urlutil.URL, body string) (a *Answer, hit bool) {
	if m := t.memo.Load(); m != nil {
		if a := (*m)[doc]; a != nil && a.body == body {
			return a, true
		}
	}
	hs := t.resolver.HintsFor(doc, body, t.device)
	a = &Answer{Hints: hs, Headers: hints.Format(hs), body: body}
	for {
		old := t.memo.Load()
		var prev memo
		if old != nil {
			prev = *old
		}
		_, replaces := prev[doc]
		evict := !replaces && len(prev) >= memoSlots
		next := make(memo, len(prev)+1)
		for k, v := range prev {
			if evict {
				evict = false
				continue
			}
			next[k] = v
		}
		next[doc] = a
		if t.memo.CompareAndSwap(old, &next) {
			return a, false
		}
	}
}

// shard is one tenant's serving state.
type shard struct {
	origin  string
	trainer Trainer
	device  webpage.DeviceClass

	// cur is the RCU-published current table.
	cur atomic.Pointer[table]
	// version is the last version number handed to a trainer.
	version atomic.Uint64
	// retraining is the per-shard singleflight guard: one queued or
	// running retrain at a time.
	retraining atomic.Bool
	// lastUsed is the UnixNano of the newest lookup, for LRU eviction.
	lastUsed atomic.Int64
	// lookups counts lookups served by this shard. It seeds from the
	// persisted count at restore time so LRU eviction decisions and
	// capacity planning survive a restart instead of resetting to zero.
	lookups atomic.Int64
	// retrains counts retrain publishes, likewise persisted.
	retrains atomic.Int64
	// quality is the tenant's hint-efficacy ledger (see quality.go),
	// persisted alongside lookups/retrains.
	quality Quality
}

// Checkpoint is one shard's state at drain time.
type Checkpoint struct {
	Origin    string
	Version   uint64
	TrainedAt time.Time
	Lookups   int64
	Retrains  int64
	// Restored reports a table still serving from a disk restore (no
	// retrain refreshed it before the drain).
	Restored bool
	// SnapshotPath and SnapshotBytes describe this shard's final drain
	// flush when the store is durable ("" / 0 otherwise). FlushErr carries
	// the flush failure, empty on success — a failed final flush must be
	// distinguishable from a clean one, so the server can exit nonzero.
	SnapshotPath  string
	SnapshotBytes int64
	FlushErr      string
}

// Store is the multi-tenant hint store. Create with New; a Store must be
// Drained (or Closed) to stop its background workers.
type Store struct {
	cfg   Config
	clock func() time.Time

	mu      sync.RWMutex
	tenants map[string]*shard
	closed  bool

	trainq chan *shard
	cancel chan struct{}
	wg     sync.WaitGroup

	// pers is the durable layer (nil for memory-only stores); recovery is
	// the cold-start pass that seeded it, kept for Instrument.
	pers     *persist.Persister
	recovery *persist.Recovery

	// Telemetry handles; nil-safe when Instrument was never called.
	mLookups  map[Source]*telemetry.Counter
	mMemoHit  *telemetry.Counter
	mMemoMiss *telemetry.Counter
	mLookupMs *telemetry.Histogram
	mRetrains *telemetry.Counter
	mSwaps    *telemetry.Counter
	mTenants  *telemetry.Gauge
	mEvict    *telemetry.Counter
	mQFull    *telemetry.Counter
	// qual is the per-origin efficacy family bundle (quality.go); zero
	// value no-ops when Instrument was never called.
	qual qualityVecs
}

// New returns a running store: its background training workers are started
// and idle.
func New(cfg Config) *Store {
	st := &Store{
		cfg:     cfg,
		clock:   cfg.Clock,
		tenants: make(map[string]*shard),
		trainq:  make(chan *shard, 4*cfg.workers()),
		cancel:  make(chan struct{}),
	}
	if st.clock == nil {
		st.clock = time.Now
	}
	for i := 0; i < cfg.workers(); i++ {
		st.wg.Add(1)
		go st.worker()
	}
	return st
}

// NewDurable returns a running store whose trained tables persist under
// cfg.Persist.Dir. It recovers whatever a previous process left behind
// (newest valid snapshot per origin plus WAL replay, quarantining corrupt
// or torn records), installs the recovered tables so lookups serve from
// disk state immediately, re-snapshots them (the recovery checkpoint that
// lets WALs be truncated safely), and starts the periodic snapshot loop.
// The returned Recovery reports what was restored and quarantined.
func NewDurable(cfg Config) (*Store, *persist.Recovery, error) {
	rec, err := persist.Recover(cfg.Persist.Dir, cfg.Log)
	if err != nil {
		return nil, nil, err
	}
	cfg.Persist.Log = cfg.Log
	pers, err := persist.Open(cfg.Persist)
	if err != nil {
		return nil, nil, err
	}
	st := New(cfg)
	st.pers, st.recovery = pers, rec
	st.Restore(rec.Tables)
	if len(rec.Tables) > 0 {
		if _, err := pers.SnapshotAll(st.tableStates()); err != nil {
			// An injected crash or full disk here is survivable: the WALs
			// still hold what the snapshot would have; log and serve.
			if cfg.Log != nil {
				cfg.Log.Warn("recovery checkpoint failed", "err", err)
			}
		}
	}
	st.wg.Add(1)
	go st.snapshotLoop(cfg.Persist.SnapshotInterval())
	return st, rec, nil
}

// Restore installs recovered tables as served state: each becomes a shard
// whose published table is tagged restored, so the serving path can mark
// responses stale-restore until background retraining refreshes them.
// Restored shards have no trainer until Register supplies one; staleness-
// triggered retrains are no-ops until then. Call before Register.
func (st *Store) Restore(tables []persist.TableState) {
	for _, t := range tables {
		sh := &shard{origin: t.Origin, device: t.Device}
		sh.version.Store(t.Version)
		sh.lookups.Store(t.Lookups)
		sh.retrains.Store(t.Retrains)
		sh.quality.restore(t.Quality)
		sh.lastUsed.Store(st.clock().UnixNano())
		sh.cur.Store(&table{version: t.Version, trainedAt: t.TrainedAt,
			resolver: core.NewResolverFromState(t.Resolver), device: t.Device,
			restored: true})
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return
		}
		if _, ok := st.tenants[t.Origin]; !ok {
			st.evictColdestLocked()
		}
		st.tenants[t.Origin] = sh
		st.mTenants.Set(int64(len(st.tenants)))
		st.mu.Unlock()
		if st.cfg.Log != nil {
			st.cfg.Log.Info("restored", "origin", t.Origin, "version", t.Version,
				"trained", t.TrainedAt.Format(time.RFC3339), "lookups", t.Lookups)
		}
	}
}

// Instrument attaches the store's metric families to reg. Call before
// serving; nil costs nothing.
func (st *Store) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Describe(metricLookups, "Hint lookups by source (fresh, stale, shed, miss).")
	reg.Describe(metricMemo, "Fresh and stale lookups by whether the table had already resolved the same document bytes (hit, miss).")
	reg.Describe(metricLookupMs, "Hint lookup latency in milliseconds.")
	reg.Describe(metricRetrains, "Background retrains completed.")
	reg.Describe(metricSwaps, "RCU table swaps published.")
	reg.Describe(metricTenants, "Resident hint-store tenants.")
	reg.Describe(metricEvictions, "Tenants evicted by the LRU cap.")
	reg.Describe(metricQueueFull, "Retrain requests dropped on a full queue.")
	st.mLookups = map[Source]*telemetry.Counter{
		Fresh: reg.Counter(metricLookups, telemetry.L("source", "fresh")),
		Stale: reg.Counter(metricLookups, telemetry.L("source", "stale")),
		Shed:  reg.Counter(metricLookups, telemetry.L("source", "shed")),
		Miss:  reg.Counter(metricLookups, telemetry.L("source", "miss")),
	}
	st.mMemoHit = reg.Counter(metricMemo, telemetry.L("result", "hit"))
	st.mMemoMiss = reg.Counter(metricMemo, telemetry.L("result", "miss"))
	st.mLookupMs = reg.Histogram(metricLookupMs)
	st.mRetrains = reg.Counter(metricRetrains)
	st.mSwaps = reg.Counter(metricSwaps)
	st.mTenants = reg.Gauge(metricTenants)
	st.mEvict = reg.Counter(metricEvictions)
	st.mQFull = reg.Counter(metricQueueFull)
	st.instrumentQuality(reg)
	st.pers.Instrument(reg, st.recovery)
}

// ErrClosed reports registration on a drained store.
var ErrClosed = errors.New("hintstore: store drained")

// Register installs a tenant for origin and trains its first table
// synchronously (startup warmup — the caller decides whether to serve
// before this returns). Registering past MaxTenants evicts the coldest
// tenant. Re-registering an origin replaces its trainer and retrains.
func (st *Store) Register(origin string, device webpage.DeviceClass, tr Trainer) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	sh, ok := st.tenants[origin]
	if !ok {
		sh = &shard{origin: origin, trainer: tr, device: device}
		sh.lastUsed.Store(st.clock().UnixNano())
		st.evictColdestLocked()
		st.tenants[origin] = sh
		st.mTenants.Set(int64(len(st.tenants)))
	} else {
		sh.trainer = tr
		sh.device = device
	}
	st.mu.Unlock()

	// Cold start: a restored table serves immediately instead of blocking
	// startup on a synchronous retrain (the retrain storm persistence
	// exists to avoid). A stale restored table refreshes in the background
	// right away; a fresh one at its TTL like any other.
	if tbl := sh.cur.Load(); tbl != nil && tbl.restored {
		if st.clock().Sub(tbl.trainedAt) > st.cfg.ttl() {
			st.requestRetrain(sh)
		}
		return nil
	}

	version := sh.version.Add(1)
	r, err := tr(version, st.cancel)
	if err != nil {
		return err
	}
	tbl := &table{version: version, trainedAt: st.clock(), resolver: r, device: device}
	sh.cur.Store(tbl)
	st.mSwaps.Inc()
	st.persistSwap(sh, tbl)
	return nil
}

// evictColdestLocked makes room for one tenant. Caller holds st.mu.
func (st *Store) evictColdestLocked() {
	for len(st.tenants) >= st.cfg.maxTenants() {
		var coldest *shard
		for _, sh := range st.tenants {
			if coldest == nil || sh.lastUsed.Load() < coldest.lastUsed.Load() {
				coldest = sh
			}
		}
		if coldest == nil {
			return
		}
		delete(st.tenants, coldest.origin)
		st.mEvict.Inc()
		if st.cfg.Log != nil {
			st.cfg.Log.Info("tenant evicted", "origin", coldest.origin,
				"lookups", coldest.lookups.Load())
		}
	}
}

// Lookup returns the dependency hints for serving doc with the given body:
// LookupAnswer's Hints, nil on Shed and Miss. The slice is the shared one
// (see Answer) — read-only.
func (st *Store) Lookup(doc urlutil.URL, body string) ([]hints.Hint, Result) {
	a, res := st.LookupAnswer(doc, body)
	if a == nil {
		return nil, res
	}
	return a.Hints, res
}

// LookupAnswer resolves the hints that go with doc when it is served as
// body, and their rendered headers. It never blocks on training: the answer
// comes from whatever table the doc's origin shard currently publishes,
// tagged by freshness. A lookup on a stale table schedules a background
// retrain (at most one in flight per shard) and still returns immediately.
//
// The table computes an answer once per (document, bytes) and then hands
// out the same *Answer (Result.Memoized) until it is swapped out or the
// document is served with different bytes. The Answer is nil on Shed and
// Miss, and read-only otherwise.
func (st *Store) LookupAnswer(doc urlutil.URL, body string) (*Answer, Result) {
	start := st.clock()
	a, res := st.lookup(doc, body, start)
	st.mLookups[res.Source].Inc()
	if a != nil {
		if res.Memoized {
			st.mMemoHit.Inc()
		} else {
			st.mMemoMiss.Inc()
		}
	}
	st.mLookupMs.Observe(float64(st.clock().Sub(start)) / float64(time.Millisecond))
	return a, res
}

func (st *Store) lookup(doc urlutil.URL, body string, now time.Time) (*Answer, Result) {
	st.mu.RLock()
	sh := st.tenants[doc.Host]
	st.mu.RUnlock()
	if sh == nil {
		return nil, Result{Source: Miss}
	}
	sh.lastUsed.Store(now.UnixNano())
	sh.lookups.Add(1)
	tbl := sh.cur.Load()
	if tbl == nil {
		// Registered but first training has not published yet.
		return nil, Result{Source: Miss}
	}
	age := now.Sub(tbl.trainedAt)
	res := Result{Source: Fresh, Version: tbl.version, Age: age, Restored: tbl.restored}
	if age > st.cfg.ttl() {
		st.requestRetrain(sh)
		// A restored table is never shed on age: serving yesterday's hints
		// tagged stale-restore beats serving none — shedding here would
		// reintroduce the cold-start outage persistence exists to remove.
		if age > st.cfg.maxStale() && !tbl.restored {
			res.Source = Shed
			return nil, res
		}
		res.Source = Stale
	}
	a, hit := tbl.answer(doc, body)
	res.Memoized = hit
	return a, res
}

// requestRetrain schedules a background retrain for sh unless one is
// already queued or running. A full queue drops the request: the next
// stale lookup retries.
func (st *Store) requestRetrain(sh *shard) {
	if !sh.retraining.CompareAndSwap(false, true) {
		return
	}
	select {
	case st.trainq <- sh:
	case <-st.cancel:
		sh.retraining.Store(false)
	default:
		sh.retraining.Store(false)
		st.mQFull.Inc()
		if st.cfg.Log != nil {
			st.cfg.Log.Debug("retrain dropped", "origin", sh.origin, "reason", "queue-full")
		}
	}
}

// worker drains the retrain queue until the store cancels.
func (st *Store) worker() {
	defer st.wg.Done()
	for {
		select {
		case <-st.cancel:
			return
		case sh := <-st.trainq:
			st.retrain(sh)
		}
	}
}

// retrain builds a replacement table aside and publishes it with one
// atomic swap. Lookups racing the swap serve either the old or the new
// table — both are complete and internally consistent.
func (st *Store) retrain(sh *shard) {
	defer sh.retraining.Store(false)
	select {
	case <-st.cancel:
		return // drained while queued
	default:
	}
	// The trainer is written under st.mu by Register; read it the same way
	// (a restored shard has none until its tenant re-registers).
	st.mu.RLock()
	tr, device := sh.trainer, sh.device
	st.mu.RUnlock()
	if tr == nil {
		return // restored, not yet re-registered: keep serving disk state
	}
	version := sh.version.Add(1)
	r, err := tr(version, st.cancel)
	if err != nil {
		return // the old table keeps serving; the next stale lookup retries
	}
	select {
	case <-st.cancel:
		return // drained mid-build: discard, checkpoint the old table
	default:
	}
	tbl := &table{version: version, trainedAt: st.clock(), resolver: r, device: device}
	sh.cur.Store(tbl)
	sh.retrains.Add(1)
	st.mRetrains.Inc()
	st.mSwaps.Inc()
	st.persistSwap(sh, tbl)
	if st.cfg.Log != nil {
		st.cfg.Log.Debug("table swapped", "origin", sh.origin, "version", version)
	}
}

// persistSwap appends a table publish to the durable WAL; memory-only
// stores skip it. Append failures are logged, never fatal — the serving
// path must not depend on the disk.
func (st *Store) persistSwap(sh *shard, tbl *table) {
	if st.pers == nil {
		return
	}
	if err := st.pers.Append(st.stateOf(sh, tbl)); err != nil && st.cfg.Log != nil {
		st.cfg.Log.Warn("wal append failed", "origin", sh.origin, "err", err)
	}
}

// stateOf renders one shard's durable state around a published table.
func (st *Store) stateOf(sh *shard, tbl *table) persist.TableState {
	return persist.TableState{
		Origin:    sh.origin,
		Version:   tbl.version,
		TrainedAt: tbl.trainedAt,
		Device:    tbl.device,
		Lookups:   sh.lookups.Load(),
		Retrains:  sh.retrains.Load(),
		Resolver:  tbl.resolver.Export(),
		Quality:   sh.quality.state(),
	}
}

// tableStates collects every published table's durable state, sorted by
// origin for deterministic snapshot order.
func (st *Store) tableStates() []persist.TableState {
	st.mu.RLock()
	shards := make([]*shard, 0, len(st.tenants))
	for _, sh := range st.tenants {
		shards = append(shards, sh)
	}
	st.mu.RUnlock()
	states := make([]persist.TableState, 0, len(shards))
	for _, sh := range shards {
		if tbl := sh.cur.Load(); tbl != nil {
			states = append(states, st.stateOf(sh, tbl))
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i].Origin < states[j].Origin })
	return states
}

// snapshotLoop periodically flushes a full snapshot so lookup counters and
// slow-churning tables reach disk between retrains. Only durable stores
// run it.
func (st *Store) snapshotLoop(every time.Duration) {
	defer st.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-st.cancel:
			return
		case <-t.C:
			if _, err := st.pers.SnapshotAll(st.tableStates()); err != nil && st.cfg.Log != nil {
				st.cfg.Log.Warn("periodic snapshot failed", "err", err)
			}
		}
	}
}

// Ready reports whether every registered tenant has a published table and
// the store is accepting lookups — the readiness-endpoint predicate.
func (st *Store) Ready() bool {
	if st == nil {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed || len(st.tenants) == 0 {
		return false
	}
	for _, sh := range st.tenants {
		if sh.cur.Load() == nil {
			return false
		}
	}
	return true
}

// Recovering reports whether any tenant is still serving a table restored
// from disk that background retraining has not refreshed yet — the
// readiness endpoint's "recovering" state: answering (possibly stale)
// hints, not yet back to trained freshness.
func (st *Store) Recovering() bool {
	if st == nil {
		return false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	for _, sh := range st.tenants {
		if tbl := sh.cur.Load(); tbl != nil && tbl.restored {
			return true
		}
	}
	return false
}

// Tenants returns the number of resident tenants.
func (st *Store) Tenants() int {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.tenants)
}

// Drain stops the store: queued and in-flight retrains are cancelled (their
// results discarded), workers exit, and every shard's published table is
// checkpointed. Lookups after Drain still serve (read-only) from the last
// published tables, so a draining server can answer its in-flight requests.
// Drain returns once the workers have stopped or timeout passed; the
// checkpoints reflect the tables at that instant, sorted by origin.
func (st *Store) Drain(timeout time.Duration) []Checkpoint {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	if !st.closed {
		st.closed = true
		close(st.cancel)
	}
	st.mu.Unlock()

	done := make(chan struct{})
	go func() {
		st.wg.Wait()
		close(done)
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	}

	// Durable stores flush one final snapshot per origin so the drained
	// tables (with their final lookup counters) are what the next process
	// recovers. Per-origin outcomes ride the checkpoints: the server logs
	// each snapshot path and size and exits nonzero on any FlushErr.
	var flush map[string]persist.SnapInfo
	if st.pers != nil {
		infos, err := st.pers.SnapshotAll(st.tableStates())
		flush = make(map[string]persist.SnapInfo, len(infos))
		for _, in := range infos {
			flush[in.Origin] = in
		}
		if err != nil && st.cfg.Log != nil {
			st.cfg.Log.Error("final flush failed", "err", err)
		}
		st.pers.Close()
	}

	st.mu.RLock()
	defer st.mu.RUnlock()
	cps := make([]Checkpoint, 0, len(st.tenants))
	for _, sh := range st.tenants {
		cp := Checkpoint{Origin: sh.origin, Lookups: sh.lookups.Load(),
			Retrains: sh.retrains.Load()}
		if tbl := sh.cur.Load(); tbl != nil {
			cp.Version = tbl.version
			cp.TrainedAt = tbl.trainedAt
			cp.Restored = tbl.restored
			if st.pers != nil {
				if in, ok := flush[sh.origin]; ok {
					cp.SnapshotPath, cp.SnapshotBytes, cp.FlushErr = in.Path, in.Bytes, in.Err
				} else {
					cp.FlushErr = "final flush did not reach this origin"
				}
			}
		}
		cps = append(cps, cp)
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].Origin < cps[j].Origin })
	if st.cfg.Log != nil {
		st.cfg.Log.Info("store drained", "tenants", len(cps))
	}
	return cps
}

// SiteTrainer returns a Trainer that retrains a generated site's resolver
// the way a Vroom deployment's periodic crawler would: each retrain
// advances the training instant by the elapsed wall time since the store
// came up, so hints track the site's hourly content churn.
func SiteTrainer(site *webpage.Site, baseAt time.Time, device webpage.DeviceClass, cfg core.ResolverConfig) Trainer {
	start := time.Now()
	return func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		select {
		case <-cancel:
			return nil, ErrClosed
		default:
		}
		r := core.NewResolver(cfg)
		r.Train(site, baseAt.Add(time.Since(start)), device)
		return r, nil
	}
}

// StaticTrainer returns a Trainer that always serves the given pre-built
// resolver — for archive-only tenants whose hints come from online analysis
// of the served bytes.
func StaticTrainer(r *core.Resolver) Trainer {
	return func(version uint64, cancel <-chan struct{}) (*core.Resolver, error) {
		return r, nil
	}
}
