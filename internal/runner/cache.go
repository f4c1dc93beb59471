package runner

// Shared training caches: one offline analysis pass backs every load that
// needs it, instead of Run rebuilding the resolver, the archive snapshots,
// and the Polaris graph on each of the 3 back-to-back loads × N policies a
// figure runs per site.

import (
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/core"
	"vroom/internal/polaris"
	"vroom/internal/webpage"
)

// memo is a concurrency-safe memoization table with in-flight
// deduplication: concurrent gets of the same key build the value once, the
// losers blocking on the winner's sync.Once.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
	// hits counts gets that found an entry, even one still building.
	hits, misses atomic.Int64
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// get returns the memoized value for k, building it on first use.
func (c *memo[K, V]) get(k K, build func() V) V {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e, ok := c.m[k]
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
		e = &memoEntry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// trainKey identifies one offline training pass: the resolver's stable sets
// depend on exactly the site, the training instant, the device class, and
// the resolver configuration (which is comparable by construction — all
// scalar fields).
type trainKey struct {
	site   *webpage.Site
	at     int64 // UnixNano
	device webpage.DeviceClass
	cfg    core.ResolverConfig
}

// polarisKey identifies one Polaris offline graph capture.
type polarisKey struct {
	site     *webpage.Site
	at       int64
	profile  webpage.Profile
	interval time.Duration
}

// Caches memoizes the deterministic offline work Run repeats across loads:
// resolver training, site snapshots (measured and archive), and Polaris
// dependency graphs. All cached values are pure functions of their keys, so
// cached and uncached runs produce identical results; sharing only removes
// redundant recomputation. A Caches value is safe for concurrent use by
// many loads.
//
// Entries are keyed by *webpage.Site: scope a Caches to the corpus it
// serves (in practice, one figure) and drop it with the corpus.
type Caches struct {
	training memo[trainKey, *core.Resolver]
	polaris  memo[polarisKey, *polaris.Graph]
	snaps    *webpage.SnapshotCache
}

// CacheStats is a point-in-time snapshot of cache effectiveness, one
// hit/miss pair per cached artifact kind. The repository benchmark reports
// it as runner.caches_hit_share, so redundant recomputation shows.
type CacheStats struct {
	TrainingHits, TrainingMisses int64
	PolarisHits, PolarisMisses   int64
	SnapshotHits, SnapshotMisses int64
}

// Stats returns the cache's hit/miss counts so far.
func (c *Caches) Stats() CacheStats {
	s := CacheStats{
		TrainingHits:   c.training.hits.Load(),
		TrainingMisses: c.training.misses.Load(),
		PolarisHits:    c.polaris.hits.Load(),
		PolarisMisses:  c.polaris.misses.Load(),
	}
	s.SnapshotHits, s.SnapshotMisses = c.snaps.Stats()
	return s
}

// NewCaches returns an empty cache set.
func NewCaches() *Caches {
	return &Caches{snaps: webpage.NewSnapshotCache()}
}

// TrainedResolver returns a resolver with the given configuration trained
// on site at the given instant and device class, training it on first use.
// The returned resolver is shared: callers that set per-load state (Trace)
// must Clone it first.
func (c *Caches) TrainedResolver(site *webpage.Site, at time.Time, device webpage.DeviceClass, cfg core.ResolverConfig) *core.Resolver {
	return c.training.get(trainKey{site: site, at: at.UnixNano(), device: device, cfg: cfg}, func() *core.Resolver {
		r := core.NewResolver(cfg)
		r.Train(site, at, device)
		return r
	})
}

// PolarisGraph returns the memoized Polaris dependency graph for a site.
// The graph is read-only during loads (the scheduler keeps its own issued
// set), so one graph backs any number of concurrent loads.
func (c *Caches) PolarisGraph(site *webpage.Site, at time.Time, p webpage.Profile, interval time.Duration) *polaris.Graph {
	return c.polaris.get(polarisKey{site: site, at: at.UnixNano(), profile: p, interval: interval}, func() *polaris.Graph {
		return polaris.TrainGraph(site, at, p, interval)
	})
}

// Snapshot returns the memoized site materialization for the key, shared
// read-only across loads. A nil Caches materializes afresh.
func (c *Caches) Snapshot(site *webpage.Site, at time.Time, p webpage.Profile, nonce uint64) *webpage.Snapshot {
	if c == nil {
		return site.Snapshot(at, p, nonce)
	}
	return c.snaps.Snapshot(site, at, p, nonce)
}
