package webpage

import (
	"sync"
	"time"
)

// SnapshotCache memoizes Site.Snapshot materializations. A snapshot is a
// pure function of (site, time, profile, nonce), so one materialization can
// back every load that needs it — the five archive snapshots runner.Run
// builds per load, and the per-nonce measured snapshots repeated across the
// policies of one figure. Cached snapshots are shared: callers must treat
// them as read-only (everything in the load path already does).
//
// The cache is safe for concurrent use and deduplicates in-flight work: two
// workers asking for the same key materialize it once, with the loser
// blocking until the winner finishes. Entries are keyed by *Site, so a
// cache's lifetime should not exceed its corpus's (dropping the cache frees
// the snapshots).
type SnapshotCache struct {
	mu           sync.Mutex
	m            map[snapKey]*snapEntry
	hits, misses int64
}

type snapKey struct {
	site    *Site
	at      int64 // UnixNano; snapshots never use sub-nanosecond times
	profile Profile
	nonce   uint64
}

type snapEntry struct {
	once sync.Once
	sn   *Snapshot
}

// NewSnapshotCache returns an empty cache.
func NewSnapshotCache() *SnapshotCache {
	return &SnapshotCache{m: make(map[snapKey]*snapEntry)}
}

// Snapshot returns the memoized materialization of site at the given time,
// profile, and nonce, building it on first use.
func (c *SnapshotCache) Snapshot(site *Site, at time.Time, p Profile, nonce uint64) *Snapshot {
	key := snapKey{site: site, at: at.UnixNano(), profile: p, nonce: nonce}
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &snapEntry{}
		c.m[key] = e
		c.misses++
	} else {
		// In-flight dedup counts as a hit: the work is done once either way.
		c.hits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.sn = site.Snapshot(at, p, nonce) })
	return e.sn
}

// Stats returns how many Snapshot calls were served from the cache (hits)
// versus materialized fresh (misses).
func (c *SnapshotCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
