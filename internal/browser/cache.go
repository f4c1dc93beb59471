package browser

import (
	"time"

	"vroom/internal/webpage"
)

// Cache is the browser's HTTP cache, keyed by URL. Entries expire per the
// resource's TTL; the digest of cached URLs is also what a Vroom server
// consults to avoid pushing content the client already holds (§6.1,
// "VROOM accelerates page loads with warm caches").
type Cache struct {
	entries map[string]cacheEntry
}

// cacheHitDelay is the local lookup latency for a fresh cache entry.
const cacheHitDelay = time.Millisecond

type cacheEntry struct {
	res     *webpage.Resource
	expires time.Time
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]cacheEntry)}
}

// Get returns the cached resource if present and fresh at now.
func (c *Cache) Get(url string, now time.Time) (*webpage.Resource, bool) {
	e, ok := c.entries[url]
	if !ok || now.After(e.expires) {
		return nil, false
	}
	return e.res, true
}

// Fresh reports whether url is cached and unexpired (the server-side cache
// digest check).
func (c *Cache) Fresh(url string, now time.Time) bool {
	_, ok := c.Get(url, now)
	return ok
}

// Stale reports whether url is cached but expired — a candidate for
// conditional revalidation (If-None-Match → 304).
func (c *Cache) Stale(url string, now time.Time) bool {
	e, ok := c.entries[url]
	return ok && now.After(e.expires)
}

// Put stores a cacheable resource.
func (c *Cache) Put(url string, res *webpage.Resource, now time.Time) {
	if res == nil || !res.Cacheable || res.TTL <= 0 {
		return
	}
	c.entries[url] = cacheEntry{res: res, expires: now.Add(res.TTL)}
}
