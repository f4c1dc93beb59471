package webpage

import (
	"sync"
	"testing"
	"time"
)

func TestSnapshotCacheSharesAndKeys(t *testing.T) {
	site := NewSite("cachetest", News, 7)
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	p := Profile{Device: PhoneSmall, UserID: 11}
	c := NewSnapshotCache()

	a := c.Snapshot(site, at, p, 1)
	if b := c.Snapshot(site, at, p, 1); b != a {
		t.Error("same key returned a different snapshot")
	}
	if b := c.Snapshot(site, at, p, 2); b == a {
		t.Error("different nonce shared a snapshot")
	}
	if b := c.Snapshot(site, at.Add(time.Hour), p, 1); b == a {
		t.Error("different time shared a snapshot")
	}
	if b := c.Snapshot(site, at, Profile{Device: Tablet, UserID: 11}, 1); b == a {
		t.Error("different profile shared a snapshot")
	}
	if len(c.m) != 4 {
		t.Errorf("cache holds %d entries, want 4", len(c.m))
	}
	// A cached snapshot is the same materialization an uncached call makes.
	fresh := site.Snapshot(at, p, 1)
	if len(fresh.Ordered()) != len(a.Ordered()) || fresh.Root != a.Root {
		t.Errorf("cached snapshot diverges: %d resources vs %d", len(a.Ordered()), len(fresh.Ordered()))
	}
}

func TestSnapshotCacheConcurrentSingleBuild(t *testing.T) {
	site := NewSite("cachetest", News, 7)
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	p := Profile{Device: PhoneSmall, UserID: 11}
	c := NewSnapshotCache()

	const n = 16
	got := make([]*Snapshot, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Snapshot(site, at, p, 1)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent gets built distinct snapshots")
		}
	}
}
