package core

import (
	"testing"
	"time"

	"vroom/internal/browser"
	"vroom/internal/event"
	"vroom/internal/hints"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// recordingTransport resolves fetches from a snapshot after a fixed delay
// and records issue order.
type recordingTransport struct {
	eng   *event.Engine
	sn    *webpage.Snapshot
	delay time.Duration
	log   []struct {
		url string
		at  time.Time
	}
}

func (rt *recordingTransport) Fetch(u urlutil.URL, started func(), done func(*browser.Fetched)) func() {
	rt.log = append(rt.log, struct {
		url string
		at  time.Time
	}{u.String(), rt.eng.Now()})
	rt.eng.ScheduleAfter(rt.delay, "fetch", func() {
		if res, ok := rt.sn.Lookup(u); ok {
			done(&browser.Fetched{URL: u, Res: res, Size: res.Size})
			return
		}
		done(&browser.Fetched{URL: u, Size: 100})
	})
	return nil
}

func TestStagedSchedulerHoldsLowUntilHighDone(t *testing.T) {
	site := webpage.NewSite("stagetest", webpage.Top100, 99)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	eng := event.New(trainTime)
	tr := &recordingTransport{eng: eng, sn: sn, delay: 80 * time.Millisecond}
	sched := NewStagedScheduler()
	l := browser.NewLoad(eng, tr, browser.Config{}, sched, sn.Root)
	l.Start()

	// Hint a high and a low resource immediately (as if from headers).
	var high, low urlutil.URL
	for _, r := range sn.Ordered() {
		if high == (urlutil.URL{}) && r.Type == webpage.JS && !r.Async && !r.InIframe {
			high = r.URL
		}
		if low == (urlutil.URL{}) && r.Type == webpage.Image {
			low = r.URL
		}
	}
	l.Hint(hints.Hint{URL: high, Priority: hints.High})
	l.Hint(hints.Hint{URL: low, Priority: hints.Low})

	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatalf("unfinished: %s", l)
	}

	at := map[string]time.Time{}
	for _, e := range tr.log {
		if _, dup := at[e.url]; !dup {
			at[e.url] = e.at
		}
	}
	rootAt, highAt, lowAt := at[sn.Root.String()], at[high.String()], at[low.String()]
	if highAt.IsZero() || lowAt.IsZero() {
		t.Fatal("hinted resources never fetched")
	}
	// The high hint goes out immediately at hint time, before the root
	// response; the low hint waits for the high stage to clear, i.e., at
	// least until the root and high fetches complete.
	if highAt.After(rootAt.Add(time.Millisecond)) {
		t.Errorf("high hint not fetched immediately: %v vs root %v", highAt, rootAt)
	}
	if !lowAt.After(highAt.Add(tr.delay - time.Millisecond)) {
		t.Errorf("low hint fetched before high stage drained: low at %v, high at %v (+%v delay)",
			lowAt.Sub(rootAt), highAt.Sub(rootAt), tr.delay)
	}
}

// TestStagedSchedulerHinted404DoesNotBlock is the graceful-degradation
// regression test for stale hints: a hinted URL the server 404s (error body,
// no content) must not deadlock the staged scheduler's stage gates, must not
// count toward the page's required work, and must not move PLT beyond the
// cost of the wasted fetch itself.
func TestStagedSchedulerHinted404DoesNotBlock(t *testing.T) {
	site := webpage.NewSite("stagetest", webpage.Top100, 99)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	const delay = 50 * time.Millisecond
	stale := urlutil.MustParse("https://static.stagetest.com/js/gone-404.js")

	run := func(withStaleHint bool) browser.Result {
		eng := event.New(trainTime)
		tr := &recordingTransport{eng: eng, sn: sn, delay: delay}
		l := browser.NewLoad(eng, tr, browser.Config{}, NewStagedScheduler(), sn.Root)
		l.Start()
		if withStaleHint {
			// High priority on purpose: Semi and Low stages gate on the
			// high stage draining, so a wedged 404 would deadlock here.
			l.Hint(hints.Hint{URL: stale, Priority: hints.High})
		}
		if _, err := eng.Run(3_000_000); err != nil {
			t.Fatal(err)
		}
		if !l.Finished() {
			t.Fatalf("load wedged (withStaleHint=%v): %s", withStaleHint, l)
		}
		if withStaleHint {
			e := l.Entry(stale)
			if e == nil {
				t.Fatal("hinted entry missing")
			}
			if e.Required {
				t.Error("404ed hint marked required")
			}
		}
		return l.Result()
	}

	clean := run(false)
	faulted := run(true)
	if faulted.NumRequired != clean.NumRequired {
		t.Errorf("stale hint changed required count: %d vs %d", faulted.NumRequired, clean.NumRequired)
	}
	if faulted.HintsFailed != 1 {
		t.Errorf("HintsFailed = %d, want 1", faulted.HintsFailed)
	}
	if faulted.WastedBytes == 0 {
		t.Error("404 error body not counted as waste")
	}
	// The 404 occupies the high stage for one round trip at worst; it must
	// not cascade into the load's critical path beyond that.
	if faulted.PLT > clean.PLT+2*delay {
		t.Errorf("stale hint inflated PLT: %v vs %v", faulted.PLT, clean.PLT)
	}
}

// TestStagedSchedulerUpgradesQueuedPriority is the regression test for the
// stage-gate priority upgrade: a resource queued at Low and later hinted at
// a higher priority must be re-filed under the higher class (and issued
// when that stage opens), not left to wait behind the Low gate.
func TestStagedSchedulerUpgradesQueuedPriority(t *testing.T) {
	site := webpage.NewSite("stagetest", webpage.Top100, 99)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	eng := event.New(trainTime)
	tr := &recordingTransport{eng: eng, sn: sn, delay: 80 * time.Millisecond}
	sched := NewStagedScheduler()
	l := browser.NewLoad(eng, tr, browser.Config{}, sched, sn.Root)
	l.Start()

	// Two images (Low by type); upgrade the first to Semi after queueing.
	var imgA, imgB urlutil.URL
	for _, r := range sn.Ordered() {
		if r.Type != webpage.Image {
			continue
		}
		if imgA == (urlutil.URL{}) {
			imgA = r.URL
		} else if imgB == (urlutil.URL{}) {
			imgB = r.URL
			break
		}
	}
	if imgB == (urlutil.URL{}) {
		t.Skip("snapshot has fewer than two images")
	}
	l.Hint(hints.Hint{URL: imgA, Priority: hints.Low})
	l.Hint(hints.Hint{URL: imgB, Priority: hints.Low})
	l.Hint(hints.Hint{URL: imgA, Priority: hints.Semi}) // the upgrade

	a, b := l.Entry(imgA), l.Entry(imgB)
	if p, ok := sched.gate.Queued(a); !ok || p != hints.Semi {
		t.Errorf("upgraded entry queued under %v (queued=%v), want %v", p, ok, hints.Semi)
	}
	if p, ok := sched.gate.Queued(b); !ok || p != hints.Low {
		t.Errorf("other entry queued under %v (queued=%v), want %v", p, ok, hints.Low)
	}
	// Re-filed, not copied: the upgraded entry left the Low queue.
	if n := sched.gate.Pending(); n != 2 {
		t.Errorf("gate holds %d entries, want 2", n)
	}
	// A downgrade attempt must not move it back.
	l.Hint(hints.Hint{URL: imgA, Priority: hints.Low})
	if p, _ := sched.gate.Queued(a); p != hints.Semi {
		t.Errorf("after downgrade attempt queued under %v, want %v", p, hints.Semi)
	}
	if n := sched.gate.Pending(); n != 2 {
		t.Errorf("after downgrade attempt gate holds %d entries, want 2", n)
	}

	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatalf("unfinished: %s", l)
	}
	at := map[string]time.Time{}
	for _, e := range tr.log {
		if _, dup := at[e.url]; !dup {
			at[e.url] = e.at
		}
	}
	aAt, bAt := at[imgA.String()], at[imgB.String()]
	if aAt.IsZero() || bAt.IsZero() {
		t.Fatal("hinted images never fetched")
	}
	// The upgraded image goes out when the Semi stage opens; the Low gate
	// (and imgB behind it) cannot open until the Semi fetch has drained.
	if !aAt.Before(bAt) {
		t.Errorf("upgraded image not issued before the Low stage: semi at %v, low at %v",
			aAt.Sub(trainTime), bAt.Sub(trainTime))
	}
}

func TestStagedSchedulerFetchesRequiredHighImmediately(t *testing.T) {
	site := webpage.NewSite("stagetest", webpage.Top100, 99)
	sn := site.Snapshot(trainTime, webpage.Profile{Device: webpage.PhoneSmall, UserID: 1}, 1)
	eng := event.New(trainTime)
	tr := &recordingTransport{eng: eng, sn: sn, delay: 50 * time.Millisecond}
	l := browser.NewLoad(eng, tr, browser.Config{}, NewStagedScheduler(), sn.Root)
	l.Start()
	if _, err := eng.Run(3_000_000); err != nil {
		t.Fatal(err)
	}
	if !l.Finished() {
		t.Fatal("load with no hints at all must still finish under the staged scheduler")
	}
}
