package faults_test

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"vroom/internal/faults"
	"vroom/internal/hints"
	"vroom/internal/netem"
	"vroom/internal/urlutil"
)

// hammerConfig enables every fault class. OutageMaxStart zero with a long
// duration makes outage verdicts time-independent, so decision sets are a
// pure function of the seed no matter when a goroutine happens to ask.
func hammerConfig() faults.Config {
	return faults.Config{
		OriginOutageFrac: 0.2,
		OutageMaxStart:   0,
		OutageDuration:   10 * time.Minute,
		BrownoutFrac:     0.3,
		BrownoutMaxDelay: 5 * time.Millisecond,
		ErrorRate:        0.1,
		TruncateRate:     0.1,
		StallRate:        0.05,
		StaleHintRate:    0.25,
		RedirectFrac:     0.5,
	}
}

func hammerURL(t testing.TB, s string) urlutil.URL {
	t.Helper()
	u, err := urlutil.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestPlanConcurrentVerdictHammer pounds one Plan from many goroutines the
// way a loaded server and fault shim do — the server drawing response and
// hint verdicts while the shim draws dial-time wire verdicts and health
// marks — and relies on -race to catch unsynchronized decision state.
func TestPlanConcurrentVerdictHammer(t *testing.T) {
	plan := faults.New(99, hammerConfig())
	root := hammerURL(t, "https://www.origin0.com/")
	plan.ExemptURL(root)

	origins := make([]string, 5)
	urls := make([]urlutil.URL, 5)
	for i := range origins {
		origins[i] = fmt.Sprintf("www.origin%d.com", i)
		urls[i] = hammerURL(t, fmt.Sprintf("https://www.origin%d.com/r/%d.js", i, i))
	}

	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				origin := origins[(g+i)%len(origins)]
				u := urls[(g+i)%len(urls)]
				plan.OriginDown(origin, time.Duration(i)*time.Millisecond)
				plan.BrownoutDelay(origin)
				plan.ResponseVerdict(u)
				plan.WireConnFault(origin)
				plan.TruncateFrac(u)
				plan.StaleHints([]hints.Hint{{URL: u}}, func(stale, fresh urlutil.URL) {})
				if i%17 == 0 {
					plan.MarkFailing(origin)
				}
				plan.Failing(origin, time.Duration(i)*time.Millisecond)
				if i%29 == 0 {
					plan.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	if len(plan.Stats()) == 0 {
		t.Fatal("hammer drew no fault decisions at all")
	}
	// The exempt root must have stayed shielded through the storm.
	if v := plan.ResponseVerdict(root); v != faults.FaultNone {
		t.Fatalf("exempt root drew verdict %v", v)
	}
}

// TestFaultShimDecisionDeterminism runs the same concurrent dial workload
// twice against same-seed plans and asserts byte-identical decision sets:
// verdicts are keyed by (origin, nth connection), so goroutine scheduling
// can reorder draws but never change them.
func TestFaultShimDecisionDeterminism(t *testing.T) {
	origins := []string{"www.siteA.com", "www.siteB.com", "www.siteC.com"}

	run := func(seed int64) []string {
		shim := netem.NewFaultShim(faults.New(seed, hammerConfig()))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					for _, origin := range origins {
						c, err := shim.Dial(origin, func() (net.Conn, error) {
							a, b := net.Pipe()
							b.Close()
							return a, nil
						})
						if err == nil {
							c.Close()
						}
					}
				}
			}()
		}
		wg.Wait()
		return shim.Decisions()
	}

	d1, d2 := run(2017), run(2017)
	if len(d1) == 0 {
		t.Fatal("no fault decisions drawn; the determinism assertion is vacuous")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("same seed, different decision sets:\n  run1=%v\n  run2=%v", d1, d2)
	}
	if d3 := run(2018); reflect.DeepEqual(d1, d3) {
		t.Fatal("different seeds drew identical decision sets")
	}
}
