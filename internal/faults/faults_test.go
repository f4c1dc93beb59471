package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"vroom/internal/hints"
	"vroom/internal/urlutil"
)

func mkURL(s string) urlutil.URL { return urlutil.MustParse(s) }

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	u := mkURL("https://a.com/x.js")
	if p.OriginDown("https://a.com", time.Second) {
		t.Error("nil plan reported outage")
	}
	if p.BrownoutDelay("https://a.com") != 0 {
		t.Error("nil plan reported brownout")
	}
	if p.ResponseVerdict(u) != FaultNone {
		t.Error("nil plan faulted a response")
	}
	if _, fate := p.staleHint(u); fate != hintFresh {
		t.Error("nil plan staled a hint")
	}
	if p.Failing("https://a.com", 0) {
		t.Error("nil plan marked origin failing")
	}
	p.MarkFailing("https://a.com") // must not panic
	if got := p.Stats(); got != nil {
		t.Errorf("nil plan stats: %v", got)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	p := New(7, Config{})
	for i := 0; i < 200; i++ {
		u := mkURL(fmt.Sprintf("https://o%d.com/r%d.js", i%13, i))
		if p.ResponseVerdict(u) != FaultNone {
			t.Fatalf("zero config faulted %s", u)
		}
		if p.OriginDown(u.Origin(), time.Duration(i)*time.Second) {
			t.Fatalf("zero config outage for %s", u.Origin())
		}
		if _, fate := p.staleHint(u); fate != hintFresh {
			t.Fatalf("zero config staled %s", u)
		}
	}
}

func TestDecisionsAreSeedDeterministic(t *testing.T) {
	cfg := RegimeConfig(RegimeSevere)
	a, b := New(42, cfg), New(42, cfg)
	for i := 0; i < 500; i++ {
		u := mkURL(fmt.Sprintf("https://o%d.com/r%d.js", i%17, i))
		if a.ResponseVerdict(u) != b.ResponseVerdict(u) {
			t.Fatalf("verdicts diverged at %d", i)
		}
		if a.OriginDown(u.Origin(), 3*time.Second) != b.OriginDown(u.Origin(), 3*time.Second) {
			t.Fatalf("outages diverged at %d", i)
		}
		if a.BrownoutDelay(u.Origin()) != b.BrownoutDelay(u.Origin()) {
			t.Fatalf("brownouts diverged at %d", i)
		}
		au, af := a.staleHint(u)
		bu, bf := b.staleHint(u)
		if au != bu || af != bf {
			t.Fatalf("stale hints diverged at %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := RegimeConfig(RegimeSevere)
	a, b := New(1, cfg), New(2, cfg)
	same := 0
	const n = 400
	for i := 0; i < n; i++ {
		u := mkURL(fmt.Sprintf("https://o%d.com/r%d.js", i%29, i))
		if a.ResponseVerdict(u) == b.ResponseVerdict(u) {
			same++
		}
	}
	if same == n {
		t.Error("two seeds produced identical fault schedules")
	}
}

func TestRetriesDrawFreshVerdicts(t *testing.T) {
	// With a high error rate, repeated attempts at one URL must not all
	// share one verdict: the occurrence index has to enter the draw.
	p := New(3, Config{ErrorRate: 0.5})
	u := mkURL("https://a.com/app.js")
	verdicts := map[ResponseFault]int{}
	for i := 0; i < 64; i++ {
		verdicts[p.ResponseVerdict(u)]++
	}
	if len(verdicts) < 2 {
		t.Fatalf("64 attempts produced a single verdict: %v", verdicts)
	}
}

func TestRatesRoughlyHonored(t *testing.T) {
	p := New(11, Config{ErrorRate: 0.2})
	errors := 0
	const n = 2000
	for i := 0; i < n; i++ {
		u := mkURL(fmt.Sprintf("https://h.com/r%d.js", i))
		if p.ResponseVerdict(u) == FaultError {
			errors++
		}
	}
	frac := float64(errors) / n
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("error rate 0.2 produced %.3f", frac)
	}
}

func TestOutageWindows(t *testing.T) {
	cfg := Config{OriginOutageFrac: 1, OutageMaxStart: 0, OutageDuration: 10 * time.Second}
	p := New(5, cfg)
	if !p.OriginDown("https://a.com", time.Second) {
		t.Error("origin up inside its outage window")
	}
	if p.OriginDown("https://a.com", time.Minute) {
		t.Error("origin down after its outage window")
	}
}

func TestExemptURLShieldedFromFaults(t *testing.T) {
	cfg := Config{ErrorRate: 1, StaleHintRate: 1}
	p := New(9, cfg)
	root := mkURL("https://www.site.com/")
	p.ExemptURL(root)
	if p.ResponseVerdict(root) != FaultNone {
		t.Error("exempt URL drew a response fault")
	}
	if _, fate := p.staleHint(root); fate != hintFresh {
		t.Error("exempt URL drew a stale hint")
	}
	other := mkURL("https://www.site.com/x.js")
	if p.ResponseVerdict(other) == FaultNone {
		t.Error("non-exempt URL escaped a certain fault")
	}
}

func TestStaleHintManglingSameOrigin(t *testing.T) {
	p := New(13, Config{StaleHintRate: 1, RedirectFrac: 0.5})
	gone, redir := 0, 0
	for i := 0; i < 100; i++ {
		u := mkURL(fmt.Sprintf("https://cdn.site.com/a%d.css", i))
		m, fate := p.staleHint(u)
		switch fate {
		case hintFresh:
			t.Fatalf("rate 1 left %s fresh", u)
		case hintGone:
			gone++
		case hintRedirect:
			redir++
		}
		if m.Origin() != u.Origin() {
			t.Fatalf("mangled hint changed origin: %s -> %s", u, m)
		}
		if m == u {
			t.Fatalf("stale hint not mangled: %s", u)
		}
	}
	if gone == 0 || redir == 0 {
		t.Errorf("fates not mixed: gone=%d redirect=%d", gone, redir)
	}
}

func TestHealthMarking(t *testing.T) {
	p := New(1, Config{})
	if p.Failing("https://a.com", 0) {
		t.Error("fresh origin failing")
	}
	p.MarkFailing("https://a.com")
	if !p.Failing("https://a.com", 0) {
		t.Error("marked origin not failing")
	}
	if p.Failing("https://b.com", 0) {
		t.Error("unrelated origin failing")
	}
}

func TestRegimesOrdered(t *testing.T) {
	mild, severe := RegimeConfig(RegimeMild), RegimeConfig(RegimeSevere)
	if mild.ErrorRate >= severe.ErrorRate || mild.StaleHintRate >= severe.StaleHintRate ||
		mild.OriginOutageFrac >= severe.OriginOutageFrac {
		t.Errorf("mild not strictly milder than severe: %+v vs %+v", mild, severe)
	}
	if none := RegimeConfig(RegimeNone); none != (Config{}) {
		t.Errorf("none regime has rates: %+v", none)
	}
}

func TestParseRegime(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Regime
	}{{"none", RegimeNone}, {"", RegimeNone}, {"mild", RegimeMild}, {"severe", RegimeSevere}} {
		got, err := ParseRegime(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseRegime(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseRegime("apocalyptic"); err == nil {
		t.Error("unknown regime accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	p := New(21, Config{ErrorRate: 1})
	for i := 0; i < 5; i++ {
		p.ResponseVerdict(mkURL(fmt.Sprintf("https://h.com/%d", i)))
	}
	stats := p.Stats()
	if len(stats) != 1 || stats[0].Name != "responses-5xx" || stats[0].Count != 5 {
		t.Errorf("stats = %v", stats)
	}
}

func TestWireConnFaultDeterministicPerIndex(t *testing.T) {
	cfg := Config{ErrorRate: 0.2, TruncateRate: 0.2, StallRate: 0.2}
	draw := func() []string {
		p := New(99, cfg)
		var out []string
		for _, origin := range []string{"https://a.com", "https://b.com"} {
			for i := 0; i < 8; i++ {
				f, cut, idx := p.WireConnFault(origin)
				out = append(out, fmt.Sprintf("%s#%d:%s@%d", origin, idx, f, cut))
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically seeded plans: %s vs %s", i, a[i], b[i])
		}
	}
	// The sequence must not be constant: with 60% fault probability over 16
	// draws, both at least one fault and at least one clean conn are
	// overwhelmingly likely.
	var faulted, clean int
	p := New(99, cfg)
	for i := 0; i < 16; i++ {
		f, _, _ := p.WireConnFault("https://a.com")
		if f == FaultNone {
			clean++
		} else {
			faulted++
		}
	}
	if faulted == 0 || clean == 0 {
		t.Fatalf("degenerate draw distribution: %d faulted, %d clean", faulted, clean)
	}
	// Stalls never deliver a first byte.
	ps := New(7, Config{StallRate: 1})
	f, cut, _ := ps.WireConnFault("https://a.com")
	if f != FaultStall || cut != 0 {
		t.Fatalf("all-stall config drew %s@%d, want stall@0", f, cut)
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	p := New(3, RegimeConfig(RegimeSevere))
	u := mkURL("https://a.com/x.js")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				p.ResponseVerdict(u)
				p.WireConnFault("https://a.com")
				p.OriginDown("https://a.com", time.Second)
				p.BrownoutDelay("https://b.com")
				p.staleHint(u)
				p.MarkFailing("https://c.com")
				p.Failing("https://c.com", time.Second)
				p.Stats()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestStaleHintsCopiesAndReportsRedirects(t *testing.T) {
	var hs []hints.Hint
	for i := 0; i < 50; i++ {
		hs = append(hs, hints.Hint{URL: mkURL(fmt.Sprintf("https://cdn.site.com/a%d.css", i)), Priority: hints.High})
	}
	orig := append([]hints.Hint(nil), hs...)
	noRedirect := func(stale, fresh urlutil.URL) { t.Fatalf("unexpected redirect %s", stale) }
	var nilPlan *Plan
	if got := nilPlan.StaleHints(hs, noRedirect); &got[0] != &hs[0] {
		t.Error("nil plan did not return hs itself")
	}
	p := New(13, Config{StaleHintRate: 0.5, RedirectFrac: 0.5})
	if got := p.StaleHints(nil, noRedirect); got != nil {
		t.Errorf("empty hints came back as %v", got)
	}
	redirects := map[urlutil.URL]urlutil.URL{}
	out := p.StaleHints(hs, func(stale, fresh urlutil.URL) { redirects[stale] = fresh })
	if !reflect.DeepEqual(hs, orig) {
		t.Fatal("StaleHints rewrote its input in place")
	}
	staled := 0
	for i, h := range out {
		if h.Priority != hs[i].Priority {
			t.Fatalf("hint %d changed priority", i)
		}
		if h.URL == hs[i].URL {
			continue
		}
		staled++
		if fresh, ok := redirects[h.URL]; ok && fresh != hs[i].URL {
			t.Errorf("redirect %s -> %s, want %s", h.URL, fresh, hs[i].URL)
		}
	}
	if staled == 0 || len(redirects) == 0 || len(redirects) == staled {
		t.Errorf("%d of %d hints staled, %d redirecting: want a mix of gone and redirect", staled, len(hs), len(redirects))
	}
}
