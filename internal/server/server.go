// Package server models the web-server side of a page load over the
// simulated network: content lookup across snapshots, server think time,
// Vroom's online HTML analysis delay, dependency-hint headers, and HTTP/2
// push policies — per domain, so that incremental-adoption scenarios where
// only some domains are Vroom-compliant can be expressed.
package server

import (
	"fmt"
	"time"

	"vroom/internal/browser"
	"vroom/internal/core"
	"vroom/internal/faults"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/netsim"
	"vroom/internal/obs"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// PushMode selects what a compliant server pushes with an HTML response.
type PushMode int

// Push modes.
const (
	// PushNone disables push.
	PushNone PushMode = iota
	// PushHighPriorityLocal pushes same-origin high-priority dependencies
	// (Vroom's choice, §4.3).
	PushHighPriorityLocal
	// PushAllLocal pushes every same-origin dependency (strawman).
	PushAllLocal
)

// Policy is the per-deployment server behaviour.
type Policy struct {
	// Compliant reports whether a host has deployed Vroom. Non-compliant
	// hosts serve plain responses. Nil means all hosts are compliant.
	Compliant func(host string) bool
	// SendHints enables dependency-hint headers on HTML responses.
	SendHints bool
	// Push selects the push policy for HTML responses.
	Push PushMode
	// OnlineAnalysis adds the on-the-fly HTML parse to think time and
	// feeds the served body to the resolver (§4.1.2).
	OnlineAnalysis bool
	// CacheAware suppresses pushes of resources the client already holds
	// (the cache-digest cookie of footnote 2).
	CacheAware bool
}

// Config holds the farm's timing model.
type Config struct {
	// ThinkTime is the base server processing delay per request.
	ThinkTime time.Duration
	// ParseBase/ParsePerKB model the online HTML analysis delay the paper
	// measures at roughly 100 ms for large pages (§4.1.2).
	ParseBase  time.Duration
	ParsePerKB time.Duration
	// ErrorSize is the body size served for unknown URLs (stale hints).
	ErrorSize int
}

// DefaultConfig returns production-flavoured timings.
func DefaultConfig() Config {
	return Config{
		ThinkTime:  40 * time.Millisecond,
		ParseBase:  10 * time.Millisecond,
		ParsePerKB: 800 * time.Microsecond,
		ErrorSize:  1200,
	}
}

// Farm serves one client's page load: it implements browser.Transport over
// a netsim.Net and delivers pushes straight into the client's Load.
type Farm struct {
	Net      *netsim.Net
	Snapshot *webpage.Snapshot
	// Archive holds older snapshots; fingerprinted assets from previous
	// materializations remain fetchable there, as on real CDNs.
	Archive  []*webpage.Snapshot
	Resolver *core.Resolver
	Policy   Policy
	Cfg      Config

	// Client is the load to deliver push promises and push bodies to.
	// Set by Attach.
	Client *browser.Load
	// ClientCache is the client's cache digest for CacheAware push.
	ClientCache *browser.Cache
	// Faults, when set, injects server-level faults: hinted URLs go stale
	// (404 or redirect) and pushes to failing origins are suppressed. Nil
	// injects nothing.
	Faults *faults.Plan

	// Trace, when set, records hint emission and push decisions on the
	// server track. Nil disables.
	Trace *obs.Tracer

	// Quality, when set, receives the farm's hint-efficacy accounting:
	// emissions are credited to the hinting document's origin as they are
	// served, and SettleQuality (called once the load finished) settles
	// each resource's outcome against its own host — the same attribution
	// split the wire accountant uses. Nil disables, the zero-overhead path.
	Quality *hintstore.Store

	pushed map[string]bool
	// redirects maps stale hinted URLs to the fresh URL they now point at.
	redirects map[string]urlutil.URL
}

// NewFarm builds a farm for one load.
func NewFarm(net *netsim.Net, sn *webpage.Snapshot, res *core.Resolver, pol Policy, cfg Config) *Farm {
	return &Farm{
		Net: net, Snapshot: sn, Resolver: res, Policy: pol, Cfg: cfg,
		pushed:    make(map[string]bool),
		redirects: make(map[string]urlutil.URL),
	}
}

// Attach wires the client load (for push delivery and cache digests).
func (f *Farm) Attach(l *browser.Load, cache *browser.Cache) {
	f.Client = l
	f.ClientCache = cache
}

// Lookup finds the content for a URL in the current snapshot or the
// archive.
func (f *Farm) Lookup(u urlutil.URL) (*webpage.Resource, bool) {
	if r, ok := f.Snapshot.Lookup(u); ok {
		return r, true
	}
	for _, sn := range f.Archive {
		if r, ok := sn.Lookup(u); ok {
			return r, true
		}
	}
	return nil, false
}

// Fetch implements browser.Transport. The returned abort func cancels the
// request from the client side (the browser's timeout path).
func (f *Farm) Fetch(u urlutil.URL, started func(), done func(*browser.Fetched)) func() {
	req := f.Net.Do(u, func(rt *netsim.RoundTrip) { f.handle(rt, done) })
	req.OnStart = started
	req.OnFail = func(reason string) {
		done(&browser.Fetched{URL: u, Failed: true, FailReason: reason})
	}
	return req.Abort
}

// sinceStart returns the offset from load start (for fault windows).
func (f *Farm) sinceStart() time.Duration {
	if f.Client == nil {
		return 0
	}
	return f.Client.Eng.Now().Sub(f.Client.StartTime())
}

// handle services one request at the server.
func (f *Farm) handle(rt *netsim.RoundTrip, done func(*browser.Fetched)) {
	// A stale hinted URL whose content moved: answer with a redirect to
	// the fresh URL (headers only, no content).
	if fresh, ok := f.redirects[rt.URL.String()]; ok {
		const redirectSize = 300
		rt.Respond(redirectSize, f.Cfg.ThinkTime, func() {
			done(&browser.Fetched{URL: rt.URL, Size: redirectSize, RedirectTo: fresh})
		})
		return
	}

	res, ok := f.Lookup(rt.URL)
	if !ok {
		size := f.Cfg.ErrorSize
		if size <= 0 {
			size = 1200
		}
		rt.Respond(size, f.Cfg.ThinkTime, func() {
			done(&browser.Fetched{URL: rt.URL, Res: nil, Size: size})
		})
		return
	}

	// Conditional revalidation: the client holds an expired copy of a
	// URL we still serve; fingerprinted URLs imply unchanged content, so
	// answer 304 with no body.
	if f.ClientCache != nil && f.Client != nil && f.ClientCache.Stale(rt.URL.String(), f.Client.Eng.Now()) {
		const headerOnly = 220
		rt.Respond(headerOnly, f.Cfg.ThinkTime, func() {
			done(&browser.Fetched{URL: rt.URL, Res: res, Size: headerOnly, NotModified: true})
		})
		return
	}

	think := f.Cfg.ThinkTime
	var hs []hints.Hint
	compliant := f.Policy.Compliant == nil || f.Policy.Compliant(rt.URL.Host)
	isHTML := res.Type == webpage.HTML
	if isHTML && compliant && (f.Policy.SendHints || f.Policy.Push != PushNone) {
		if f.Policy.OnlineAnalysis {
			think += f.Cfg.ParseBase + time.Duration(float64(res.Size)/1024*float64(f.Cfg.ParsePerKB))
		}
		device := f.Snapshot.Profile.Device
		body := ""
		if f.Policy.OnlineAnalysis {
			body = res.Body
		}
		// Stale hints are mangled, and redirecting ones remembered so
		// handle can answer them.
		hs = f.Faults.StaleHints(f.Resolver.HintsFor(rt.URL, body, device), func(stale, fresh urlutil.URL) {
			f.redirects[stale.String()] = fresh
		})
		if f.Trace.Enabled() {
			f.Trace.Instant(obs.TrackServer, "hints:"+rt.URL.String(),
				obs.Arg{Key: "count", Val: fmt.Sprint(len(hs))})
		}
		if f.Quality != nil && len(hs) > 0 {
			f.Quality.NoteQuality(rt.URL.Host, hints.QualityDelta{HintsEmitted: int64(len(hs))})
		}
		f.push(rt, hs)
		if !f.Policy.SendHints {
			hs = nil
		}
	}

	rt.Respond(res.Size, think, func() {
		done(&browser.Fetched{URL: rt.URL, Res: res, Size: res.Size, Hints: hs})
	})
}

// SettleQuality folds the finished client load's outcomes into the quality
// store, one hints.Settle delta per resource against the resource's own
// host, so each push is at most one lead observation. No-op without a
// Quality store.
func (f *Farm) SettleQuality() {
	if f.Quality == nil || f.Client == nil {
		return
	}
	for _, e := range f.Client.Entries() {
		o := f.Client.Outcome(e)
		if d := hints.Settle(o); d != (hints.QualityDelta{}) {
			f.Quality.NoteQuality(o.Host, d)
		}
	}
}

// push initiates the policy's pushes for an HTML response.
func (f *Farm) push(rt *netsim.RoundTrip, hs []hints.Hint) {
	if f.Policy.Push == PushNone || f.Client == nil {
		return
	}
	urls := core.PushSet(hs, rt.URL, f.Policy.Push == PushAllLocal)
	now := f.Client.Eng.Now()
	skip := func(key, why string) {
		if f.Trace.Enabled() {
			f.Trace.Instant(obs.TrackServer, "push-skip:"+key, obs.Arg{Key: "why", Val: why})
		}
	}
	for _, u := range urls {
		key := u.String()
		if f.pushed[key] {
			continue
		}
		res, ok := f.Lookup(u)
		if !ok {
			skip(key, "unknown-url")
			continue
		}
		if f.Policy.CacheAware && f.ClientCache != nil && f.ClientCache.Fresh(key, now) {
			skip(key, "client-cached")
			continue // client already holds it; pushing would waste bandwidth
		}
		if f.Faults.Failing(u.Origin(), f.sinceStart()) {
			skip(key, "origin-unhealthy")
			continue // origin marked unhealthy: pushing burns client bandwidth
		}
		f.pushed[key] = true
		if f.Trace.Enabled() {
			f.Trace.Instant(obs.TrackServer, "push-decide:"+key,
				obs.Arg{Key: "with", Val: rt.URL.String()})
		}
		// The PUSH_PROMISE reaches the client half an RTT after the
		// server emits it.
		promiseAt := f.Net.RTT(u.Host) / 2
		f.Client.Eng.ScheduleAfter(promiseAt, "push-promise", func() {
			f.Client.PushPromise(u)
		})
		pushedRes := res
		pushURL := u
		rt.Push(u, res.Size, f.Cfg.ThinkTime, func() {
			f.Client.PushArrived(&browser.Fetched{URL: pushURL, Res: pushedRes, Size: pushedRes.Size, Pushed: true})
		}, func(reason string) {
			f.Client.PushFailed(pushURL, reason)
		})
	}
}
