// Package core implements the paper's primary contribution: server-side
// dependency resolution (offline + online, §4.1), personalization handling
// (§4.2), dependency-hint generation (Table 1), push-set selection, and the
// client-side staged request scheduler (§4.3, §5.2).
package core

import (
	"fmt"
	"time"

	"vroom/internal/hints"
	"vroom/internal/obs"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// Dep is one dependency a server knows about for a document it serves.
type Dep struct {
	URL      urlutil.URL
	Priority hints.Priority
	// Order is the position in client processing order (§5.1: hints list
	// resources in the order the client will need them).
	Order int
}

// ResolverConfig selects the dependency-resolution strategy.
type ResolverConfig struct {
	// OfflineLoads is how many past periodic loads feed the stable set
	// (the paper uses loads from the past 3 hours).
	OfflineLoads int
	// Interval is the spacing of offline loads (1 hour in the paper).
	Interval time.Duration
	// UseOffline/UseOnline toggle the two halves of §4.1.2; disabling one
	// yields the corresponding strawman.
	UseOffline bool
	UseOnline  bool
	// SingleLoad returns every URL from one prior load instead of the
	// intersection of several (the "Deps from Previous Load" baseline of
	// Fig. 17).
	SingleLoad bool
	// IncludeIframeDescendants disables §4.2's personalization rule and
	// hints resources derived from embedded third-party HTML too — an
	// ablation showing why Vroom excludes them (the server's crawler sees
	// differently personalized iframe content than the client will).
	IncludeIframeDescendants bool
}

// DefaultResolverConfig is the full Vroom configuration.
func DefaultResolverConfig() ResolverConfig {
	return ResolverConfig{OfflineLoads: 3, Interval: time.Hour, UseOffline: true, UseOnline: true}
}

// Resolver is the server-side dependency resolver for one site's serving
// infrastructure. Stable sets are tracked per (document URL, device class)
// — the device equivalence classes of §4.1.2.
type Resolver struct {
	cfg ResolverConfig
	// stable maps docKey -> deps present in every recent offline load.
	stable map[string][]Dep
	// templates maps templateKey -> deps shared across sampled pages of a
	// page type (the §7 scalability extension; see template.go).
	templates    map[string][]Dep
	pendingPages map[string][][]Dep
	// Trace, when set, records each hint resolution (online/offline dep
	// counts) on the server track. Nil disables.
	Trace *obs.Tracer
}

// NewResolver returns a resolver with the given strategy.
func NewResolver(cfg ResolverConfig) *Resolver {
	if cfg.OfflineLoads <= 0 {
		cfg.OfflineLoads = 3
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Hour
	}
	return &Resolver{cfg: cfg, stable: make(map[string][]Dep)}
}

// Clone returns a resolver that shares this resolver's trained state (the
// stable sets and template tables) but carries its own Trace, so one
// training pass can back many concurrent loads: the maps are only read
// after training, and per-load mutable state lives on the clone. The clone
// must not be retrained — Train/TrainTemplates would write into the shared
// maps.
func (r *Resolver) Clone() *Resolver {
	c := *r
	c.Trace = nil
	return &c
}

func docKey(doc urlutil.URL, device webpage.DeviceClass) string {
	return doc.String() + "|" + device.String()
}

// Train performs the periodic offline dependency resolution: it loads the
// site cfg.OfflineLoads times at cfg.Interval spacing ending just before
// now, crawls each load, and records for every HTML document the
// dependencies seen in all loads (or in the single most recent load when
// SingleLoad is set). The crawler is anonymous (no user cookies) and uses a
// device emulator for the given equivalence class (§4.1.2).
func (r *Resolver) Train(site *webpage.Site, now time.Time, device webpage.DeviceClass) {
	if !r.cfg.UseOffline && !r.cfg.SingleLoad {
		return
	}
	profile := webpage.Profile{Device: device, UserID: 0}
	loads := r.cfg.OfflineLoads
	if r.cfg.SingleLoad {
		loads = 1
	}
	// perDoc[docKey] accumulates, per load, the dep list.
	type docLoads struct {
		lists [][]Dep
	}
	perDoc := make(map[string]*docLoads)
	for i := 0; i < loads; i++ {
		at := now.Add(-time.Duration(i+1) * r.cfg.Interval)
		nonce := uint64(at.UnixNano()) ^ uint64(device+1)<<32
		sn := site.Snapshot(at, profile, nonce)
		for _, res := range sn.Ordered() {
			if res.Type != webpage.HTML {
				continue
			}
			key := docKey(res.URL, device)
			dl, ok := perDoc[key]
			if !ok {
				dl = &docLoads{}
				perDoc[key] = dl
			}
			deps := docDeps(sn, res, r.cfg.IncludeIframeDescendants)
			if !r.cfg.IncludeIframeDescendants {
				// A domain knows which of its content it personalizes;
				// deps derived from personalized content in the crawler's
				// own view would be wrong for real users, so the offline
				// stable set excludes them (§4.2). Online analysis of the
				// actually-served body covers them correctly.
				deps = dropPersonalized(sn, deps)
			}
			dl.lists = append(dl.lists, deps)
		}
	}
	for key, dl := range perDoc {
		if r.cfg.SingleLoad {
			if len(dl.lists) > 0 {
				r.stable[key] = dl.lists[0]
			}
			continue
		}
		// A document absent from some loads (e.g. a rotated iframe) keeps
		// what is common to the loads that had it.
		r.stable[key] = intersect(dl.lists)
	}
}

// intersect keeps deps (by URL) present in every list, preserving the order
// of the most recent list (index 0).
func intersect(lists [][]Dep) []Dep {
	if len(lists) == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, list := range lists {
		seen := make(map[string]bool, len(list))
		for _, d := range list {
			k := d.URL.String()
			if !seen[k] {
				seen[k] = true
				counts[k]++
			}
		}
	}
	var out []Dep
	for _, d := range lists[0] {
		if counts[d.URL.String()] == len(lists) {
			out = append(out, d)
		}
	}
	return out
}

// DocDeps computes the dependencies a server could learn for one HTML
// document from a full load: the document's subtree in client processing
// order, recursing through CSS/JS but never into embedded HTML documents —
// their content may be personalized by another domain, so Vroom leaves them
// to the domain that serves them (§4.2, Fig. 10). The iframe URL itself is
// included (it is visible in this document's markup).
func DocDeps(sn *webpage.Snapshot, doc *webpage.Resource) []Dep { return docDeps(sn, doc, false) }

// docDeps walks doc's subtree breadth-first: the document's own refs first
// (parse order), then each processed child's refs — approximating client
// processing order. With iframes it descends into embedded HTML documents
// too, the IncludeIframeDescendants ablation.
func docDeps(sn *webpage.Snapshot, doc *webpage.Resource, iframes bool) []Dep {
	var out []Dep
	seen := map[string]bool{doc.URL.String(): true}
	frontier := []*webpage.Resource{doc}
	for len(frontier) > 0 {
		var next []*webpage.Resource
		for _, parent := range frontier {
			for _, d := range webpage.ExtractRefs(parent) {
				k := d.URL.String()
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, Dep{URL: d.URL, Priority: d.Priority(), Order: len(out)})
				if child, ok := sn.LookupString(k); ok && child.Type.NeedsProcessing() &&
					(iframes || child.Type != webpage.HTML) {
					next = append(next, child)
				}
			}
		}
		frontier = next
	}
	return out
}

// dropPersonalized filters deps whose content the serving site knows to be
// user-specific in this crawl.
func dropPersonalized(sn *webpage.Snapshot, deps []Dep) []Dep {
	out := deps[:0]
	for _, d := range deps {
		if res, ok := sn.LookupString(d.URL.String()); ok && res.Personalized {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Stable returns the offline stable set for a document and device class,
// as established by the last Train call.
func (r *Resolver) Stable(doc urlutil.URL, device webpage.DeviceClass) []Dep {
	return r.stable[docKey(doc, device)]
}

// HintsFor produces the dependency hints a Vroom-compliant server returns
// when serving the given HTML document body: the union of the on-the-fly
// parse of the served bytes (online analysis — catches fresh content) and
// the offline stable set (catches deep dependencies), ordered high to low
// priority and in processing order within each class.
func (r *Resolver) HintsFor(doc urlutil.URL, body string, device webpage.DeviceClass) []hints.Hint {
	var deps []Dep
	seen := make(map[string]bool)
	if r.cfg.UseOnline && body != "" {
		tmp := &webpage.Resource{URL: doc, Type: webpage.HTML, Body: body}
		for i, d := range webpage.ExtractRefs(tmp) {
			k := d.URL.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			deps = append(deps, Dep{URL: d.URL, Priority: d.Priority(), Order: i})
		}
	}
	online := len(deps)
	if r.cfg.UseOffline || r.cfg.SingleLoad {
		for _, d := range r.stable[docKey(doc, device)] {
			k := d.URL.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			deps = append(deps, d)
		}
	}
	if r.Trace.Enabled() {
		r.Trace.Instant(obs.TrackServer, "resolve:"+doc.String(),
			obs.Arg{Key: "online", Val: fmt.Sprint(online)},
			obs.Arg{Key: "offline", Val: fmt.Sprint(len(deps) - online)})
	}
	hs := make([]hints.Hint, 0, len(deps))
	for _, d := range deps {
		hs = append(hs, hints.Hint{URL: d.URL, Priority: d.Priority})
	}
	hints.Sort(hs)
	return hs
}

// PushSet selects what the server pushes alongside an HTML response: by
// default the high-priority dependencies it serves itself (same origin —
// a server can only securely push content it owns, §3.1). With allLocal,
// every same-origin dependency is pushed (the strawmen of Figs. 18-19).
func PushSet(hs []hints.Hint, origin urlutil.URL, allLocal bool) []urlutil.URL {
	var out []urlutil.URL
	for _, h := range hs {
		if !urlutil.SameOrigin(h.URL, origin) {
			continue
		}
		if !allLocal && h.Priority != hints.High {
			continue
		}
		out = append(out, h.URL)
	}
	return out
}
