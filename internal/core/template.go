package core

import (
	"strings"
	"time"

	"vroom/internal/hints"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
)

// This file implements the scalability extension the paper defers to
// future work (§7): "there are typically only a few types of pages on each
// site and the stable set of resources ... are likely to be common across
// pages of the same type." Instead of crawling every page of a site every
// hour, the server crawls a small sample per page type and serves hints
// for *unseen* pages of that type from the shared template set plus online
// analysis of the served HTML.

// PageType classifies a document URL into the site's page types by its
// leading path segment: "/" is the landing page, "/article/..." an
// article, and so on.
func PageType(u urlutil.URL) string {
	path := strings.TrimPrefix(u.Path, "/")
	if path == "" {
		return "landing"
	}
	if i := strings.IndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "leaf"
}

func templateKey(host, pageType string, device webpage.DeviceClass) string {
	return host + "|type:" + pageType + "|" + device.String()
}

// TrainTemplates performs offline dependency resolution on a sample of the
// site's pages (by index; 0 is the landing page) and derives, per page
// type, the template set: dependencies common to every sampled page of
// that type across every offline load. The cost is proportional to the
// sample, not to the site's page count.
func (r *Resolver) TrainTemplates(site *webpage.Site, now time.Time, device webpage.DeviceClass, samplePages []int) {
	if r.templates == nil {
		r.templates = make(map[string][]Dep)
	}
	profile := webpage.Profile{Device: device, UserID: 0}
	loads := r.cfg.OfflineLoads
	perType := make(map[string][][]Dep)
	for i := 0; i < loads; i++ {
		at := now.Add(-time.Duration(i+1) * r.cfg.Interval)
		nonce := uint64(at.UnixNano()) ^ uint64(device+1)<<32
		for _, idx := range samplePages {
			if idx < 0 || idx >= site.NumPages() {
				continue
			}
			sn := site.PageSnapshot(idx, at, profile, nonce)
			root := sn.RootResource()
			typ := PageType(sn.Root)
			deps := dropPersonalized(sn, DocDeps(sn, root))
			perType[typ] = append(perType[typ], deps)
			// Also train the page itself as usual, so sampled pages get
			// full per-page hints.
			key := docKey(sn.Root, device)
			r.perPageLists(key, deps)
		}
	}
	for typ, lists := range perType {
		r.templates[templateKey(site.RootURL().Host, typ, device)] = intersect(lists)
	}
	r.flushPerPage(loads)
}

// perPageLists accumulates per-document lists during template training.
func (r *Resolver) perPageLists(key string, deps []Dep) {
	if r.pendingPages == nil {
		r.pendingPages = make(map[string][][]Dep)
	}
	r.pendingPages[key] = append(r.pendingPages[key], deps)
}

// flushPerPage converts accumulated lists into stable sets.
func (r *Resolver) flushPerPage(loads int) {
	for key, lists := range r.pendingPages {
		if len(lists) >= loads {
			r.stable[key] = intersect(lists)
		}
	}
	r.pendingPages = nil
}

// HintsForPage serves hints for any page of a template-trained site: a
// page with its own stable set uses it; an unseen page of a known type
// falls back to the type's template set. Online analysis of the served
// body applies either way, so page-specific fresh content is still
// covered.
func (r *Resolver) HintsForPage(site *webpage.Site, doc urlutil.URL, body string, device webpage.DeviceClass) []hints.Hint {
	if _, trained := r.stable[docKey(doc, device)]; trained || r.templates == nil {
		return r.HintsFor(doc, body, device)
	}
	tmpl, ok := r.templates[templateKey(site.RootURL().Host, PageType(doc), device)]
	if !ok {
		return r.HintsFor(doc, body, device)
	}
	// Merge online analysis of the served body with the template set.
	var deps []Dep
	seen := make(map[string]bool)
	if r.cfg.UseOnline && body != "" {
		tmp := &webpage.Resource{URL: doc, Type: webpage.HTML, Body: body}
		for i, d := range webpage.ExtractRefs(tmp) {
			k := d.URL.String()
			if !seen[k] {
				seen[k] = true
				deps = append(deps, Dep{URL: d.URL, Priority: d.Priority(), Order: i})
			}
		}
	}
	for _, d := range tmpl {
		if k := d.URL.String(); !seen[k] {
			seen[k] = true
			deps = append(deps, d)
		}
	}
	hs := make([]hints.Hint, 0, len(deps))
	for _, d := range deps {
		hs = append(hs, hints.Hint{URL: d.URL, Priority: d.Priority})
	}
	hints.Sort(hs)
	return hs
}
