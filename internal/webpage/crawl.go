package webpage

import (
	"vroom/internal/cssparse"
	"vroom/internal/hints"
	"vroom/internal/htmlparse"
	"vroom/internal/jsparse"
	"vroom/internal/urlutil"
)

// Discovered is one parser-derived reference from a resource body.
type Discovered struct {
	URL urlutil.URL
	// FromIframe marks references found inside an embedded HTML document
	// or its descendants.
	FromIframe bool
	// Async marks references the browser fetches lazily (async/defer
	// scripts).
	Async bool
	// Inline marks references found in inline <script>/<style> bodies:
	// invisible to the preload scanner, surfaced only during parsing.
	Inline bool
	// Blocking marks scripts injected via document.write, which are
	// parser-blocking in the injecting document just like markup-declared
	// synchronous scripts.
	Blocking bool
	// Order preserves processing order within the parent.
	Order int
	// Offset is the byte position of the reference in the parent body,
	// used to model incremental parsing; 0 when unknown.
	Offset int
}

// Priority classifies the reference into Vroom's priority classes (Table 1)
// from what is known before the response arrives — the URL's type and how
// the reference was declared: stylesheets and synchronous scripts are High,
// async scripts Semi, and everything else Low, embedded documents included
// (their subtrees follow them, footnote 4). The simulated browser, the
// resolver and the wire client all classify with it.
func (d Discovered) Priority() hints.Priority {
	switch TypeFromURL(d.URL) {
	case CSS:
		return hints.High
	case JS:
		if d.Async {
			return hints.Semi
		}
		return hints.High
	default:
		return hints.Low
	}
}

// TypeFromURL infers a resource type from the URL's path extension, the way
// a browser classifies a reference before the response arrives.
func TypeFromURL(u urlutil.URL) ResourceType {
	path := u.Path
	dot := -1
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			dot = i
			break
		}
		if path[i] == '/' {
			break
		}
	}
	if dot < 0 {
		return HTML // bare paths serve documents
	}
	switch path[dot+1:] {
	case "html", "htm", "php", "asp":
		return HTML
	case "css":
		return CSS
	case "js":
		return JS
	case "jpg", "jpeg", "png", "gif", "webp", "svg":
		return Image
	case "woff", "woff2", "ttf", "otf":
		return Font
	case "mp4", "webm", "mp3":
		return Media
	case "json":
		return JSON
	default:
		return Other
	}
}

// ExtractRefs parses the body of res and returns the references a browser
// would act on, in processing order. It is the shared discovery logic used
// by the simulated browser, the server-side online analyzer, and the
// offline crawler.
func ExtractRefs(res *Resource) []Discovered {
	switch res.Type {
	case HTML:
		refs := htmlparse.Extract(res.Body, htmlparse.ExtractOptions{
			Base:       res.URL,
			CSSScanner: cssparse.ExtractURLs,
			JSScanner:  jsparse.ExtractURLs,
		})
		out := make([]Discovered, 0, len(refs))
		for i, r := range refs {
			inline := r.Kind == htmlparse.RefInlineCSS || r.Kind == htmlparse.RefInlineJS
			out = append(out, Discovered{URL: r.URL, Async: r.Async, Inline: inline, Order: i, Offset: r.Offset})
		}
		return out
	case CSS:
		refs := cssparse.Extract(res.Body)
		out := make([]Discovered, 0, len(refs))
		for i, r := range refs {
			u, ok := urlutil.Resolve(res.URL, r.Raw)
			if !ok {
				continue
			}
			out = append(out, Discovered{URL: u, Order: i})
		}
		return out
	case JS:
		an := jsparse.Analyze(res.Body)
		out := make([]Discovered, 0, len(an.Refs))
		for i, r := range an.Refs {
			u, ok := urlutil.Resolve(res.URL, r.Raw)
			if !ok {
				continue
			}
			blocking := r.Idiom == jsparse.IdiomDocumentWrite && TypeFromURL(u) == JS
			// Dynamically inserted scripts (createElement/appendChild)
			// are async by specification; only document.write injection
			// blocks the parser.
			async := TypeFromURL(u) == JS && !blocking
			out = append(out, Discovered{URL: u, Order: i, Blocking: blocking, Async: async})
		}
		return out
	default:
		return nil
	}
}

// Crawl performs a full headless load of a snapshot: starting from the root
// document it parses every fetched body and follows references until
// closure. It returns every discovered resource keyed by URL string. This is
// what a Vroom-compliant server's offline dependency resolution does
// (§4.1.2) and also serves as ground truth for "all resources a client load
// will fetch".
func Crawl(sn *Snapshot) map[string]Discovered {
	found := make(map[string]Discovered)
	var walk func(res *Resource, inIframe bool)
	walk = func(res *Resource, inIframe bool) {
		for _, d := range ExtractRefs(res) {
			key := d.URL.String()
			child, ok := sn.LookupString(key)
			childIsIframe := inIframe || (ok && child.Type == HTML && res.Type == HTML)
			// References reached through a JS/CSS chain rooted in an
			// iframe stay iframe-scoped.
			d.FromIframe = childIsIframe || inIframe
			if prev, seen := found[key]; seen {
				// Keep the least-restrictive scope if reachable both ways.
				if prev.FromIframe && !d.FromIframe {
					found[key] = d
				}
				continue
			}
			found[key] = d
			if ok && child.Type.NeedsProcessing() {
				walk(child, d.FromIframe)
			}
		}
	}
	root := sn.RootResource()
	if root != nil {
		walk(root, false)
	}
	return found
}

// CrawlURLSet returns just the URL-string set from Crawl, including the root.
func CrawlURLSet(sn *Snapshot) map[string]bool {
	found := Crawl(sn)
	set := make(map[string]bool, len(found)+1)
	set[sn.Root.String()] = true
	for k := range found {
		set[k] = true
	}
	return set
}
