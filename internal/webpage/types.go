// Package webpage models web pages for the Vroom reproduction: typed
// resources with real HTML/CSS/JS bodies, cross-domain dependency structure,
// content churn over time, per-load unpredictability (ads), device-class
// variants, and cookie personalization.
//
// A Site is a generative model of one website; materializing it at a point
// in time for a client profile yields a Snapshot — the exact set of
// resources (with rendered bodies) one page load would touch, playing the
// role of a Mahimahi recording.
package webpage

import (
	"fmt"
	"time"

	"vroom/internal/urlutil"
)

// ResourceType is the content type of a resource.
type ResourceType int

// Resource types.
const (
	HTML ResourceType = iota
	CSS
	JS
	Image
	Font
	Media
	JSON
	Other
)

func (t ResourceType) String() string {
	switch t {
	case HTML:
		return "html"
	case CSS:
		return "css"
	case JS:
		return "js"
	case Image:
		return "image"
	case Font:
		return "font"
	case Media:
		return "media"
	case JSON:
		return "json"
	case Other:
		return "other"
	}
	return "unknown"
}

// NeedsProcessing reports whether the type must be parsed or executed by the
// browser main thread (HTML, CSS, JS). These are Vroom's high-priority
// resources (§4.3).
func (t ResourceType) NeedsProcessing() bool {
	return t == HTML || t == CSS || t == JS
}

// PersistClass is the ground-truth churn class of a resource (Fig. 7).
type PersistClass int

// Persistence classes.
const (
	// Permanent resources never rotate (logos, frameworks, stylesheets).
	Permanent PersistClass = iota
	// Hourly resources rotate every content-refresh period (news stories).
	Hourly
	// Daily resources rotate once a day (featured sections).
	Daily
	// Weekly resources rotate weekly (seasonal banners).
	Weekly
	// Volatile resources differ on every load (ad creatives, beacons).
	Volatile
)

func (p PersistClass) String() string {
	switch p {
	case Permanent:
		return "permanent"
	case Hourly:
		return "hourly"
	case Daily:
		return "daily"
	case Weekly:
		return "weekly"
	case Volatile:
		return "volatile"
	}
	return "unknown"
}

// DeviceClass groups client devices that receive the same resource variants
// (§4.1.2: device equivalence classes).
type DeviceClass int

// Device classes. PhoneSmall and PhoneLarge mostly share variants (Nexus 6
// vs OnePlus 3 in Fig. 9); Tablet diverges (Nexus 10).
const (
	PhoneSmall DeviceClass = iota
	PhoneLarge
	Tablet
)

func (d DeviceClass) String() string {
	switch d {
	case PhoneSmall:
		return "phone-small"
	case PhoneLarge:
		return "phone-large"
	case Tablet:
		return "tablet"
	}
	return "unknown"
}

// Profile identifies a client for personalization and device-variant
// purposes. UserID seeds cookie-dependent content; UserID 0 is an anonymous
// (cookie-less) client such as a server-side crawler.
type Profile struct {
	Device DeviceClass
	UserID int64
}

// Category is the site category; News and Sports pages are more complex
// than the average Top-100 page (§2).
type Category int

// Site categories.
const (
	Top100 Category = iota
	News
	Sports
	// Shopping pages carry the §4.1.1 dynamism example: the set of
	// products (and products on sale) changes often and is partly
	// selected by scripts at load time.
	Shopping
)

func (c Category) String() string {
	switch c {
	case Top100:
		return "top100"
	case News:
		return "news"
	case Sports:
		return "sports"
	case Shopping:
		return "shopping"
	}
	return "unknown"
}

// Resource is one fetchable object in a snapshot.
type Resource struct {
	URL  urlutil.URL
	Type ResourceType
	// Size is the transfer size in bytes. For HTML/CSS/JS it equals
	// len(Body).
	Size int
	// Body is the rendered content for resources the browser parses or
	// executes. Binary resources have an empty body.
	Body string
	// Async marks scripts declared async/defer and lazily loaded objects;
	// Vroom classifies their hints as "x-semi-important" (Table 1).
	Async bool
	// ParserBlocking marks scripts injected via document.write by another
	// synchronous script; they block the injecting document's parser.
	ParserBlocking bool
	// Parent is the URL string of the resource whose processing references
	// this one ("" for the root document).
	Parent string
	// Children are URL strings referenced by this resource's body, in
	// document order (generator ground truth; browsers re-derive them by
	// parsing Body).
	Children []string
	// InIframe marks descendants of an embedded (typically third-party)
	// HTML document. Vroom treats them as low priority and never hints
	// them from the outer document's server (§4.2, footnote 4).
	InIframe bool
	// Cacheable/TTL model HTTP caching headers for warm-cache experiments.
	Cacheable bool
	TTL       time.Duration
	// Unpredictable is ground truth: the URL differs across back-to-back
	// loads (ad nonces, user-state-dependent fetches).
	Unpredictable bool
	// Persist is the ground-truth churn class.
	Persist PersistClass
	// ViewportWeight in [0,1] is the resource's contribution to
	// above-the-fold visual completeness (images and the root document
	// dominate).
	ViewportWeight float64
	// Personalized marks content that depends on the user's cookie for
	// the serving domain.
	Personalized bool
	// UsesUserState marks scripts that consult user-specific state
	// (Date.now/Math.random/cookies); their fetches are unpredictable.
	UsesUserState bool
}

// Snapshot is one consistent materialization of a site: the full set of
// resources a single page load touches, with rendered bodies.
type Snapshot struct {
	Site    *Site
	Time    time.Time
	Profile Profile
	Nonce   uint64
	Root    urlutil.URL

	resources map[string]*Resource
	order     []string
}

// Lookup returns the resource with the given URL.
func (sn *Snapshot) Lookup(u urlutil.URL) (*Resource, bool) {
	r, ok := sn.resources[u.String()]
	return r, ok
}

// LookupString returns the resource for a URL string.
func (sn *Snapshot) LookupString(u string) (*Resource, bool) {
	r, ok := sn.resources[u]
	return r, ok
}

// RootResource returns the root HTML document.
func (sn *Snapshot) RootResource() *Resource {
	return sn.resources[sn.Root.String()]
}

// Ordered returns all resources in deterministic generation order (root
// first, then breadth-first by declaration).
func (sn *Snapshot) Ordered() []*Resource {
	out := make([]*Resource, 0, len(sn.order))
	for _, k := range sn.order {
		out = append(out, sn.resources[k])
	}
	return out
}

// URLSet returns the set of resource URL strings.
func (sn *Snapshot) URLSet() map[string]bool {
	set := make(map[string]bool, len(sn.order))
	for _, k := range sn.order {
		set[k] = true
	}
	return set
}

func (sn *Snapshot) add(r *Resource) {
	key := r.URL.String()
	if _, dup := sn.resources[key]; dup {
		panic(fmt.Sprintf("webpage: duplicate resource %s", key))
	}
	sn.resources[key] = r
	sn.order = append(sn.order, key)
}
