package webpage

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"vroom/internal/urlutil"
)

// Site is a generative model of one website. The skeleton (resource slots,
// sizes, dependency structure, churn classes) is fixed at construction; each
// call to Snapshot materializes the page as it would be served at a given
// time to a given client.
type Site struct {
	Name     string
	Category Category
	Seed     int64
	Params   Params

	root    *slot
	domains siteDomains
	nslots  int
	// articles are further pages of the site (individual stories) that
	// share the landing page's template — stylesheets, scripts, trackers —
	// but carry their own content. They back the §7 "similarity across
	// pages of the same type" extension.
	articles []*slot
}

type siteDomains struct {
	fp       string // www.<name>.com — serves the root HTML
	fpStatic string // static.<name>.com
	fpImg    string // img.<name>.com
	cdns     []string
	trackers []string
	ads      []string
	fonts    string
	social   string
}

// variantGroup describes how a device-variant resource maps device classes
// to URL variants.
type variantGroup int

// The zero variantGroup marks a resource with one URL for every device.
const (
	variantPhones variantGroup = iota + 1 // PhoneSmall+PhoneLarge share, Tablet differs
	variantAll                            // all three classes differ
)

type slot struct {
	id       int
	typ      ResourceType
	size     int
	persist  PersistClass
	host     string
	dir      string
	base     string
	ext      string
	async    bool
	blocking bool // document.write-injected sync script
	inIframe bool
	viewport float64
	variant  variantGroup
	// personalized marks content whose children depend on the user cookie
	// (embedded third-party HTML).
	personalized bool
	// userState marks scripts whose fetches depend on user-specific state.
	userState bool
	children  []*slot
}

// NewSite builds a site skeleton deterministically from (name, cat, seed).
func NewSite(name string, cat Category, seed int64) *Site {
	s := &Site{Name: name, Category: cat, Seed: seed, Params: DefaultParams(cat)}
	r := rand.New(rand.NewSource(seed))
	s.domains = pickDomains(name, r)
	s.root = s.buildSkeleton(r)
	s.buildArticles(r)
	return s
}

// buildArticles derives story pages from the landing page's template:
// shared head assets (stylesheets, scripts — the same slots, so the same
// URLs) plus per-article content.
func (s *Site) buildArticles(r *rand.Rand) {
	p := s.Params
	n := 3 + r.Intn(4)
	// Shared template: everything in the landing page except its content
	// images and data feeds.
	var template []*slot
	for _, c := range s.root.children {
		switch c.typ {
		case CSS, JS, HTML, Other:
			template = append(template, c)
		}
	}
	for i := 0; i < n; i++ {
		art := s.newSlot(HTML, p.RootHTMLSize.sampleSize(r)*2/3, Hourly,
			s.domains.fp, "/article", fmt.Sprintf("story%d", i), "html")
		art.viewport = 0.15
		art.children = append(art.children, template...)
		// Article-specific content: a hero, inline photos, a data feed.
		nImg := 4 + r.Intn(8)
		for j := 0; j < nImg; j++ {
			img := s.newSlot(Image, p.ImageSize.sampleSize(r), Hourly,
				s.domains.fpImg, "/img", fmt.Sprintf("art%d_%d", i, j), "jpg")
			if j == 0 {
				img.size *= 2
				img.viewport = 0.25
			}
			art.children = append(art.children, img)
		}
		feed := s.newSlot(JSON, p.JSONSize.sampleSize(r), Hourly,
			s.domains.fp, "/api", fmt.Sprintf("artfeed%d", i), "json")
		art.children = append(art.children, feed)
		s.articles = append(s.articles, art)
	}
}

// NumPages returns the number of pages the site serves: the landing page
// plus its articles.
func (s *Site) NumPages() int { return 1 + len(s.articles) }

// PageURL returns the URL of page idx (0 = landing page). Article URLs are
// stable; their content churns hourly.
func (s *Site) PageURL(idx int) urlutil.URL {
	if idx <= 0 {
		return s.RootURL()
	}
	sl := s.articles[idx-1]
	return urlutil.URL{Scheme: "https", Host: sl.host,
		Path: fmt.Sprintf("%s/%s.html", sl.dir, sl.base)}
}

// PageSnapshot materializes one page of the site (0 = landing page, which
// is what Snapshot returns). Shared template resources get identical URLs
// across pages of the site.
func (s *Site) PageSnapshot(idx int, at time.Time, p Profile, nonce uint64) *Snapshot {
	if idx <= 0 {
		return s.Snapshot(at, p, nonce)
	}
	root := s.articles[idx-1]
	sn := &Snapshot{
		Site:      s,
		Time:      at,
		Profile:   p,
		Nonce:     nonce,
		Root:      s.PageURL(idx),
		resources: make(map[string]*Resource),
	}
	s.materializePage(sn, root, at, p, nonce)
	s.render(sn)
	return sn
}

// materializePage is materialize with a fixed root URL for article pages.
func (s *Site) materializePage(sn *Snapshot, rootSlot *slot, at time.Time, p Profile, nonce uint64) {
	res := &Resource{
		URL:            sn.Root,
		Type:           HTML,
		Size:           rootSlot.size,
		Persist:        rootSlot.persist,
		ViewportWeight: rootSlot.viewport,
	}
	sn.add(res)
	for _, c := range rootSlot.children {
		cr := s.materialize(sn, c, sn.Root.String(), at, p, nonce, false)
		res.Children = append(res.Children, cr.URL.String())
	}
}

// FirstPartyDomain returns the registrable domain of the site's root.
func (s *Site) FirstPartyDomain() string { return urlutil.RegistrableDomain(s.domains.fp) }

// RootURL returns the landing-page URL.
func (s *Site) RootURL() urlutil.URL {
	return urlutil.URL{Scheme: "https", Host: s.domains.fp, Path: "/"}
}

var cdnPool = []string{"cdn1.fastedge.net", "cdn2.fastedge.net", "assets.cloudrail.com", "static.swiftcdn.io"}
var trackerPool = []string{"t1.trackly.net", "metrics.statcore.com", "px.beaconly.io", "tags.tagchain.com", "a.audiencely.net"}
var adPool = []string{"serve.adnetic.com", "ads.displayxchg.com", "creative.bannerly.net"}

func pickDomains(name string, r *rand.Rand) siteDomains {
	d := siteDomains{
		fp:       "www." + name + ".com",
		fpStatic: "static." + name + ".com",
		fpImg:    "img." + name + ".com",
		fonts:    "fonts.webtypeface.com",
		social:   "widgets.sharely.com",
	}
	d.cdns = pickN(r, cdnPool, 1+r.Intn(2))
	d.trackers = pickN(r, trackerPool, 2+r.Intn(3))
	d.ads = pickN(r, adPool, 1+r.Intn(2))
	return d
}

func pickN(r *rand.Rand, pool []string, n int) []string {
	idx := r.Perm(len(pool))
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = pool[idx[i]]
	}
	return out
}

func (s *Site) newSlot(typ ResourceType, size int, persist PersistClass, host, dir, base, ext string) *slot {
	s.nslots++
	return &slot{id: s.nslots, typ: typ, size: size, persist: persist, host: host, dir: dir, base: base, ext: ext}
}

// contentPersist samples a churn class for content resources.
func (s *Site) contentPersist(r *rand.Rand) PersistClass {
	p := s.Params
	v := r.Float64()
	switch {
	case v < p.FracHourly:
		return Hourly
	case v < p.FracHourly+p.FracDaily:
		return Daily
	case v < p.FracHourly+p.FracDaily+p.FracWeekly:
		return Weekly
	default:
		return Permanent
	}
}

func (s *Site) buildSkeleton(r *rand.Rand) *slot {
	p := s.Params
	d := s.domains
	root := s.newSlot(HTML, p.RootHTMLSize.sampleSize(r), Hourly, d.fp, "", "index", "html")
	root.viewport = 0.15

	// Stylesheets: mostly first-party static, some CDN; stable.
	nCSS := p.NumCSS.sampleInt(r)
	for i := 0; i < nCSS; i++ {
		host := d.fpStatic
		if r.Float64() < 0.3 {
			host = d.cdns[r.Intn(len(d.cdns))]
		}
		persist := Permanent
		if r.Float64() < 0.15 {
			persist = Hourly // page-specific bundle
		}
		css := s.newSlot(CSS, p.CSSSize.sampleSize(r), persist, host, "/css", fmt.Sprintf("style%d", i), "css")
		css.viewport = 0.04
		// url() images.
		for j, n := 0, p.CSSImages.sampleInt(r); j < n; j++ {
			img := s.newSlot(Image, p.ImageSize.sampleSize(r), s.contentPersist(r), d.fpImg, "/img", fmt.Sprintf("bg%d_%d", i, j), "png")
			img.viewport = 0.005
			if r.Float64() < p.FracDeviceVariant {
				img.variant = variantKind(r)
			}
			css.children = append(css.children, img)
		}
		// Occasional @import chain.
		if r.Float64() < 0.2 {
			sub := s.newSlot(CSS, p.CSSSize.sampleSize(r)/2, Permanent, host, "/css", fmt.Sprintf("import%d", i), "css")
			css.children = append(css.children, sub)
		}
		root.children = append(root.children, css)
	}

	// Fonts, referenced from the first stylesheet (typical @font-face).
	if nCSS > 0 {
		for i, n := 0, p.NumFonts.sampleInt(r); i < n; i++ {
			font := s.newSlot(Font, p.FontSize.sampleSize(r), Permanent, d.fonts, "/font", fmt.Sprintf("face%d", i), "woff2")
			root.children[0].children = append(root.children[0].children, font)
		}
	}

	// Synchronous scripts in the head: frameworks and app code.
	nSync := p.NumSyncJS.sampleInt(r)
	for i := 0; i < nSync; i++ {
		host := d.fpStatic
		switch {
		case i == 0: // framework from a CDN
			host = d.cdns[0]
		case r.Float64() < 0.25:
			host = d.cdns[r.Intn(len(d.cdns))]
		}
		persist := Permanent
		if r.Float64() < 0.2 {
			persist = s.contentPersist(r)
		}
		js := s.newSlot(JS, p.JSSize.sampleSize(r), persist, host, "/js", fmt.Sprintf("app%d", i), "js")
		// Application code may consult user state (recommendations,
		// AB-test buckets); its fetches then vary per load.
		if r.Float64() < p.FracUserStateJS {
			js.userState = true
		}
		s.addJSChildren(r, js, false)
		// Some synchronous scripts document.write further synchronous
		// scripts (legacy tag patterns): parser-blocking chains.
		if r.Float64() < p.FracBlockingChains {
			chain := s.newSlot(JS, p.JSSize.sampleSize(r)/2, Permanent, host, "/js", fmt.Sprintf("plugin%d", i), "js")
			chain.blocking = true
			js.children = append(js.children, chain)
			if r.Float64() < 0.3 {
				deeper := s.newSlot(JS, p.JSSize.sampleSize(r)/2, Permanent, host, "/js", fmt.Sprintf("plugin%d_b", i), "js")
				deeper.blocking = true
				chain.children = append(chain.children, deeper)
			}
		}
		root.children = append(root.children, js)
	}

	// Body images; the first is the hero. Images share origins with
	// scripts and stylesheets, as on real sites — which is what makes
	// HTTP/1.1 head-of-line blocking bite.
	nImg := p.NumImages.sampleInt(r)
	for i := 0; i < nImg; i++ {
		host := d.fpImg
		switch v := r.Float64(); {
		case v < 0.3:
			host = d.cdns[r.Intn(len(d.cdns))]
		case v < 0.55:
			host = d.fpStatic
		}
		img := s.newSlot(Image, p.ImageSize.sampleSize(r), s.contentPersist(r), host, "/img", fmt.Sprintf("photo%d", i), "jpg")
		switch {
		case i == 0:
			img.size = int(float64(img.size) * 2.5) // hero
			img.viewport = 0.25
			img.persist = Hourly
		case i < 8:
			img.viewport = 0.03
		}
		if r.Float64() < p.FracDeviceVariant {
			img.variant = variantKind(r)
		}
		root.children = append(root.children, img)
	}

	// Favicon.
	icon := s.newSlot(Other, 2e3, Permanent, d.fp, "", "favicon", "ico")
	root.children = append(root.children, icon)

	// Ad iframes: stable src URL, personalized volatile content.
	for i, n := 0, p.NumIframes.sampleInt(r); i < n; i++ {
		adHost := d.ads[r.Intn(len(d.ads))]
		frame := s.newSlot(HTML, p.IframeHTMLSize.sampleSize(r), Permanent, adHost, "/serve", fmt.Sprintf("slot%d", i), "html")
		frame.personalized = true
		if i == 0 {
			frame.viewport = 0.05
		}
		adJS := s.newSlot(JS, p.JSSize.sampleSize(r)/2, Permanent, adHost, "/js", fmt.Sprintf("adlib%d", i), "js")
		adJS.inIframe = true
		for j, m := 0, p.AdImages.sampleInt(r); j < m; j++ {
			creative := s.newSlot(Image, p.ImageSize.sampleSize(r), Volatile, adHost, "/creative", fmt.Sprintf("c%d_%d", i, j), "jpg")
			creative.inIframe = true
			adJS.children = append(adJS.children, creative)
		}
		frame.children = append(frame.children, adJS)
		root.children = append(root.children, frame)
	}

	// Async scripts at the end of the body: analytics, tag managers,
	// social widgets.
	nAsync := p.NumAsyncJS.sampleInt(r)
	for i := 0; i < nAsync; i++ {
		host := d.trackers[r.Intn(len(d.trackers))]
		if i == 0 && r.Float64() < 0.5 {
			host = d.social
		}
		js := s.newSlot(JS, p.JSSize.sampleSize(r)/2, Permanent, host, "/js", fmt.Sprintf("tag%d", i), "js")
		js.async = true
		if r.Float64() < p.FracUserStateJS {
			js.userState = true
		}
		if r.Float64() < p.FracVolatileBeacons {
			px := s.newSlot(Image, 700, Volatile, host, "/px", fmt.Sprintf("b%d", i), "gif")
			js.children = append(js.children, px)
		}
		// Tag-manager chains load further scripts.
		for j, m := 0, p.TrackerChain.sampleInt(r); j < m; j++ {
			sub := s.newSlot(JS, p.JSSize.sampleSize(r)/2, Permanent, host, "/js", fmt.Sprintf("tag%d_%d", i, j), "js")
			sub.async = true
			if r.Float64() < p.FracVolatileBeacons {
				px := s.newSlot(Image, 700, Volatile, host, "/px", fmt.Sprintf("b%d_%d", i, j), "gif")
				sub.children = append(sub.children, px)
			}
			js.children = append(js.children, sub)
		}
		root.children = append(root.children, js)
	}

	// XHR/JSON data fetched by app scripts.
	if nSync > 0 {
		for i, n := 0, p.NumXHR.sampleInt(r); i < n; i++ {
			persist := Hourly
			if r.Float64() < p.FracVolatileXHR {
				persist = Volatile // live tickers, products on sale
			}
			xhr := s.newSlot(JSON, p.JSONSize.sampleSize(r), persist, d.fp, "/api", fmt.Sprintf("feed%d", i), "json")
			// Attach round-robin to sync scripts after the framework.
			parent := root.children[nCSS+(i%nSync)]
			parent.children = append(parent.children, xhr)
		}
	}
	return root
}

// addJSChildren gives a script its fetched resources.
func (s *Site) addJSChildren(r *rand.Rand, js *slot, inIframe bool) {
	p := s.Params
	d := s.domains
	for j, n := 0, p.JSChildren.sampleInt(r); j < n; j++ {
		v := r.Float64()
		var child *slot
		switch {
		case v < 0.55:
			child = s.newSlot(Image, p.ImageSize.sampleSize(r), s.contentPersist(r), d.fpImg, "/img", fmt.Sprintf("lazy%d_%d", js.id, j), "jpg")
		case v < 0.8:
			child = s.newSlot(JSON, p.JSONSize.sampleSize(r), Hourly, d.fp, "/api", fmt.Sprintf("data%d_%d", js.id, j), "json")
		default:
			child = s.newSlot(JS, p.JSSize.sampleSize(r)/2, Permanent, js.host, "/js", fmt.Sprintf("mod%d_%d", js.id, j), "js")
		}
		child.inIframe = inIframe
		if js.userState {
			child.persist = Volatile
		}
		js.children = append(js.children, child)
	}
}

func variantKind(r *rand.Rand) variantGroup {
	if r.Float64() < 0.8 {
		return variantPhones
	}
	return variantAll
}

// Snapshot materializes the site at time at for client profile p. nonce
// distinguishes back-to-back loads: volatile resources get fresh URLs for
// every nonce.
func (s *Site) Snapshot(at time.Time, p Profile, nonce uint64) *Snapshot {
	sn := &Snapshot{
		Site:      s,
		Time:      at,
		Profile:   p,
		Nonce:     nonce,
		Root:      s.RootURL(),
		resources: make(map[string]*Resource),
	}
	s.materialize(sn, s.root, "", at, p, nonce, false)
	s.render(sn)
	return sn
}

// materialize walks the slot tree creating Resources with final URLs.
func (s *Site) materialize(sn *Snapshot, sl *slot, parent string, at time.Time, p Profile, nonce uint64, parentPersonalized bool) *Resource {
	u := s.slotURL(sl, at, p, nonce, parentPersonalized)
	key := u.String()
	if r, ok := sn.resources[key]; ok {
		return r // merged duplicate (two parents producing one URL)
	}
	thirdPartyScript := sl.typ == JS && s.isTrackerHost(sl.host)
	cacheable, ttl := cachePolicy(sl.persist, sl.typ, s.cacheDraw(sl.id), thirdPartyScript)
	res := &Resource{
		URL:            u,
		Type:           sl.typ,
		Size:           sl.size,
		Async:          sl.async,
		Parent:         parent,
		InIframe:       sl.inIframe,
		Cacheable:      cacheable,
		TTL:            ttl,
		Unpredictable:  sl.persist == Volatile,
		Persist:        sl.persist,
		ViewportWeight: sl.viewport,
		Personalized:   sl.personalized || parentPersonalized,
		UsesUserState:  sl.userState,
		ParserBlocking: sl.blocking,
	}
	sn.add(res)
	childPersonalized := parentPersonalized || sl.personalized
	for _, c := range sl.children {
		cr := s.materialize(sn, c, key, at, p, nonce, childPersonalized)
		res.Children = append(res.Children, cr.URL.String())
	}
	return res
}

// isTrackerHost reports whether host is an analytics, ad, or social
// domain, whose scripts are served with short cache lifetimes.
func (s *Site) isTrackerHost(host string) bool {
	if host == s.domains.social {
		return true
	}
	for _, h := range s.domains.trackers {
		if host == h {
			return true
		}
	}
	for _, h := range s.domains.ads {
		if host == h {
			return true
		}
	}
	return false
}

// cacheDraw derives a stable pseudo-random value in [0,1) for a slot's
// cache-header assignment.
func (s *Site) cacheDraw(id int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cache|%d|%d", s.Seed, id)
	return float64(h.Sum64()%10000) / 10000
}

// slotURL computes the concrete URL for a slot in a given materialization.
func (s *Site) slotURL(sl *slot, at time.Time, p Profile, nonce uint64, parentPersonalized bool) urlutil.URL {
	if sl == s.root {
		return s.RootURL()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d", s.Seed, sl.id)
	switch sl.persist {
	case Hourly:
		fmt.Fprintf(h, "|h%d", at.Unix()/3600)
	case Daily:
		fmt.Fprintf(h, "|d%d", at.Unix()/86400)
	case Weekly:
		fmt.Fprintf(h, "|w%d", at.Unix()/604800)
	case Volatile:
		fmt.Fprintf(h, "|v%d", nonce)
	}
	if parentPersonalized {
		// Children of personalized HTML embed the user identity: different
		// users see different campaign resources.
		fmt.Fprintf(h, "|u%d", p.UserID)
	}
	token := fmt.Sprintf("%010x", h.Sum64()&0xffffffffff)
	suffix := ""
	switch sl.variant {
	case variantPhones:
		if p.Device == Tablet {
			suffix = "_tab"
		} else {
			suffix = "_ph"
		}
	case variantAll:
		switch p.Device {
		case PhoneSmall:
			suffix = "_sm"
		case PhoneLarge:
			suffix = "_lg"
		case Tablet:
			suffix = "_tab"
		}
	}
	path := fmt.Sprintf("%s/%s-%s%s.%s", sl.dir, sl.base, token, suffix, sl.ext)
	return urlutil.URL{Scheme: "https", Host: sl.host, Path: path}
}
