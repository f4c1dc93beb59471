// Package hints defines Vroom's dependency-hint vocabulary (Table 1 of the
// paper): the three priority classes and the HTTP headers that carry them,
// shared by the simulation and by the real-wire HTTP/2 server and client.
package hints

import (
	"sort"
	"strings"

	"vroom/internal/urlutil"
)

// Priority is the fetch-priority class of a hinted dependency.
type Priority int

// Priorities, in decreasing order of importance (Table 1).
const (
	// High covers resources that must be parsed or executed (HTML, CSS,
	// synchronous JS). Carried in "Link: <url>; rel=preload".
	High Priority = iota
	// Semi covers resources that are processed but lazily fetched (async
	// or deferred scripts, lazily applied CSS). Carried in
	// "x-semi-important".
	Semi
	// Low covers resources that need no processing (images, fonts, media,
	// data). Carried in "x-unimportant".
	Low
)

func (p Priority) String() string {
	switch p {
	case High:
		return "high"
	case Semi:
		return "semi"
	case Low:
		return "low"
	}
	return "unknown"
}

// Header names used on the wire. Servers must also expose the custom
// headers via Access-Control-Expose-Headers for cross-origin reads (§5.2).
const (
	HeaderLink   = "link"
	HeaderSemi   = "x-semi-important"
	HeaderLow    = "x-unimportant"
	HeaderExpose = "access-control-expose-headers"
)

// ExposeValue is the Access-Control-Expose-Headers value Vroom responses
// carry.
const ExposeValue = "Link, x-semi-important, x-unimportant"

// Hint is one dependency hint: a URL the client should fetch, with its
// priority. Hints within a priority class are ordered by the order the
// client will process the resources (§5.1).
type Hint struct {
	URL      urlutil.URL
	Priority Priority
}

// Sort orders hints by (priority, original order), stably.
func Sort(hs []Hint) {
	sort.SliceStable(hs, func(i, j int) bool { return hs[i].Priority < hs[j].Priority })
}

// hintHeaders are the header names that carry hints, indexed by headerOf.
var hintHeaders = [...]string{HeaderLink, HeaderSemi, HeaderLow}

// headerOf maps a priority to its index in hintHeaders; anything that is
// neither High nor Semi rides in the low-priority header.
func headerOf(p Priority) int {
	if p == High || p == Semi {
		return int(p)
	}
	return int(Low)
}

// Format renders hints as HTTP header fields, one entry per hinted URL,
// preserving order within each header. Each value is built in one
// allocation and each header's slice is sized up front: a News document
// carries ~130 hints.
func Format(hs []Hint) map[string][]string {
	var n [len(hintHeaders)]int
	for _, h := range hs {
		n[headerOf(h.Priority)]++
	}
	var vals [len(hintHeaders)][]string
	for i := range vals {
		vals[i] = make([]string, 0, n[i])
	}
	for _, h := range hs {
		i := headerOf(h.Priority)
		if i == int(High) {
			vals[i] = append(vals[i], wrapURL("<", h.URL, ">; rel=preload"))
		} else {
			vals[i] = append(vals[i], wrapURL("", h.URL, ""))
		}
	}
	out := make(map[string][]string, len(hintHeaders)+1)
	for i, name := range hintHeaders {
		if n[i] > 0 {
			out[name] = vals[i]
		}
	}
	if len(out) > 0 {
		out[HeaderExpose] = []string{ExposeValue}
	}
	return out
}

// wrapURL returns prefix + u.String() + suffix in a single allocation.
func wrapURL(prefix string, u urlutil.URL, suffix string) string {
	if u.Query == "" {
		return prefix + u.Scheme + "://" + u.Host + u.Path + suffix
	}
	return prefix + u.Scheme + "://" + u.Host + u.Path + "?" + u.Query + suffix
}

// Limits applied while parsing untrusted headers. Hints are advisory, so a
// hostile or corrupted response must not be able to balloon the client's
// bookkeeping: entries past MaxHints and URLs longer than MaxURLLen are
// dropped rather than rejected wholesale.
const (
	// MaxHints bounds the total number of hints Parse returns. Real pages
	// top out in the low hundreds of resources; anything past this is junk.
	MaxHints = 512
	// MaxURLLen bounds a single hinted URL, matching common server-side
	// request-line limits.
	MaxURLLen = 4096
)

// Parse reconstructs hints from HTTP headers produced by Format. Parsing is
// defensive — hint headers cross the network and may be truncated, duplicated
// or hostile. Unparsable and oversized entries are skipped, duplicate URLs
// keep only their first (highest-priority) occurrence, and the result is
// capped at MaxHints. Order within each priority class is preserved.
func Parse(headers map[string][]string) []Hint {
	n := len(headers[HeaderLink]) + len(headers[HeaderSemi]) + len(headers[HeaderLow])
	if n > MaxHints {
		n = MaxHints
	}
	hs := make([]Hint, 0, n)
	seen := make(map[urlutil.URL]bool, n)
	add := func(u urlutil.URL, p Priority) {
		if len(hs) >= MaxHints || seen[u] {
			return
		}
		seen[u] = true
		hs = append(hs, Hint{URL: u, Priority: p})
	}
	for _, v := range headers[HeaderLink] {
		if u, ok := parseLinkPreload(v); ok {
			add(u, High)
		}
	}
	for _, v := range headers[HeaderSemi] {
		if u, ok := parsePlainURL(v); ok {
			add(u, Semi)
		}
	}
	for _, v := range headers[HeaderLow] {
		if u, ok := parsePlainURL(v); ok {
			add(u, Low)
		}
	}
	if len(hs) == 0 {
		return nil // as before presizing: no hints parse to a nil slice
	}
	return hs
}

// parsePlainURL parses a bare-URL header value with the size cap applied.
func parsePlainURL(v string) (urlutil.URL, bool) {
	v = strings.TrimSpace(v)
	if v == "" || len(v) > MaxURLLen {
		return urlutil.URL{}, false
	}
	u, err := urlutil.Parse(v)
	if err != nil {
		return urlutil.URL{}, false
	}
	return u, true
}

// parseLinkPreload parses a single `<url>; rel=preload` Link value. The rel
// parameter is matched as a whole token — `rel=preloader` or a `rel=` list
// that merely contains the substring does not qualify.
func parseLinkPreload(v string) (urlutil.URL, bool) {
	v = strings.TrimSpace(v)
	if !strings.HasPrefix(v, "<") {
		return urlutil.URL{}, false
	}
	end := strings.IndexByte(v, '>')
	if end < 0 || end-1 > MaxURLLen {
		return urlutil.URL{}, false
	}
	if !relIsPreload(v[end+1:]) {
		return urlutil.URL{}, false
	}
	u, err := urlutil.Parse(v[1:end])
	if err != nil {
		return urlutil.URL{}, false
	}
	return u, true
}

// relIsPreload reports whether the parameter list after the <url> part
// carries rel=preload. RFC 8288 rel values are space-separated lists and may
// be quoted; empty rel values never match.
func relIsPreload(params string) bool {
	for _, param := range strings.Split(params, ";") {
		param = strings.TrimSpace(param)
		k, val, ok := strings.Cut(param, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "rel") {
			continue
		}
		val = strings.TrimSpace(val)
		val = strings.Trim(val, `"`)
		for _, rel := range strings.Fields(val) {
			if strings.EqualFold(rel, "preload") {
				return true
			}
		}
	}
	return false
}
