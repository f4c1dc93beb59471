// Package urlutil provides the URL handling used throughout the Vroom
// reproduction: normalization, reference resolution (including
// scheme-relative and root-relative references found in HTML), and origin /
// registrable-domain extraction for cookie scoping and push eligibility.
package urlutil

import (
	"fmt"
	"net/url"
	"strings"
)

// URL is a normalized absolute http(s) URL broken into the parts the system
// cares about. The struct is comparable, so it is a map key as it stands
// (hints.Parse's dedup set, hintstore's answer memo) — no String() needed.
type URL struct {
	Scheme string // "http" or "https"
	Host   string // lowercased host, no port if default
	Path   string // always begins with "/"
	Query  string // raw query, without "?"
}

// Parse parses and normalizes an absolute URL. It rejects non-http(s)
// schemes (data:, javascript:, about:) since those never hit the network.
func Parse(raw string) (URL, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return URL{}, fmt.Errorf("urlutil: parse %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return URL{}, fmt.Errorf("urlutil: non-http scheme %q in %q", u.Scheme, raw)
	}
	if u.Host == "" {
		return URL{}, fmt.Errorf("urlutil: missing host in %q", raw)
	}
	return normalize(u), nil
}

// MustParse is Parse for known-good constants; it panics on error.
func MustParse(raw string) URL {
	u, err := Parse(raw)
	if err != nil {
		panic(err)
	}
	return u
}

// Resolve resolves a reference found in content served at base. It handles
// absolute refs, scheme-relative refs (//cdn.example/x), root-relative paths
// and relative paths. Non-fetchable refs (data:, javascript:, fragments,
// empty strings) return ok=false.
func Resolve(base URL, ref string) (URL, bool) {
	ref = strings.TrimSpace(ref)
	if ref == "" || strings.HasPrefix(ref, "#") {
		return URL{}, false
	}
	lower := strings.ToLower(ref)
	for _, bad := range []string{"data:", "javascript:", "about:", "blob:", "mailto:"} {
		if strings.HasPrefix(lower, bad) {
			return URL{}, false
		}
	}
	bu := &url.URL{Scheme: base.Scheme, Host: base.Host, Path: base.Path, RawQuery: base.Query}
	ru, err := url.Parse(ref)
	if err != nil {
		return URL{}, false
	}
	abs := bu.ResolveReference(ru)
	if abs.Scheme != "http" && abs.Scheme != "https" {
		return URL{}, false
	}
	if abs.Host == "" {
		return URL{}, false
	}
	return normalize(abs), true
}

func normalize(u *url.URL) URL {
	host := strings.ToLower(u.Host)
	switch {
	case u.Scheme == "http" && strings.HasSuffix(host, ":80"):
		host = strings.TrimSuffix(host, ":80")
	case u.Scheme == "https" && strings.HasSuffix(host, ":443"):
		host = strings.TrimSuffix(host, ":443")
	}
	path := u.EscapedPath()
	if path == "" {
		path = "/"
	}
	return URL{Scheme: u.Scheme, Host: host, Path: path, Query: u.RawQuery}
}

// String reassembles the URL.
func (u URL) String() string {
	var b strings.Builder
	b.WriteString(u.Scheme)
	b.WriteString("://")
	b.WriteString(u.Host)
	b.WriteString(u.Path)
	if u.Query != "" {
		b.WriteByte('?')
		b.WriteString(u.Query)
	}
	return b.String()
}

// Origin returns scheme://host, the unit of connection reuse and of HTTP/2
// push authority.
func (u URL) Origin() string { return u.Scheme + "://" + u.Host }

// RegistrableDomain approximates eTLD+1 extraction: it returns the last two
// labels of the host ("static.cdn.example.com" -> "example.com"). For
// two-label public suffixes common in web corpora ("co.uk", "com.au", ...) it
// keeps three labels. IP literals and single-label hosts are returned as-is.
func RegistrableDomain(host string) string {
	host = strings.ToLower(host)
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host, "]") {
		host = host[:i]
	}
	if host == "" || strings.Trim(host, "0123456789.") == "" || strings.HasPrefix(host, "[") {
		return host // IP literal
	}
	labels := strings.Split(host, ".")
	if len(labels) <= 2 {
		return host
	}
	suffix := labels[len(labels)-2] + "." + labels[len(labels)-1]
	if twoLabelSuffixes[suffix] && len(labels) >= 3 {
		return labels[len(labels)-3] + "." + suffix
	}
	return suffix
}

// twoLabelSuffixes lists the two-label public suffixes the reproduction's
// corpora can produce. A full public-suffix list is out of scope.
var twoLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.br": true, "com.cn": true, "com.mx": true, "co.in": true,
	"co.kr": true, "co.nz": true, "co.za": true,
}

// SameOrigin reports whether two URLs share scheme and host. A server may
// only PUSH resources for its own origin.
func SameOrigin(a, b URL) bool { return a.Scheme == b.Scheme && a.Host == b.Host }
