package hints

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary header values at Parse. Hint headers arrive
// off the wire, so Parse must never panic, never exceed its caps, and never
// return a hint whose URL would not itself parse.
func FuzzParse(f *testing.F) {
	f.Add("<https://a.com/x.js>; rel=preload", "https://a.com/tag.js", "https://a.com/i.jpg")
	f.Add("<https://a.com/x.js>; rel=\"preload prefetch\"; as=script", "", "")
	f.Add("garbage", "not a url", "data:text/plain,hi")
	f.Add("<no-close; rel=preload", "https://a.com/a\nhttps://a.com/b", "//scheme-relative/x")
	f.Add("<>; rel=preload", "http://"+strings.Repeat("h", 5000)+".com/", "https://a.com/?q=1")
	f.Fuzz(func(t *testing.T, link, semi, low string) {
		headers := map[string][]string{
			HeaderLink: strings.Split(link, "\n"),
			HeaderSemi: strings.Split(semi, "\n"),
			HeaderLow:  strings.Split(low, "\n"),
		}
		out := Parse(headers)
		if len(out) > MaxHints {
			t.Fatalf("cap exceeded: %d hints", len(out))
		}
		seen := make(map[string]bool, len(out))
		for _, h := range out {
			if h.URL.Scheme == "" || h.URL.Host == "" {
				t.Fatalf("URL without scheme or host in output: %+v", h)
			}
			if h.Priority != High && h.Priority != Semi && h.Priority != Low {
				t.Fatalf("invalid priority: %+v", h)
			}
			s := h.URL.String()
			if seen[s] {
				t.Fatalf("duplicate hint survived: %s", s)
			}
			seen[s] = true
		}
		// Round-trip stability: formatting the parsed hints and parsing
		// again must be a fixed point.
		again := Parse(Format(out))
		if len(again) != len(out) {
			t.Fatalf("re-parse changed hint count: %d -> %d", len(out), len(again))
		}
	})
}
