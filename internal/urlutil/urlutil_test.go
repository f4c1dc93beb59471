package urlutil

import (
	"testing"
	"testing/quick"
)

func TestParseNormalizes(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"https://Example.COM/a/b", "https://example.com/a/b"},
		{"http://example.com:80/x", "http://example.com/x"},
		{"https://example.com:443/x", "https://example.com/x"},
		{"https://example.com", "https://example.com/"},
		{"https://example.com/a?b=1&c=2", "https://example.com/a?b=1&c=2"},
	}
	for _, c := range cases {
		u, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := u.String(); got != c.want {
			t.Errorf("Parse(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"javascript:void(0)", "data:image/png;base64,xyz", "about:blank",
		"ftp://example.com/x", "/relative/only", "",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestResolve(t *testing.T) {
	base := MustParse("https://www.example.com/news/index.html")
	cases := []struct {
		ref, want string
		ok        bool
	}{
		{"https://cdn.example.com/a.js", "https://cdn.example.com/a.js", true},
		{"//cdn.example.com/b.js", "https://cdn.example.com/b.js", true},
		{"/img/logo.png", "https://www.example.com/img/logo.png", true},
		{"photo.jpg", "https://www.example.com/news/photo.jpg", true},
		{"../css/style.css", "https://www.example.com/css/style.css", true},
		{"#section", "", false},
		{"javascript:go()", "", false},
		{"data:text/plain,hi", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		u, ok := Resolve(base, c.ref)
		if ok != c.ok {
			t.Errorf("Resolve(%q) ok=%v, want %v", c.ref, ok, c.ok)
			continue
		}
		if ok && u.String() != c.want {
			t.Errorf("Resolve(%q) = %q, want %q", c.ref, u, c.want)
		}
	}
}

func TestResolveAbsoluteRoundTrip(t *testing.T) {
	base := MustParse("https://www.example.com/")
	f := func(path string) bool {
		u := URL{Scheme: "https", Host: "host.example.org", Path: "/p"}
		got, ok := Resolve(base, u.String())
		return ok && got == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrableDomain(t *testing.T) {
	cases := map[string]string{
		"www.example.com":        "example.com",
		"static.cdn.example.com": "example.com",
		"example.com":            "example.com",
		"bbc.co.uk":              "bbc.co.uk",
		"news.bbc.co.uk":         "bbc.co.uk",
		"localhost":              "localhost",
		"192.168.0.1":            "192.168.0.1",
		"example.com:8080":       "example.com",
	}
	for in, want := range cases {
		if got := RegistrableDomain(in); got != want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSameOrigin(t *testing.T) {
	a := MustParse("https://a.com/x")
	b := MustParse("https://a.com/y")
	c := MustParse("http://a.com/x")
	d := MustParse("https://b.com/x")
	if !SameOrigin(a, b) {
		t.Error("same scheme+host should be same origin")
	}
	if SameOrigin(a, c) || SameOrigin(a, d) {
		t.Error("scheme or host mismatch should differ")
	}
}

func TestOrigin(t *testing.T) {
	u := MustParse("https://www.example.com:8443/x")
	if u.Origin() != "https://www.example.com:8443" {
		t.Errorf("Origin = %q", u.Origin())
	}
}

func TestStringParseRoundTripProperty(t *testing.T) {
	paths := []string{"/", "/a", "/a/b.js", "/img/x-y_z.png", "/q"}
	hosts := []string{"a.com", "www.b.org", "x.y.co.uk"}
	for _, h := range hosts {
		for _, p := range paths {
			u := URL{Scheme: "https", Host: h, Path: p}
			back, err := Parse(u.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", u.String(), err)
			}
			if back != u {
				t.Errorf("round trip %q -> %q", u, back)
			}
		}
	}
}
