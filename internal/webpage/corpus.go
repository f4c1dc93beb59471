package webpage

import (
	"fmt"
	"math/rand"
	"strings"
)

// Corpus is a set of generated sites used by the experiments.
type Corpus struct {
	Sites []*Site
}

// CorpusConfig selects the composition of a corpus.
type CorpusConfig struct {
	// Seed makes the whole corpus deterministic.
	Seed int64
	// NumTop100, NumNews, NumSports are the per-category site counts.
	NumTop100, NumNews, NumSports int
}

// Generate builds a corpus.
func Generate(cfg CorpusConfig) *Corpus {
	r := rand.New(rand.NewSource(cfg.Seed))
	c := &Corpus{}
	for i := 0; i < cfg.NumTop100; i++ {
		c.Sites = append(c.Sites, NewSite(fmt.Sprintf("popular%02d", i), Top100, r.Int63()))
	}
	for i := 0; i < cfg.NumNews; i++ {
		c.Sites = append(c.Sites, NewSite(fmt.Sprintf("dailynews%02d", i), News, r.Int63()))
	}
	for i := 0; i < cfg.NumSports; i++ {
		c.Sites = append(c.Sites, NewSite(fmt.Sprintf("sportly%02d", i), Sports, r.Int63()))
	}
	return c
}

// NamedSite builds the page a command-line site name stands for. The
// category follows Generate's naming: a name starting "popular" is Top100,
// one starting "sport" is Sports, and any other name is News.
func NamedSite(name string, seed int64) *Site {
	cat := News
	switch {
	case strings.HasPrefix(name, "sport"):
		cat = Sports
	case strings.HasPrefix(name, "popular"):
		cat = Top100
	}
	return NewSite(name, cat, seed)
}
