// vroom-corpus generates and inspects the synthetic page corpus, and
// records pages into replay archives for the wire-level tools.
//
// Usage:
//
//	vroom-corpus -stats                         # corpus statistics
//	vroom-corpus -record out.json -site news03  # record one page
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vroom/internal/replay"
	"vroom/internal/telemetry"
	"vroom/internal/webpage"
)

func main() {
	var (
		stats    = flag.Bool("stats", false, "print corpus statistics")
		record   = flag.String("record", "", "record one site's page to this archive file")
		siteName = flag.String("site", "dailynews00", "site to record (dailynewsNN, sportlyNN, popularNN)")
		seed     = flag.Int64("seed", 2017, "corpus seed")
		news     = flag.Int("news", 50, "news sites")
		sports   = flag.Int("sports", 50, "sports sites")
		top      = flag.Int("top", 100, "top-100-style sites")
	)
	flag.Parse()

	corpus := webpage.Generate(webpage.CorpusConfig{Seed: *seed, NumNews: *news, NumSports: *sports, NumTop100: *top})
	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	profile := webpage.Profile{Device: webpage.PhoneSmall, UserID: 11}

	if *record != "" {
		for _, s := range corpus.Sites {
			if s.Name == *siteName {
				sn := s.Snapshot(at, profile, 1)
				a := replay.FromSnapshot(sn)
				if err := a.SaveFile(*record); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("recorded %s: %d resources -> %s\n", s.Name, a.Len(), *record)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "site %q not in corpus\n", *siteName)
		os.Exit(2)
	}

	if *stats {
		counts := telemetry.NewDist()
		bytesTotal := telemetry.NewDist()
		procFrac := telemetry.NewDist()
		domains := telemetry.NewDist()
		for _, s := range corpus.Sites {
			sn := s.Snapshot(at, profile, 1)
			counts.Add(float64(sn.Len()))
			tot, proc := sn.TotalBytes()
			bytesTotal.Add(float64(tot) / 1024)
			procFrac.Add(float64(proc) / float64(tot))
			hosts := map[string]bool{}
			for _, r := range sn.Ordered() {
				hosts[r.URL.Host] = true
			}
			domains.Add(float64(len(hosts)))
		}
		fmt.Printf("sites: %d\n", len(corpus.Sites))
		fmt.Printf("resources/page:      %s\n", counts.Summary())
		fmt.Printf("page KB:             %s\n", bytesTotal.Summary())
		fmt.Printf("processed-byte frac: %s\n", procFrac.Summary())
		fmt.Printf("domains/page:        %s\n", domains.Summary())
		return
	}

	flag.Usage()
}
