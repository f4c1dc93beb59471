// vroom-corpus records one generated page into a replay archive for the
// wire-level tools. A site name builds the same page here as in
// vroom-server and vroom-trace.
//
// Usage:
//
//	vroom-corpus -record out.json -site dailynews00
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vroom/internal/replay"
	"vroom/internal/webpage"
)

func main() {
	var (
		record   = flag.String("record", "", "record the site's page to this archive file")
		siteName = flag.String("site", "dailynews00", "site to record (popular* is Top100, sport* Sports, any other name News)")
		seed     = flag.Int64("seed", 2017, "generator seed")
	)
	flag.Parse()
	if *record == "" {
		flag.Usage()
		os.Exit(2)
	}

	at := time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)
	profile := webpage.Profile{Device: webpage.PhoneSmall, UserID: 11}
	a := replay.FromSnapshot(webpage.NamedSite(*siteName, *seed).Snapshot(at, profile, 1))
	if err := a.SaveFile(*record); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("recorded %s: %d resources -> %s\n", *siteName, a.Len(), *record)
}
