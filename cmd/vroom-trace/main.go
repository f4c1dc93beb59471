// vroom-trace loads one generated page under a policy and explains it: a
// load summary plus the critical-path blame decomposition of PLT (cpu,
// network wait, scheduler hold, ...), for inspecting why a policy is fast
// or slow. It exits nonzero when the blame segments do not sum to PLT
// within 1ms.
//
// Usage:
//
//	vroom-trace -site dailynews00 -policy vroom
//	vroom-trace -site dailynews00 -policy vroom -perfetto out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vroom/internal/obs"
	"vroom/internal/runner"
	"vroom/internal/webpage"
)

func main() {
	var (
		siteName = flag.String("site", "dailynews00", "site name (popular* is Top100, sport* Sports, any other name News)")
		policy   = flag.String("policy", "vroom", strings.Join(policyNames(), "|"))
		seed     = flag.Int64("seed", 2017, "generator seed")
		perfetto = flag.String("perfetto", "", "write a Chrome trace-event JSON file to this path (load in ui.perfetto.dev)")
	)
	flag.Parse()

	rec := &obs.Recording{}
	res, err := runner.Run(webpage.NamedSite(*siteName, *seed), runner.Policy(*policy), runner.Options{
		Time:    time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC),
		Profile: webpage.Profile{Device: webpage.PhoneSmall, UserID: 11},
		Nonce:   1,
		Trace:   rec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("load summary (%s)\n", res.Scheduler)
	fmt.Printf("  PLT                   %8.2fs\n", res.PLT.Seconds())
	fmt.Printf("  above-the-fold        %8.2fs\n", res.AFT.Seconds())
	fmt.Printf("  speed index           %8.0f\n", res.SpeedIndex)
	fmt.Printf("  all discovered by     %8.2fs\n", res.DiscoverAll.Seconds())
	fmt.Printf("  all fetched by        %8.2fs\n", res.FetchAll.Seconds())
	fmt.Printf("  high-pri discovered   %8.2fs\n", res.DiscoverHigh.Seconds())
	fmt.Printf("  high-pri fetched      %8.2fs\n", res.FetchHigh.Seconds())
	fmt.Printf("  main thread busy      %8.2fs (idle %.0f%%)\n", res.CPUBusy.Seconds(), res.IdleFrac*100)
	fmt.Printf("  bytes                 %8.0f KB (%0.0f KB wasted)\n", float64(res.BytesFetched)/1024, float64(res.WastedBytes)/1024)
	fmt.Printf("  resources             %5d required / %d fetched\n", res.NumRequired, res.NumFetched)

	rep := obs.Blame(rec, res.PLT)
	fmt.Println()
	fmt.Print(rep.Format())
	if diff := rep.Sum() - res.PLT; diff > time.Millisecond || diff < -time.Millisecond {
		fmt.Fprintf(os.Stderr, "blame segments sum to %v but PLT is %v (off by %v)\n",
			rep.Sum(), res.PLT, diff)
		os.Exit(1)
	}

	if *perfetto != "" {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.WritePerfetto(f, rec); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nPerfetto trace written to %s\n", *perfetto)
	}
}

func policyNames() []string {
	out := make([]string, 0, len(runner.AllPolicies()))
	for _, p := range runner.AllPolicies() {
		out = append(out, string(p))
	}
	return out
}
