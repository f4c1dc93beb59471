// Package trace renders page-load waterfalls and critical-path summaries
// from a finished simulated load — the WProf-style view (§8, [41]) used to
// inspect why a policy is fast or slow.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vroom/internal/browser"
)

// Options control waterfall rendering.
type Options struct {
	// Width is the number of character columns for the time axis
	// (default 80).
	Width int
	// MaxRows truncates the resource list (0 = all).
	MaxRows int
	// RequiredOnly hides speculative fetches the page never needed.
	RequiredOnly bool
}

// Waterfall renders a text waterfall of the load, one row per resource in
// discovery order:
//
//	·  discovered, waiting to be requested (scheduler hold)
//	─  request in flight
//	█  response body arriving / arrived
//	▒  waiting for / doing CPU processing
//	P  the resource was pushed
func Waterfall(res browser.Result, opts Options) string {
	width := opts.Width
	if width <= 0 {
		width = 80
	}
	rows := make([]browser.ResourceTiming, 0, len(res.Resources))
	for _, rt := range res.Resources {
		if opts.RequiredOnly && !rt.Required {
			continue
		}
		rows = append(rows, rt)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].DiscoveredAt < rows[j].DiscoveredAt })
	if opts.MaxRows > 0 && len(rows) > opts.MaxRows {
		rows = rows[:opts.MaxRows]
	}
	total := res.PLT
	if total <= 0 {
		return "trace: load not finished\n"
	}
	col := func(t time.Duration) int {
		c := int(float64(t) / float64(total) * float64(width))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "waterfall: %d resources, PLT %.2fs, scheduler %s\n", len(rows), total.Seconds(), res.Scheduler)
	fmt.Fprintf(&b, "%-44s|%s|\n", "", timeAxis(total, width))
	for _, rt := range rows {
		line := make([]byte, width)
		for i := range line {
			line[i] = ' '
		}
		fill := func(from, to time.Duration, ch byte) {
			a, z := col(from), col(to)
			for i := a; i <= z && i < width; i++ {
				line[i] = ch
			}
		}
		req := rt.RequestedAt
		if req == 0 && rt.PushPromisedAt > 0 {
			// Server-initiated delivery with no client request: the
			// in-flight bar starts at the PUSH_PROMISE, not at discovery.
			req = rt.PushPromisedAt
		}
		if req == 0 && rt.ArrivedAt > 0 {
			req = rt.DiscoveredAt
		}
		if req > rt.DiscoveredAt {
			fill(rt.DiscoveredAt, req, '.')
		}
		if rt.ArrivedAt > 0 {
			fill(req, rt.ArrivedAt, '-')
			line[col(rt.ArrivedAt)] = '#'
		}
		if rt.ProcessedAt > rt.ArrivedAt && rt.ArrivedAt > 0 {
			fill(rt.ArrivedAt, rt.ProcessedAt, '=')
		}
		mark := ' '
		if rt.Pushed {
			mark = 'P'
		}
		fmt.Fprintf(&b, "%c %-4s %-37s|%s|\n", mark, rt.Priority, shorten(rt.URL, 37), line)
	}
	fmt.Fprintf(&b, "legend: '.' held by scheduler  '-' in flight  '#' arrived  '=' processing  'P' pushed\n")
	return b.String()
}

func timeAxis(total time.Duration, width int) string {
	axis := make([]byte, width)
	for i := range axis {
		axis[i] = '.'
	}
	// A tick every second.
	for s := 0; ; s++ {
		t := time.Duration(s) * time.Second
		if t > total {
			break
		}
		c := int(float64(t) / float64(total) * float64(width))
		if c >= width {
			break
		}
		axis[c] = '|'
	}
	return string(axis)
}

func shorten(u string, n int) string {
	u = strings.TrimPrefix(u, "https://")
	if len(u) <= n {
		return u
	}
	head := n/2 - 1
	return u[:head] + "…" + u[len(u)-(n-head-1):]
}

// Summary reports the phase structure of a load: when discovery, fetching,
// and processing completed, and where time went.
func Summary(res browser.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "load summary (%s)\n", res.Scheduler)
	fmt.Fprintf(&b, "  PLT                   %8.2fs\n", res.PLT.Seconds())
	fmt.Fprintf(&b, "  above-the-fold        %8.2fs\n", res.AFT.Seconds())
	fmt.Fprintf(&b, "  speed index           %8.0f\n", res.SpeedIndex)
	fmt.Fprintf(&b, "  all discovered by     %8.2fs\n", res.DiscoverAll.Seconds())
	fmt.Fprintf(&b, "  all fetched by        %8.2fs\n", res.FetchAll.Seconds())
	fmt.Fprintf(&b, "  high-pri discovered   %8.2fs\n", res.DiscoverHigh.Seconds())
	fmt.Fprintf(&b, "  high-pri fetched      %8.2fs\n", res.FetchHigh.Seconds())
	fmt.Fprintf(&b, "  main thread busy      %8.2fs (idle %.0f%%)\n", res.CPUBusy.Seconds(), res.IdleFrac*100)
	fmt.Fprintf(&b, "  bytes                 %8.0f KB (%0.0f KB wasted)\n", float64(res.BytesFetched)/1024, float64(res.WastedBytes)/1024)
	fmt.Fprintf(&b, "  resources             %5d required / %d fetched\n", res.NumRequired, res.NumFetched)
	return b.String()
}
