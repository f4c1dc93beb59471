package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Blame segment names. Every instant of [0, PLT] is attributed to exactly
// one segment, so the segments always sum to PLT exactly.
const (
	// SegCPUBusy: the main thread was executing a task (parse, eval,
	// layout, finalize).
	SegCPUBusy = "cpu-busy"
	// SegFaultStall: a fetch attempt that ultimately failed or timed out
	// was in flight — time burned by an injected fault.
	SegFaultStall = "fault-stall"
	// SegRetryBackoff: the browser was deliberately waiting out a retry
	// backoff.
	SegRetryBackoff = "retry-backoff"
	// SegNetworkWait: a client-initiated fetch that eventually succeeded
	// was in flight while the CPU was idle — the paper's critical-path
	// network wait (Fig. 4).
	SegNetworkWait = "network-wait"
	// SegPushSaved: only server-initiated push streams were active — idle
	// time the network spent productively delivering content the client
	// had not yet asked for.
	SegPushSaved = "push-saved"
	// SegSchedHold: the scheduler was holding at least one queued fetch at
	// a stage gate and nothing higher-priority explains the time.
	SegSchedHold = "scheduler-hold"
	// SegOtherIdle: nothing above covers the instant (e.g. the gap between
	// onload being earned and the finalize task running, cache-hit
	// delivery delays, push-promise propagation).
	SegOtherIdle = "other-idle"
)

// blameOrder is the attribution priority, highest first: when categories
// overlap in time, the earlier one claims the interval. CPU work beats all
// waiting; among waits, fault damage and deliberate backoff are blamed
// before generic network wait, so "network-wait" means productive transfer
// time; scheduler holds only surface when nothing else explains the time
// (a hold concurrent with a critical fetch is really network wait).
var blameOrder = []string{
	SegCPUBusy, SegFaultStall, SegRetryBackoff,
	SegNetworkWait, SegPushSaved, SegSchedHold,
}

// Segment is one named share of the PLT.
type Segment struct {
	Name string
	Dur  time.Duration
}

// PathNode is one resource on the critical path.
type PathNode struct {
	URL          string
	DiscoveredAt time.Duration // relative to load start
	ArrivedAt    time.Duration
	ProcessedAt  time.Duration
}

// Report is a blame decomposition of one load's PLT.
type Report struct {
	PLT time.Duration
	// Segments lists every blame segment in attribution-priority order
	// (other-idle last); they sum to PLT exactly.
	Segments []Segment
	// CriticalPath is the dependency chain ending at the last-processed
	// resource, root first.
	CriticalPath []PathNode
}

// Sum returns the total of all segments (== PLT by construction).
func (r Report) Sum() time.Duration {
	var s time.Duration
	for _, seg := range r.Segments {
		s += seg.Dur
	}
	return s
}

// interval is a half-open [from, to) time range.
type interval struct{ from, to time.Time }

// Blame decomposes a recorded load into named PLT segments plus the
// dependency chain that ended the load. plt bounds the attribution window;
// pass the load's reported PLT so the decomposition matches the headline
// number. A zero plt derives the window from the trace (the end of the
// final main-thread task).
func Blame(rec *Recording, plt time.Duration) Report {
	start := rec.Start
	if plt <= 0 {
		plt = deriveEnd(rec).Sub(start)
	}
	if plt < 0 {
		plt = 0
	}
	end := start.Add(plt)

	byCat := make(map[string][]interval)
	for _, iv := range spanIntervals(rec, end) {
		cat := classify(iv.track, iv.name, iv.outcome)
		if cat == "" {
			continue
		}
		from, to := iv.from, iv.to
		if from.Before(start) {
			from = start
		}
		if to.After(end) {
			to = end
		}
		if !to.After(from) {
			continue
		}
		byCat[cat] = append(byCat[cat], interval{from, to})
	}
	for cat, ivs := range byCat {
		byCat[cat] = mergeIntervals(ivs)
	}

	// Sweep the window: every elementary slice between consecutive
	// boundaries goes to the highest-priority category covering it.
	points := []time.Time{start, end}
	for _, ivs := range byCat {
		for _, iv := range ivs {
			points = append(points, iv.from, iv.to)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Before(points[j]) })
	sums := make(map[string]time.Duration)
	cursor := make(map[string]int)
	for i := 0; i+1 < len(points); i++ {
		from, to := points[i], points[i+1]
		if !to.After(from) || from.Before(start) || to.After(end) {
			continue
		}
		cat := SegOtherIdle
		for _, c := range blameOrder {
			if covers(byCat[c], from, cursor, c) {
				cat = c
				break
			}
		}
		sums[cat] += to.Sub(from)
	}

	rep := Report{PLT: plt}
	for _, c := range append(append([]string{}, blameOrder...), SegOtherIdle) {
		rep.Segments = append(rep.Segments, Segment{Name: c, Dur: sums[c]})
	}
	rep.CriticalPath = criticalPath(rec, end)
	return rep
}

// covers reports whether any interval of the (merged, sorted) list contains
// t, advancing the per-category cursor monotonically.
func covers(ivs []interval, t time.Time, cursor map[string]int, cat string) bool {
	i := cursor[cat]
	for i < len(ivs) && !ivs[i].to.After(t) {
		i++
	}
	cursor[cat] = i
	return i < len(ivs) && !ivs[i].from.After(t)
}

// spanInterval is a matched B/E pair with its classification inputs.
type spanInterval struct {
	track, name, outcome string
	from, to             time.Time
}

// spanIntervals pairs Begin/End events by ID. A Begin with no matching End
// (a hold still open when the trace stopped, a stalled stream) closes at
// the window end.
func spanIntervals(rec *Recording, end time.Time) []spanInterval {
	open := make(map[uint64]Event)
	var out []spanInterval
	for _, ev := range rec.Events {
		switch ev.Kind {
		case KindBegin:
			open[ev.ID] = ev
		case KindEnd:
			b, ok := open[ev.ID]
			if !ok {
				continue
			}
			delete(open, ev.ID)
			out = append(out, spanInterval{
				track: b.Track, name: b.Name, outcome: ev.Arg("outcome"),
				from: b.At, to: ev.At,
			})
		}
	}
	for _, b := range open {
		out = append(out, spanInterval{track: b.Track, name: b.Name, from: b.At, to: end})
	}
	return out
}

// classify maps a span to its blame category ("" = not attributable).
func classify(track, name, outcome string) string {
	if track == TrackMain {
		return SegCPUBusy
	}
	switch prefix(name) {
	case "fetch":
		if outcome == "ok" {
			return SegNetworkWait
		}
		return SegFaultStall
	case "backoff":
		return SegRetryBackoff
	case "push":
		return SegPushSaved
	case "hold":
		return SegSchedHold
	case "dns", "handshake":
		return SegNetworkWait
	}
	return ""
}

func prefix(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// deriveEnd finds the load's finish time in the trace: the end of the last
// main-thread task (onload fires when the finalize task completes). Falls
// back to the last event of any kind.
func deriveEnd(rec *Recording) time.Time {
	end := rec.Start
	for _, ev := range rec.Events {
		if ev.Kind == KindEnd && ev.Track == TrackMain && ev.At.After(end) {
			end = ev.At
		}
	}
	if end.Equal(rec.Start) {
		for _, ev := range rec.Events {
			if ev.At.After(end) {
				end = ev.At
			}
		}
	}
	return end
}

// criticalPath walks discovery edges backward from the last resource
// processed inside the window, using the "by" args that discover/require
// instants carry, and returns the chain root-first.
func criticalPath(rec *Recording, end time.Time) []PathNode {
	type times struct {
		discovered, arrived, processed time.Time
		by                             string
	}
	res := make(map[string]*times)
	get := func(url string) *times {
		t, ok := res[url]
		if !ok {
			t = &times{}
			res[url] = t
		}
		return t
	}
	var lastURL string
	var lastAt time.Time
	for _, ev := range rec.Events {
		if ev.Kind != KindInstant || ev.Track != TrackLoad {
			continue
		}
		p := prefix(ev.Name)
		url := strings.TrimPrefix(ev.Name, p+":")
		switch p {
		case "discover":
			t := get(url)
			t.discovered = ev.At
			t.by = ev.Arg("by")
		case "require":
			t := get(url)
			if t.discovered.IsZero() {
				t.discovered = ev.At
			}
			if t.by == "" {
				t.by = ev.Arg("by")
			}
		case "arrived":
			get(url).arrived = ev.At
		case "processed":
			get(url).processed = ev.At
			if !ev.At.After(end) && ev.At.After(lastAt) {
				lastAt = ev.At
				lastURL = url
			}
		}
	}
	if lastURL == "" {
		return nil
	}
	var chain []PathNode
	seen := make(map[string]bool)
	for url := lastURL; url != "" && !seen[url]; {
		seen[url] = true
		t := res[url]
		if t == nil {
			break
		}
		n := PathNode{URL: url}
		if !t.discovered.IsZero() {
			n.DiscoveredAt = t.discovered.Sub(rec.Start)
		}
		if !t.arrived.IsZero() {
			n.ArrivedAt = t.arrived.Sub(rec.Start)
		}
		if !t.processed.IsZero() {
			n.ProcessedAt = t.processed.Sub(rec.Start)
		}
		chain = append(chain, n)
		url = t.by
	}
	// Reverse: root first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Format renders the report as the text block vroom-trace prints.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PLT %s\n", fmtDur(r.PLT))
	for _, s := range r.Segments {
		pct := 0.0
		if r.PLT > 0 {
			pct = 100 * float64(s.Dur) / float64(r.PLT)
		}
		fmt.Fprintf(&b, "  %-15s %10s  %5.1f%%\n", s.Name, fmtDur(s.Dur), pct)
	}
	fmt.Fprintf(&b, "  %-15s %10s\n", "sum", fmtDur(r.Sum()))
	if len(r.CriticalPath) > 0 {
		b.WriteString("critical path:\n")
		for _, n := range r.CriticalPath {
			fmt.Fprintf(&b, "  %-40s discovered %8s  arrived %8s  processed %8s\n",
				n.URL, fmtDur(n.DiscoveredAt), fmtDur(n.ArrivedAt), fmtDur(n.ProcessedAt))
		}
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// mergeIntervals sorts and coalesces overlapping/touching intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if !iv.from.After(last.to) {
			if iv.to.After(last.to) {
				last.to = iv.to
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
