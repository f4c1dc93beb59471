package browser

import (
	"sort"
	"time"

	"vroom/internal/hints"
	"vroom/internal/webpage"
)

// ResourceTiming is the per-resource timeline extracted from a finished
// load, used by the per-resource figures (Fig. 11, Fig. 16).
type ResourceTiming struct {
	URL      string
	Priority hints.Priority
	Required bool
	Hinted   bool
	Pushed   bool
	// Doc marks an HTML document (root or iframe) — exempt from the
	// hint-miss count, since documents are what hints are served on.
	Doc          bool
	Size         int
	DiscoveredAt time.Duration // relative to load start
	RequiredAt   time.Duration
	RequestedAt  time.Duration
	// PushPromisedAt is when the PUSH_PROMISE reached the client (zero if
	// the resource was never promised).
	PushPromisedAt time.Duration
	// FirstByteAt is when response headers first reached the client (zero
	// if no response ever started — refused connection, dead push).
	FirstByteAt time.Duration
	ArrivedAt   time.Duration
	ProcessedAt time.Duration
	// Failed marks an entry that degraded to an error body after exhausting
	// its retries; FailReason names the terminal transport failure.
	Failed     bool
	FailReason string
}

// Result summarizes a finished load.
type Result struct {
	Scheduler string
	// PLT is the page load time (start to onload).
	PLT time.Duration
	// AFT is the above-the-fold time: the last visual change.
	AFT time.Duration
	// SpeedIndex integrates visual incompleteness over time (ms).
	SpeedIndex float64
	// CPUBusy is total main-thread busy time; IdleFrac is the share of
	// the load the main thread spent idle (≈ critical-path network wait,
	// Fig. 4).
	CPUBusy  time.Duration
	IdleFrac float64
	// DiscoverAll/FetchAll are when the last required resource became
	// known / finished arriving. The High variants cover only
	// high-priority (processed, non-iframe) resources (Fig. 16).
	DiscoverAll  time.Duration
	FetchAll     time.Duration
	DiscoverHigh time.Duration
	FetchHigh    time.Duration
	// BytesFetched counts all delivered bytes; WastedBytes those of
	// speculative fetches (hints/pushes) the page never needed.
	BytesFetched int64
	WastedBytes  int64
	// WastedPushBytes are delivered push bytes the page never used, because
	// it never required them or already had them — the server burned client
	// bandwidth on them.
	WastedPushBytes int64
	// Fault/degradation counters: retries issued, attempt timeouts fired,
	// terminal per-attempt failures observed, and hinted prefetches that
	// failed or 404ed (degrading to vanilla discovery).
	Retries       int
	Timeouts      int
	FailedFetches int
	HintsFailed   int
	NumRequired   int
	NumFetched    int
	// Hint-quality ledger: the entries' outcomes settled by hints.Settle
	// (DESIGN.md §13). HintsEmitted counts the hinted entries, so it is
	// HintsUsed + HintsUnused.
	HintsEmitted int
	HintsUsed    int
	HintsUnused  int
	HintsMissed  int
	Resources    []ResourceTiming
}

// Outcome describes what the load did with e, for hints.Settle. A push is
// claimed when it delivered a resource the page required and did not yet
// have.
func (l *Load) Outcome(e *Entry) hints.Outcome {
	pushed := e.Pushed && (e.State == StateArrived || e.State == StateProcessed)
	return hints.Outcome{
		Host:      e.URL.Host,
		Hinted:    e.Hinted,
		Required:  e.Required,
		Doc:       e.Res != nil && e.Res.Type == webpage.HTML,
		Pushed:    pushed,
		Claimed:   pushed && e.Required && !e.pushLate,
		Bytes:     int64(e.Size),
		ArrivedAt: l.since(e.ArrivedAt),
		NeededAt:  l.since(e.RequiredAt),
	}
}

// since is t's offset from load start, zero for the zero time.
func (l *Load) since(t time.Time) time.Duration {
	if t.IsZero() {
		return 0
	}
	return t.Sub(l.start)
}

// Result computes the load summary. It must be called after the load
// finished.
func (l *Load) Result() Result {
	r := Result{Scheduler: l.Sched.Name()}
	if !l.finished {
		return r
	}
	r.PLT = l.finishedAt.Sub(l.start)
	r.CPUBusy = l.busyTotal
	if r.PLT > 0 {
		idle := r.PLT - l.busyTotal
		if idle < 0 {
			idle = 0
		}
		r.IdleFrac = float64(idle) / float64(r.PLT)
	}
	r.Retries = l.retries
	r.Timeouts = l.timeouts
	r.FailedFetches = l.failedFetches
	r.HintsFailed = l.hintsFailed
	var q hints.QualityDelta
	for _, e := range l.Entries() {
		if e.State == StateArrived || e.State == StateProcessed {
			r.NumFetched++
			r.BytesFetched += int64(e.Size)
			if !e.Required {
				r.WastedBytes += int64(e.Size)
			}
		}
		o := l.Outcome(e)
		q.Add(hints.Settle(o))
		rt := ResourceTiming{
			URL:            e.URL.String(),
			Priority:       e.Priority,
			Required:       e.Required,
			Hinted:         e.Hinted,
			Pushed:         e.Pushed,
			Doc:            o.Doc,
			Size:           e.Size,
			DiscoveredAt:   l.since(e.DiscoveredAt),
			RequiredAt:     o.NeededAt,
			RequestedAt:    l.since(e.RequestedAt),
			PushPromisedAt: l.since(e.PushPromisedAt),
			FirstByteAt:    l.since(e.FirstByteAt),
			ArrivedAt:      o.ArrivedAt,
			ProcessedAt:    l.since(e.ProcessedAt),
			Failed:         e.FailReason != "",
			FailReason:     e.FailReason,
		}
		r.Resources = append(r.Resources, rt)
		if !e.Required {
			continue
		}
		r.NumRequired++
		if rt.DiscoveredAt > r.DiscoverAll {
			r.DiscoverAll = rt.DiscoveredAt
		}
		if rt.ArrivedAt > r.FetchAll {
			r.FetchAll = rt.ArrivedAt
		}
		if e.Priority == hints.High {
			if rt.DiscoveredAt > r.DiscoverHigh {
				r.DiscoverHigh = rt.DiscoveredAt
			}
			if rt.ArrivedAt > r.FetchHigh {
				r.FetchHigh = rt.ArrivedAt
			}
		}
	}
	r.HintsUsed, r.HintsUnused, r.HintsMissed = int(q.HintsUsed), int(q.HintsUnused), int(q.HintsMissed)
	r.HintsEmitted = r.HintsUsed + r.HintsUnused
	r.WastedPushBytes = q.WastedPushBytes
	r.AFT, r.SpeedIndex = l.visualMetrics()
	return r
}

// visualMetrics computes above-the-fold time and Speed Index from the paint
// event log: AFT is the last visual change; Speed Index integrates
// (1 - completeness) over time, in milliseconds.
func (l *Load) visualMetrics() (time.Duration, float64) {
	if len(l.paints) == 0 {
		return l.finishedAt.Sub(l.start), float64(l.finishedAt.Sub(l.start).Milliseconds())
	}
	paints := make([]paintEvent, len(l.paints))
	copy(paints, l.paints)
	sort.Slice(paints, func(i, j int) bool { return paints[i].at.Before(paints[j].at) })
	var total float64
	for _, p := range paints {
		total += p.weight
	}
	aft := paints[len(paints)-1].at.Sub(l.start)
	// Integrate incompleteness.
	var si float64
	var done float64
	prev := time.Duration(0)
	for _, p := range paints {
		at := p.at.Sub(l.start)
		si += (1 - done/total) * float64((at - prev).Milliseconds())
		done += p.weight
		prev = at
	}
	return aft, si
}
