package hints

import "time"

// Outcome is what one page load did with one resource. The browser, the
// simulated server farm and the wire client each describe a finished load
// as outcomes, and Settle is the one rule that scores them.
type Outcome struct {
	// Host is the resource's own host, which settlements are credited to.
	Host string
	// Hinted: a dependency hint named it. Required: the page needed it. Doc:
	// it is an HTML document, exempt from the miss count because documents
	// are what hints are served on.
	Hinted, Required, Doc bool
	// Pushed: a push of it reached the client, carrying Bytes. Claimed: the
	// page took it from the push cache; a push that lands after the page
	// fetched the URL itself never is.
	Pushed, Claimed bool
	Bytes           int64
	// ArrivedAt is when the push arrived and NeededAt when the page first
	// needed the resource, from load start; zero if it never did.
	ArrivedAt, NeededAt time.Duration
}

// QualityDelta is a batch of hint-efficacy observations: Settle's score
// for one outcome, a sum of them, or what a server-side estimator saw.
// HintsEmitted is counted where hints are served, never by Settle.
type QualityDelta struct {
	HintsEmitted, HintsUsed, HintsUnused, HintsMissed int64
	// PushedCount = PushUsed + PushWasted; WastedPushBytes are the wasted
	// pushes' bytes.
	PushedCount, PushedBytes, WastedPushBytes, PushUsed, PushWasted int64
	// PushLeadMs sums PushLeads lead times (ms), how far ahead of the page's
	// first need a claimed push arrived; StaleMs sums StaleObs served-table
	// staleness ages (ms).
	PushLeadMs float64
	PushLeads  int64
	StaleMs    float64
	StaleObs   int64
}

// Settle scores one outcome. A hinted resource is used when the page
// required it and unused otherwise; a required resource no hint named is
// missed unless it is a document. A push is used when claimed, with a lead
// time if it arrived before the page needed it; otherwise its bytes are
// wasted.
func Settle(o Outcome) QualityDelta {
	var d QualityDelta
	switch {
	case o.Hinted && o.Required:
		d.HintsUsed = 1
	case o.Hinted:
		d.HintsUnused = 1
	case o.Required && !o.Doc:
		d.HintsMissed = 1
	}
	if !o.Pushed {
		return d
	}
	d.PushedCount, d.PushedBytes = 1, o.Bytes
	if !o.Claimed {
		d.PushWasted, d.WastedPushBytes = 1, o.Bytes
		return d
	}
	d.PushUsed = 1
	if o.NeededAt > o.ArrivedAt {
		d.PushLeadMs, d.PushLeads = float64(o.NeededAt-o.ArrivedAt)/float64(time.Millisecond), 1
	}
	return d
}

// Add folds e into d.
func (d *QualityDelta) Add(e QualityDelta) {
	d.HintsEmitted += e.HintsEmitted
	d.HintsUsed += e.HintsUsed
	d.HintsUnused += e.HintsUnused
	d.HintsMissed += e.HintsMissed
	d.PushedCount += e.PushedCount
	d.PushedBytes += e.PushedBytes
	d.WastedPushBytes += e.WastedPushBytes
	d.PushUsed += e.PushUsed
	d.PushWasted += e.PushWasted
	d.PushLeadMs += e.PushLeadMs
	d.PushLeads += e.PushLeads
	d.StaleMs += e.StaleMs
	d.StaleObs += e.StaleObs
}

// Precision is used / (used + unused): the share of settled hints the page
// needed, 0 when none settled.
func (d QualityDelta) Precision() float64 { return ratio(d.HintsUsed, d.HintsUsed+d.HintsUnused) }

// Recall is used / (used + missed): the share of needed subresources the
// hints named, 0 when none were needed.
func (d QualityDelta) Recall() float64 { return ratio(d.HintsUsed, d.HintsUsed+d.HintsMissed) }

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
