package core

import (
	"vroom/internal/browser"
	"vroom/internal/hints"
	"vroom/internal/obs"
)

// StagedScheduler is Vroom's client-side request scheduler (§4.3, §5.2): the
// browser.Scheduler adapter over the Stages gate. High-priority resources go
// out the moment they are hinted or discovered, in hint (processing) order;
// semi and low ones wait for their stage, which keeps the access link clear
// for what the CPU is waiting on, so receipt order tracks processing order
// (Fig. 11). The adapter adds only the simulator's own parts: skipping
// entries already in flight, "hold:" spans and "stage:" instants.
type StagedScheduler struct {
	gate Stages[*browser.Entry]
	// held tracks the open "hold:" span of each queued resource so the
	// blame decomposition can see exactly how long the stage gate delayed
	// each fetch.
	held map[*browser.Entry]obs.Span
}

// NewStagedScheduler returns a scheduler at the high stage.
func NewStagedScheduler() *StagedScheduler { return &StagedScheduler{} }

// Name implements browser.Scheduler.
func (s *StagedScheduler) Name() string { return "vroom-staged" }

// Start implements browser.Scheduler.
func (s *StagedScheduler) Start(*browser.Load) {}

// OnHint implements browser.Scheduler: hinted resources are prefetched
// according to their stage.
func (s *StagedScheduler) OnHint(l *browser.Load, e *browser.Entry, h hints.Hint) {
	s.want(l, e, h.Priority)
}

// OnRequired implements browser.Scheduler: real discoveries follow the same
// stage discipline; high-priority needs always go out immediately.
func (s *StagedScheduler) OnRequired(l *browser.Load, e *browser.Entry) {
	s.want(l, e, e.Priority)
}

func (s *StagedScheduler) want(l *browser.Load, e *browser.Entry, p hints.Priority) {
	if e.State != browser.StateKnown {
		return // already in flight or arrived
	}
	if s.gate.Want(e, p) {
		s.fetch(l, e)
		return
	}
	tr := l.Tracer()
	if _, open := s.held[e]; open || !tr.Enabled() {
		return
	}
	if _, queued := s.gate.Queued(e); queued {
		if s.held == nil {
			s.held = make(map[*browser.Entry]obs.Span)
		}
		s.held[e] = tr.Begin(obs.TrackSched, "hold:"+e.URL.String(),
			obs.Arg{Key: "prio", Val: p.String()})
	}
}

func (s *StagedScheduler) fetch(l *browser.Load, e *browser.Entry) {
	if sp, ok := s.held[e]; ok {
		sp.End()
		delete(s.held, e)
	}
	l.FetchNow(e)
}

// OnArrived implements browser.Scheduler: arrivals retire outstanding
// fetches and may open the next stage.
func (s *StagedScheduler) OnArrived(l *browser.Load, e *browser.Entry) {
	if e.URL == l.Root {
		s.gate.RootArrived()
	}
	s.gate.Arrived(e)
	for {
		p, queue, ok := s.gate.Release()
		if !ok {
			return
		}
		if tr := l.Tracer(); tr.Enabled() {
			tr.Instant(obs.TrackSched, "stage:"+p.String())
		}
		for _, q := range queue {
			if q.State != browser.StateKnown {
				s.gate.Arrived(q) // pushed meanwhile: nothing to send
				continue
			}
			s.fetch(l, q)
		}
	}
}
