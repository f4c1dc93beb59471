package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Event-level JSON serialization: the /trace scrape format. Where
// WritePerfetto renders a finished, viewer-ready timeline, WriteEvents
// round-trips the raw recording so another process can merge it with its
// own (Merge) before rendering — vroom-load scrapes the server's events
// and stitches them under the client's, joined by propagated flow IDs.

// eventsFile is the on-wire shape: version-stamped, absolute nanosecond
// timestamps so recordings from different processes land on one clock.
type eventsFile struct {
	Version string      `json:"version"`
	StartNs int64       `json:"start_ns"`
	Events  []eventJSON `json:"events"`
}

type eventJSON struct {
	Kind  string    `json:"kind"` // "B", "E", "I"
	Track string    `json:"track"`
	Name  string    `json:"name"`
	AtNs  int64     `json:"at_ns"`
	ID    uint64    `json:"id,omitempty"`
	Args  []argJSON `json:"args,omitempty"`
}

type argJSON struct {
	K string `json:"k"`
	V string `json:"v"`
}

const eventsVersion = "vroom-events/v1"

// WriteEvents serializes a recording as vroom-events/v1 JSON.
func WriteEvents(w io.Writer, rec *Recording) error {
	out := eventsFile{Version: eventsVersion, Events: make([]eventJSON, 0, len(rec.Events))}
	if !rec.Start.IsZero() {
		out.StartNs = rec.Start.UnixNano()
	}
	for _, ev := range rec.Events {
		ej := eventJSON{Kind: ev.Kind.String(), Track: ev.Track, Name: ev.Name,
			AtNs: ev.At.UnixNano(), ID: ev.ID}
		for _, a := range ev.Args {
			ej.Args = append(ej.Args, argJSON{K: a.Key, V: a.Val})
		}
		out.Events = append(out.Events, ej)
	}
	return json.NewEncoder(w).Encode(out)
}

// ReadEvents parses vroom-events/v1 JSON back into a Recording.
func ReadEvents(r io.Reader) (*Recording, error) {
	var in eventsFile
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("obs: events: %w", err)
	}
	if in.Version != eventsVersion {
		return nil, fmt.Errorf("obs: events: unknown version %q", in.Version)
	}
	rec := &Recording{Events: make([]Event, 0, len(in.Events))}
	if in.StartNs != 0 {
		rec.Start = time.Unix(0, in.StartNs)
	}
	for i, ej := range in.Events {
		ev := Event{Track: ej.Track, Name: ej.Name, At: time.Unix(0, ej.AtNs), ID: ej.ID}
		switch ej.Kind {
		case "B":
			ev.Kind = KindBegin
		case "E":
			ev.Kind = KindEnd
		case "I":
			ev.Kind = KindInstant
		default:
			return nil, fmt.Errorf("obs: events: event %d has unknown kind %q", i, ej.Kind)
		}
		for _, a := range ej.Args {
			ev.Args = append(ev.Args, Arg{Key: a.K, Val: a.V})
		}
		rec.Events = append(rec.Events, ev)
	}
	return rec, nil
}

// Merge combines recordings from different tracers (typically different
// processes) into one. Span IDs are remapped into disjoint ranges — every
// tracer numbers from 1, so concatenating raw events would cross-pair one
// side's Begin with the other's End — and events are stably sorted by
// time. Flow stitching is unaffected: ArgFlow values are matched by
// string, not by event ID. Nil recordings are skipped; Start is the
// earliest nonzero Start.
func Merge(recs ...*Recording) *Recording {
	out := &Recording{}
	var offset uint64
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		if !rec.Start.IsZero() && (out.Start.IsZero() || rec.Start.Before(out.Start)) {
			out.Start = rec.Start
		}
		var maxID uint64
		for _, ev := range rec.Events {
			if ev.ID > maxID {
				maxID = ev.ID
			}
			if ev.ID != 0 {
				ev.ID += offset
			}
			out.Events = append(out.Events, ev)
		}
		offset += maxID
	}
	sort.SliceStable(out.Events, func(i, j int) bool {
		return out.Events[i].At.Before(out.Events[j].At)
	})
	return out
}

// PrefixTracks returns a copy of rec with every track name prefixed —
// applied to the server recording before Merge so its tracks ("server",
// conn tracks) group visibly apart from the client's in the merged view
// and can never collide with a same-named client track.
func PrefixTracks(rec *Recording, prefix string) *Recording {
	out := &Recording{Start: rec.Start, Events: make([]Event, len(rec.Events))}
	copy(out.Events, rec.Events)
	for i := range out.Events {
		out.Events[i].Track = prefix + out.Events[i].Track
	}
	return out
}

// FlowJoinCount reports how many distinct ArgFlow values appear on Begin
// events both on a track carrying prefix (a server recording passed through
// PrefixTracks before Merge) and on one without it: how many propagated
// fetch contexts the server demonstrably adopted. A flow that only crosses
// tracks inside one process does not count. The load-storm acceptance gate
// requires at least one.
func FlowJoinCount(rec *Recording, prefix string) int {
	type sides struct{ client, server bool }
	flows := make(map[string]*sides)
	for _, ev := range rec.Events {
		if ev.Kind != KindBegin {
			continue
		}
		flow := ev.Arg(ArgFlow)
		if flow == "" {
			continue
		}
		s := flows[flow]
		if s == nil {
			s = &sides{}
			flows[flow] = s
		}
		if strings.HasPrefix(ev.Track, prefix) {
			s.server = true
		} else {
			s.client = true
		}
	}
	n := 0
	for _, s := range flows {
		if s.client && s.server {
			n++
		}
	}
	return n
}
