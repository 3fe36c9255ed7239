// Package trace provides a lightweight, allocation-bounded event recorder
// for debugging transport behaviour: flow lifecycle events, retransmission
// decisions, drops, and timeouts can be logged into a fixed-size ring and
// dumped as text.
//
// Tracing is opt-in and designed to be cheap when enabled and free when
// disabled (a nil *Ring no-ops every method), so instrumented code can
// keep unconditional trace calls.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flexpass/internal/sim"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	FlowStart Kind = iota
	FlowDone
	Drop
	Mark
	Retransmit
	Timeout
	CreditWaste
	CreditIssue
	CreditUse
	WindowCut
	Custom
)

var kindNames = [...]string{
	"flow-start", "flow-done", "drop", "mark", "retx", "timeout",
	"credit-waste", "credit-issue", "credit-use", "window-cut", "custom",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded occurrence.
type Event struct {
	At   sim.Time
	Kind Kind
	Flow uint64
	Seq  int64
	Note string
}

// Ring is a fixed-capacity event recorder. The zero value and nil are
// both valid (nil records nothing).
type Ring struct {
	eng     *sim.Engine
	events  []Event
	next    int
	wrapped bool
	dropped int64
}

// NewRing builds a recorder holding the last cap events.
func NewRing(eng *sim.Engine, capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{eng: eng, events: make([]Event, 0, capacity)}
}

// Add records an event.
func (r *Ring) Add(kind Kind, flow uint64, seq int64, note string) {
	if r == nil {
		return
	}
	ev := Event{Kind: kind, Flow: flow, Seq: seq, Note: note}
	if r.eng != nil {
		ev.At = r.eng.Now()
	}
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, ev)
		return
	}
	r.events[r.next] = ev
	r.next = (r.next + 1) % cap(r.events)
	r.wrapped = true
	r.dropped++
}

// Addf records a formatted event. Prefer Add on hot paths.
func (r *Ring) Addf(kind Kind, flow uint64, seq int64, format string, args ...any) {
	if r == nil {
		return
	}
	r.Add(kind, flow, seq, fmt.Sprintf(format, args...))
}

// Len reports how many events are held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Overwritten reports how many old events were displaced.
func (r *Ring) Overwritten() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the held events in chronological order.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	if !r.wrapped {
		out := make([]Event, len(r.events))
		copy(out, r.events)
		return out
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Filter returns held events matching the predicate, in order.
func (r *Ring) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// Dump writes the events as text, one per line.
func (r *Ring) Dump(w io.Writer) error {
	for _, ev := range r.Events() {
		if _, err := fmt.Fprintf(w, "%12v %-12s flow=%d seq=%d %s\n",
			ev.At, ev.Kind, ev.Flow, ev.Seq, ev.Note); err != nil {
			return err
		}
	}
	return nil
}

// String renders the whole ring (tests, small rings only).
func (r *Ring) String() string {
	var b strings.Builder
	_ = r.Dump(&b)
	return b.String()
}

// Merge combines several rings into one read-only ring: events are
// concatenated and stably sorted by time (ties keep ring order, so pass
// rings in shard order for a deterministic result), and the displaced
// counts are summed. Sharded runs merge their per-shard rings with this
// after the fabric drains; nil rings are skipped. A single ring is
// returned as is.
func Merge(rings ...*Ring) *Ring {
	if len(rings) == 1 {
		return rings[0]
	}
	var events []Event
	var dropped int64
	for _, r := range rings {
		if r == nil {
			continue
		}
		events = append(events, r.Events()...)
		dropped += r.Overwritten()
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Ring{events: events, dropped: dropped}
}
