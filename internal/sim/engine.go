// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is an integer number of picoseconds. Events scheduled for the same
// instant fire in the order they were scheduled, which makes every run with
// the same inputs bit-for-bit reproducible.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Time is a simulated instant, in picoseconds since the start of the run.
type Time int64

// Common durations expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// event is one scheduled callback. Events are owned by the engine and
// recycled through a free list; gen distinguishes incarnations so a stale
// Timer for a recycled event cannot cancel its successor.
type event struct {
	at   Time
	seq  uint64 // insertion order, breaks ties deterministically
	fn   func()
	gen  uint64
	idx  int32 // position within its queue bucket
	bkt  uint8 // queue bucket holding the event
	comp uint8 // Component that scheduled the event (attribution only)
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid and Stop on it reports false.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Stop cancels the timer, removing the event from the schedule
// immediately (it no longer counts toward Engine.Pending). It reports
// whether the event had not yet fired and had not already been stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	ev := t.ev
	t.ev = nil
	t.eng.remove(ev)
	t.eng.recycle(ev)
	return true
}

// Pending reports whether the event is still scheduled.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	free    []*event // recycled events
	rng     *rand.Rand
	stopped bool

	// The schedule: a monotone radix queue over (at, seq).
	last    Time         // at of the last minimum taken out; no queued at is smaller
	buckets [64][]*event // bucket b > 0: events whose at first differs from last at bit b-1
	head    int          // buckets[0] is drained from head, in (at, seq) order
	used    uint64       // bit b set while buckets[b] (b > 0) is non-empty
	queued  int          // live scheduled events

	// Component attribution. curComp labels whoever is currently
	// scheduling: events stamped in At inherit it, and Run restores it
	// from the dispatched event, so a callback's own scheduling is
	// attributed to the component that scheduled the callback. This is
	// pure metadata — (at, seq) ordering, and therefore simulation
	// behaviour, never depends on it.
	curComp   Component
	compNames []string

	// profile, when set, observes every dispatched event's component and
	// wall-clock duration. Nil keeps the dispatch loop on the unprofiled
	// fast path (no clock reads).
	profile func(Component, time.Duration)

	// watch, when set, receives periodic progress publications and is
	// polled for aborts (see Watch). Nil keeps the dispatch loop on the
	// unobserved fast path.
	watch *Watch

	// Processed counts events dispatched so far (for perf reporting).
	Processed uint64
}

// Component identifies who scheduled an event, for profiling attribution.
// Component 0 is the generic "engine" label every engine starts with.
type Component uint8

// NewEngine returns an engine whose clock starts at zero and whose random
// stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), compNames: []string{"engine"}}
}

// Component interns name and returns its label. Repeated calls with the
// same name return the same Component; registering more than 255 distinct
// names panics (labels are deliberately one byte so they ride in event
// struct padding). Interning is a setup-time operation — the linear scan
// never runs on the dispatch path.
func (e *Engine) Component(name string) Component {
	for i, n := range e.compNames {
		if n == name {
			return Component(i)
		}
	}
	if len(e.compNames) > 255 {
		panic("sim: more than 256 components registered")
	}
	e.compNames = append(e.compNames, name)
	return Component(len(e.compNames) - 1)
}

// ComponentNames returns the interned component names indexed by
// Component value. The returned slice is the engine's own; don't mutate.
func (e *Engine) ComponentNames() []string { return e.compNames }

// SetComponent switches the current scheduling attribution and returns
// the previous label, so boundaries stamp with
//
//	prev := eng.SetComponent(c)
//	... schedule ...
//	eng.SetComponent(prev)
//
// Events scheduled while a component is current inherit it, as do events
// scheduled from inside their callbacks, transitively.
func (e *Engine) SetComponent(c Component) (prev Component) {
	prev = e.curComp
	e.curComp = c
	return prev
}

// SetProfile installs fn to observe every dispatched event's component
// label and wall-clock dispatch duration. Passing nil removes the hook
// and restores the unprofiled fast path. The hook must not allocate if
// the caller wants to preserve the engine's zero-alloc dispatch.
func (e *Engine) SetProfile(fn func(Component, time.Duration)) { e.profile = fn }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc takes an event from the free list, or heap-allocates when empty.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a detached event to the free list. Bumping gen
// invalidates every outstanding Timer for this incarnation.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a logic error in the caller. The queue depends on
// this precondition: the last minimum it took out never lies after now,
// so every t accepted here is at least that minimum, which is what keeps
// its radix buckets exact.
func (e *Engine) At(t Time, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.comp = uint8(e.curComp)
	e.seq++
	e.push(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the currently dispatching event completes.
func (e *Engine) Stop() { e.stopped = true }

// Ticker is a handle to a periodic event created with Every.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	tickFn  func() // pre-bound t.tick, one closure for the ticker's lifetime
	timer   Timer
	stopped bool
}

// Every schedules fn to run repeatedly, every period, starting one period
// from now. It is the engine's hook for periodic observers (telemetry
// probes, samplers): the callback runs between same-instant events without
// perturbing their relative order, so a read-only fn never changes
// simulation results. Period must be positive.
func (e *Engine) Every(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every period must be positive, got %v", period))
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tickFn = t.tick
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.timer = t.eng.After(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	t.schedule()
}

// Stop cancels the ticker; the callback will not fire again and the
// pending event is removed from the schedule immediately.
func (t *Ticker) Stop() {
	if t == nil {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

// Run dispatches events in timestamp order until the queue empties, the
// clock passes until, or Stop is called. Events scheduled exactly at until
// still run.
//
// Run never advances the queue past until: when the earliest event lies
// beyond it, Run returns without touching the buckets. A sharded window
// relies on this, because it schedules cross-shard arrivals at or after
// until once Run has returned.
func (e *Engine) Run(until Time) {
	e.stopped = false
	w := e.watch
	if w != nil {
		// A sticky abort makes every later Run a no-op dispatch-wise;
		// the clock still advances to until below, so sharded windows
		// keep their causality guarantees after a kill.
		if w.abort.Load() {
			e.stopped = true
		}
		w.publish(e.now, e.Processed)
	}
	for !e.stopped {
		next := e.peek(until)
		if next == nil {
			break
		}
		if w != nil && e.Processed&255 == 0 {
			w.publish(next.at, e.Processed)
			if w.abort.Load() {
				break
			}
		}
		e.popNow()
		e.now = next.at
		fn := next.fn
		comp := Component(next.comp)
		// Recycle before dispatch: a callback that schedules reuses this
		// event immediately, keeping the working set hot.
		e.recycle(next)
		e.Processed++
		// The dispatching component becomes current so events the callback
		// schedules inherit its attribution.
		e.curComp = comp
		if e.profile == nil {
			fn()
		} else {
			start := time.Now()
			fn()
			e.profile(comp, time.Since(start))
		}
	}
	if e.now < until {
		e.now = until
	}
	if w != nil {
		w.publish(e.now, e.Processed)
	}
}

// Pending reports the number of events still scheduled. Stopped timers are
// removed from the schedule immediately, so — unlike earlier revisions,
// which counted cancelled placeholders until they were popped — this is an
// exact live-event count.
func (e *Engine) Pending() int { return e.queued }

// The schedule is a monotone radix queue. It is exact because keys never
// go below last (see At): an event sits in bucket bits.Len64(at ^ last),
// so bucket 0 holds the events at last itself and bucket b > 0 holds those
// whose at first differs from last at bit b-1. Bucket 0 is kept sorted
// and drained from the front. When it runs dry, the lowest non-empty
// bucket is scanned for its minimum m, last becomes m, and its events
// move to strictly lower buckets, the ones at m into bucket 0. Each event
// therefore moves at most 63 times, and in practice a handful. Pop order
// — and therefore simulation behaviour — is the (at, seq) total order of
// before, never the bucket layout.

// before is the schedule's total order: time first, then insertion seq.
// It is the one place ties are broken.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *event) {
	e.queued++
	e.place(ev)
}

// place files ev in bucket bits.Len64(at ^ last).
func (e *Engine) place(ev *event) {
	b := bits.Len64(uint64(ev.at ^ e.last))
	if b == 0 {
		e.insertNow(ev)
		return
	}
	ev.bkt = uint8(b)
	ev.idx = int32(len(e.buckets[b]))
	e.buckets[b] = append(e.buckets[b], ev)
	e.used |= 1 << b
}

// insertNow places an event due at last into bucket 0 by before. A direct
// insert carries the largest seq so far and stays at the back; only a
// redistribution can place several events out of order.
func (e *Engine) insertNow(ev *event) {
	q := append(e.buckets[0], ev)
	i := len(q) - 1
	for i > e.head && before(ev, q[i-1]) {
		q[i] = q[i-1]
		q[i].idx = int32(i)
		i--
	}
	q[i] = ev
	ev.idx = int32(i)
	ev.bkt = 0
	e.buckets[0] = q
}

// peek returns the earliest scheduled event if it is due by until, and
// nil otherwise. When bucket 0 is empty it refills it from the lowest
// non-empty bucket, but only if that bucket's minimum is due: last never
// passes until.
func (e *Engine) peek(until Time) *event {
	if q := e.buckets[0]; e.head < len(q) {
		if ev := q[e.head]; ev.at <= until {
			return ev
		}
		return nil
	}
	if e.used == 0 {
		return nil
	}
	b := bits.TrailingZeros64(e.used)
	q := e.buckets[b]
	m := q[0].at
	for _, ev := range q[1:] {
		if ev.at < m {
			m = ev.at
		}
	}
	if m > until {
		return nil
	}
	e.last = m
	e.buckets[b] = q[:0]
	e.used &^= 1 << b
	for _, ev := range q {
		e.place(ev)
	}
	return e.buckets[0][0]
}

// popNow takes out the front of bucket 0, the event peek returned.
func (e *Engine) popNow() {
	e.queued--
	e.head++
	if e.head == len(e.buckets[0]) {
		e.buckets[0] = e.buckets[0][:0]
		e.head = 0
	}
}

// remove detaches a scheduled event (Timer.Stop): a swap with the last
// entry in buckets above 0, an order-preserving delete in bucket 0.
func (e *Engine) remove(ev *event) {
	e.queued--
	i := int(ev.idx)
	q := e.buckets[ev.bkt]
	n := len(q) - 1
	if ev.bkt == 0 {
		copy(q[i:], q[i+1:])
		for j := i; j < n; j++ {
			q[j].idx = int32(j)
		}
		if e.head == n {
			n, e.head = 0, 0
		}
	} else {
		if i != n {
			q[i] = q[n]
			q[i].idx = int32(i)
		}
		if n == 0 {
			e.used &^= 1 << ev.bkt
		}
	}
	e.buckets[ev.bkt] = q[:n]
}
