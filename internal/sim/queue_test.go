package sim

import (
	"math/rand"
	"testing"
)

// sched is the scheduling surface the differential driver exercises.
// engSched adapts *Engine to it; refSched is a naive reference that
// dispatches by a linear scan for the least (at, seq).
type sched interface {
	Now() Time
	At(t Time, fn func()) (stop func() bool)
	Every(period Time, fn func()) (stop func())
	Run(until Time)
	Pending() int
}

type engSched struct{ e *Engine }

func (s engSched) Now() Time    { return s.e.Now() }
func (s engSched) Run(t Time)   { s.e.Run(t) }
func (s engSched) Pending() int { return s.e.Pending() }

func (s engSched) At(t Time, fn func()) func() bool {
	tm := s.e.At(t, fn)
	return tm.Stop
}

func (s engSched) Every(period Time, fn func()) func() {
	return s.e.Every(period, fn).Stop
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	live bool
}

type refSched struct {
	now Time
	seq uint64
	q   []*refEvent
}

func (r *refSched) Now() Time    { return r.now }
func (r *refSched) Pending() int { return len(r.q) }

func (r *refSched) At(t Time, fn func()) func() bool {
	if t < r.now {
		panic("ref: scheduling in the past")
	}
	ev := &refEvent{at: t, seq: r.seq, fn: fn, live: true}
	r.seq++
	r.q = append(r.q, ev)
	return func() bool {
		if !ev.live {
			return false
		}
		r.take(ev)
		return true
	}
}

func (r *refSched) take(ev *refEvent) {
	ev.live = false
	for i, x := range r.q {
		if x == ev {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return
		}
	}
}

// Every mirrors Ticker: the next tick is scheduled after fn returns.
func (r *refSched) Every(period Time, fn func()) func() {
	stopped := false
	var stop func() bool
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		stop = r.At(r.now+period, tick)
	}
	stop = r.At(r.now+period, tick)
	return func() {
		stopped = true
		stop()
	}
}

func (r *refSched) Run(until Time) {
	for {
		var min *refEvent
		for _, ev := range r.q {
			if min == nil || ev.at < min.at || ev.at == min.at && ev.seq < min.seq {
				min = ev
			}
		}
		if min == nil || min.at > until {
			break
		}
		r.take(min)
		r.now = min.at
		min.fn()
	}
	if r.now < until {
		r.now = until
	}
}

// world is one side of the differential run: a scheduler plus the log of
// everything observable through it, in order.
type world struct {
	s     sched
	log   []int64
	stops []func() bool // by event id
	ticks []func()      // ticker stops; nil once stopped
}

// maxEvents bounds the follow-ups callbacks schedule, so a fuzz input
// cannot grow the run without limit.
const maxEvents = 4000

func (w *world) schedule(at Time) {
	id := len(w.stops)
	w.stops = append(w.stops, nil)
	w.stops[id] = w.s.At(at, func() { w.fire(id) })
}

// fire logs a dispatch and reacts from inside it: same-instant follow-ups
// join the instant being drained, and stops hit events queued at that
// instant as well as later ones.
func (w *world) fire(id int) {
	w.log = append(w.log, int64(id))
	if len(w.stops) >= maxEvents {
		return
	}
	now := w.s.Now()
	switch id % 6 {
	case 0:
		w.schedule(now)
	case 1:
		w.schedule(now + Time(id%7)*Nanosecond)
	case 2:
		w.stopEvent(len(w.stops) - 1)
	case 3:
		w.schedule(now)
		w.schedule(now)
		w.stopEvent(len(w.stops) - 2)
	case 4:
		w.stopEvent(id * 7919 % len(w.stops))
	}
}

func (w *world) stopEvent(id int) {
	if w.stops[id]() {
		w.log = append(w.log, -1-int64(id))
	}
}

// spread maps a byte to a delay from 0 up to 15<<45 ps, so keys land in
// every bucket range the engine uses.
func spread(b byte) Time { return Time(b&15) << (b >> 4 * 3) }

// apply runs one scripted operation on w.
func (w *world) apply(op, arg byte) {
	now := w.s.Now()
	switch op % 8 {
	case 0, 1, 2:
		w.schedule(now + spread(arg))
	case 3:
		w.schedule(now)
	case 4:
		if len(w.stops) > 0 {
			w.stopEvent(int(arg) % len(w.stops))
		}
	case 5:
		if len(w.ticks) < 4 {
			k := len(w.ticks)
			w.ticks = append(w.ticks, w.s.Every((Time(arg&15)+1)<<16, func() {
				w.log = append(w.log, 1<<40+int64(k))
			}))
		}
	case 6:
		if n := len(w.ticks); n > 0 && w.ticks[int(arg)%n] != nil {
			w.ticks[int(arg)%n]()
			w.ticks[int(arg)%n] = nil
		}
	case 7:
		// Windows stay short (at most 15<<21 ps) so tickers fire a
		// bounded number of times per window.
		w.s.Run(now + Time(arg&15)<<(arg>>4%8*3))
	}
}

// runDifferential interprets ops as (op, arg) byte pairs and applies each
// to the engine and the reference, requiring identical dispatch logs,
// clocks and exact Pending counts after every step, then after a drain.
func runDifferential(t testing.TB, ops []byte) {
	eng := &world{s: engSched{NewEngine(1)}}
	ref := &world{s: &refSched{}}
	check := func(step int) {
		t.Helper()
		if len(eng.log) != len(ref.log) {
			t.Fatalf("step %d: engine logged %d entries, reference %d", step, len(eng.log), len(ref.log))
		}
		for i := range ref.log {
			if eng.log[i] != ref.log[i] {
				t.Fatalf("step %d: log diverges at %d: engine %d, reference %d", step, i, eng.log[i], ref.log[i])
			}
		}
		if e, r := eng.s.Now(), ref.s.Now(); e != r {
			t.Fatalf("step %d: engine now %v, reference %v", step, e, r)
		}
		if e, r := eng.s.Pending(), ref.s.Pending(); e != r {
			t.Fatalf("step %d: engine Pending %d, reference %d", step, e, r)
		}
	}
	for i := 0; i+1 < len(ops); i += 2 {
		eng.apply(ops[i], ops[i+1])
		ref.apply(ops[i], ops[i+1])
		check(i / 2)
	}
	for _, w := range []*world{eng, ref} {
		for _, stop := range w.ticks {
			if stop != nil {
				stop()
			}
		}
		w.s.Run(w.s.Now() + 1<<60)
	}
	check(len(ops) / 2)
	if n := eng.s.Pending(); n != 0 {
		t.Fatalf("drained engine still has %d pending", n)
	}
}

// TestQueueMatchesReference drives random scripts of At/After, Timer.Stop,
// Every tickers and Run(until) windows through the engine and the naive
// (at, seq) reference.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*(50+rng.Intn(250)))
		rng.Read(ops)
		runDifferential(t, ops)
	}
}

func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0x35, 3, 0, 7, 0x21, 4, 1, 5, 3, 7, 0x7f, 6, 0})
	f.Add([]byte{2, 0xf1, 1, 0x80, 3, 0, 3, 0, 4, 2, 7, 0xff, 0, 0x12, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runDifferential(t, ops)
	})
}

// TestRunWindowKeepsQueueBehindUntil pins the Run(until) rule: Run must not
// advance the queue to an event beyond until, because a sharded window
// schedules arrivals between until and that event once Run returns.
func TestRunWindowKeepsQueueBehindUntil(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	e.At(10, rec)
	e.Run(5)
	e.At(7, rec)
	e.Run(20)
	if len(got) != 2 || got[0] != 7 || got[1] != 10 {
		t.Fatalf("fired at %v, want [7 10]", got)
	}
}
