package sim

import "testing"

// TestZeroAllocSteadyState pins the engine's allocation budget: once the
// event free list is warm, a schedule+dispatch cycle performs zero heap
// allocations. A regression here (a new closure, a boxed interface, a
// Timer escaping) fails the build, not just a benchmark dashboard.
func TestZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i)*Microsecond, fn)
	}
	e.Run(e.Now() + Millisecond) // warm the queue and free list
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(Microsecond, fn)
		e.Run(e.Now() + Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("After+dispatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestZeroAllocTimerChurn pins schedule+cancel: Timers are values and
// cancelled events return straight to the free list.
func TestZeroAllocTimerChurn(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		tm := e.After(Second, fn)
		tm.Stop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm := e.After(Second, fn)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("After+Stop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTimerStopRemovesImmediately verifies the new Stop semantics: the
// cancelled event leaves the schedule at once instead of lingering as a
// nil-fn placeholder until popped.
func TestTimerStopRemovesImmediately(t *testing.T) {
	e := NewEngine(1)
	var tms []Timer
	for i := 1; i <= 100; i++ {
		tms = append(tms, e.After(Time(i)*Microsecond, func() {}))
	}
	if got := e.Pending(); got != 100 {
		t.Fatalf("pending = %d, want 100", got)
	}
	for i, tm := range tms {
		if i%2 == 0 {
			tm.Stop()
		}
	}
	if got := e.Pending(); got != 50 {
		t.Fatalf("pending after stopping half = %d, want 50", got)
	}
	e.Run(Second)
	if got := e.Pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
}

// TestStaleTimerAfterRecycle proves the generation guard: once an event
// fires and its struct is recycled into a new schedule, the old Timer
// must be inert — Stop returns false and leaves the new event alone.
func TestStaleTimerAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	old := e.After(Microsecond, func() {})
	e.Run(Second) // fires; its event returns to the free list

	fired := false
	fresh := e.After(Microsecond, func() { fired = true }) // reuses the struct
	if old.Stop() {
		t.Fatal("stale Stop must report false")
	}
	if !fresh.Pending() {
		t.Fatal("stale Stop must not cancel the recycled event's new incarnation")
	}
	e.Run(e.Now() + Second)
	if !fired {
		t.Fatal("recycled event must still fire")
	}
}

// TestInteriorRemovalKeepsOrder stops events scattered through a large
// queue and checks the survivors still fire in exact (at, seq) order —
// interior removal must never corrupt the queue's order.
func TestInteriorRemovalKeepsOrder(t *testing.T) {
	e := NewEngine(1)
	const n = 500
	var got []int
	var tms []Timer
	for i := 0; i < n; i++ {
		i := i
		// Deliberately colliding timestamps so seq tie-breaking is exercised.
		tms = append(tms, e.At(Time(i%37)*Microsecond, func() { got = append(got, i) }))
	}
	for i, tm := range tms {
		if i%3 == 0 {
			tm.Stop()
		}
	}
	e.Run(Second)
	var want []int
	for at := 0; at < 37; at++ {
		for i := 0; i < n; i++ {
			if i%3 != 0 && i%37 == at {
				want = append(want, i)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order diverged at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestTimerPending covers the Timer.Pending accessor through the
// schedule → fire and schedule → stop lifecycles.
func TestTimerPending(t *testing.T) {
	e := NewEngine(1)
	tm := e.After(Microsecond, func() {})
	if !tm.Pending() {
		t.Fatal("scheduled timer must be pending")
	}
	e.Run(Second)
	if tm.Pending() {
		t.Fatal("fired timer must not be pending")
	}
	tm2 := e.After(Microsecond, func() {})
	tm2.Stop()
	if tm2.Pending() {
		t.Fatal("stopped timer must not be pending")
	}
}
