package shard

import (
	"strings"
	"sync"
	"testing"

	"flexpass/internal/netem"
	"flexpass/internal/sim"
)

// sink records every delivery with its arrival instant. It belongs to
// one shard's engine, so appends are single-goroutine during the run.
type sink struct {
	eng *sim.Engine
	log []delivery
}

type delivery struct {
	at   sim.Time
	flow uint64
	seq  uint32
}

func (s *sink) NodeID() netem.NodeID { return 0 }
func (s *sink) Receive(pkt *netem.Packet) {
	s.log = append(s.log, delivery{at: s.eng.Now(), flow: pkt.Flow, seq: pkt.Seq})
}

const la = 10 * sim.Microsecond // test lookahead

func newRuntime(t *testing.T, n int) (*Runtime, []*sim.Engine) {
	t.Helper()
	engs := make([]*sim.Engine, n)
	for i := range engs {
		engs[i] = sim.NewShardEngine(42, i)
	}
	return New(engs, la), engs
}

// TestHandoffDeterministicMerge drives two source shards into one sink
// shard with colliding timestamps: the injection order must follow the
// documented (time, source shard, edge sequence) merge order, and two
// identical runs must observe the identical delivery log.
func TestHandoffDeterministicMerge(t *testing.T) {
	run := func() []delivery {
		rt, engs := newRuntime(t, 3)
		sk := &sink{eng: engs[0]}
		e1 := rt.Connect(1, 0)
		e2 := rt.Connect(2, 0)
		// Both senders emit at the same instants; every arrival lands
		// exactly one lookahead later, including exact ties between the
		// two source shards.
		for src, edge := range map[int]*Edge{1: e1, 2: e2} {
			src, edge := src, edge
			eng := engs[src]
			for i := 0; i < 40; i++ {
				i := i
				at := sim.Time(i) * sim.Microsecond
				eng.At(at, func() {
					edge.Deliver(eng.Now()+la+sim.Nanosecond, &netem.Packet{
						Flow: uint64(src), Seq: uint32(i),
					}, sk)
				})
			}
		}
		rt.Run(100 * sim.Microsecond)
		return sk.log
	}
	got := run()
	if len(got) != 80 {
		t.Fatalf("delivered %d of 80", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.at < a.at {
			t.Fatalf("deliveries out of time order at %d: %+v then %+v", i, a, b)
		}
		// Exact ties must resolve by source shard id (flow carries it).
		if b.at == a.at && b.flow < a.flow {
			t.Fatalf("tie at %v resolved against shard order: %+v then %+v", b.at, a, b)
		}
	}
	again := run()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("run-twice divergence at %d: %+v vs %+v", i, got[i], again[i])
		}
	}
}

// TestHorizonMonotonic polls the published horizon from a second
// goroutine while the fabric runs (the live-status access pattern, so
// this doubles as the -race check on the progress cells) and asserts it
// only moves forward, ending at `until`.
func TestHorizonMonotonic(t *testing.T) {
	rt, engs := newRuntime(t, 2)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	for i := 0; i < 2000; i++ {
		i := i
		engs[0].At(sim.Time(i)*100*sim.Nanosecond, func() {
			e.Deliver(engs[0].Now()+la+1, &netem.Packet{Seq: uint32(i)}, sk)
		})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := rt.HorizonPs()
			if h < last {
				t.Errorf("horizon moved backwards: %d after %d", h, last)
				return
			}
			last = h
			_ = rt.EventsProcessed()
		}
	}()
	until := 400 * sim.Microsecond
	rt.Run(until)
	close(stop)
	wg.Wait()
	if got := rt.HorizonPs(); got != int64(until) {
		t.Fatalf("final horizon %d != until %d", got, int64(until))
	}
	if rt.EventsProcessed() == 0 {
		t.Fatal("no events processed")
	}
	if len(sk.log) != 2000 {
		t.Fatalf("delivered %d of 2000", len(sk.log))
	}
}

// TestPanicPropagation: a panic inside one shard's window must tear the
// round protocol down on every shard (no deadlock on the hand-off
// channels) and re-raise from Run with the worker's message.
func TestPanicPropagation(t *testing.T) {
	rt, engs := newRuntime(t, 3)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	rt.Connect(1, 2)
	rt.Connect(2, 0)
	// Keep traffic flowing so the healthy shards are mid-protocol when
	// shard 2 dies.
	for i := 0; i < 100; i++ {
		i := i
		engs[0].At(sim.Time(i)*sim.Microsecond, func() {
			e.Deliver(engs[0].Now()+la+1, &netem.Packet{Seq: uint32(i)}, sk)
		})
	}
	engs[2].At(35*sim.Microsecond, func() { panic("boom in shard 2") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "boom in shard 2") {
			t.Fatalf("panic lost the worker message: %v", r)
		}
	}()
	rt.Run(200 * sim.Microsecond)
}

// TestCausalityPanic: delivering an item inside the lookahead window —
// an arrival the destination shard may already have simulated past —
// must be caught by the injection guard, not silently reordered.
func TestCausalityPanic(t *testing.T) {
	rt, engs := newRuntime(t, 2)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	engs[0].At(sim.Microsecond, func() {
		// Claimed arrival barely after send: violates at > send + la.
		e.Deliver(engs[0].Now()+sim.Nanosecond, &netem.Packet{}, sk)
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no causality panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "causality") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	rt.Run(100 * sim.Microsecond)
}

// TestDegenerateRuns: a zero-length run and an edgeless single shard
// must both terminate and publish their horizons.
func TestDegenerateRuns(t *testing.T) {
	rt, _ := newRuntime(t, 2)
	rt.Connect(0, 1)
	rt.Run(0)
	if got := rt.HorizonPs(); got != 0 {
		t.Fatalf("zero-run horizon %d", got)
	}

	solo, engs := newRuntime(t, 1)
	fired := false
	engs[0].At(sim.Microsecond, func() { fired = true })
	solo.Run(5 * sim.Microsecond)
	if !fired || solo.HorizonPs() != int64(5*sim.Microsecond) {
		t.Fatalf("single-shard run: fired=%v horizon=%d", fired, solo.HorizonPs())
	}
}

// TestUnsentFinalBatch: deliveries whose arrival falls past `until`
// stay pending or unsent — exactly like events left in a single
// engine's queue at cutoff — without wedging the final rounds.
func TestUnsentFinalBatch(t *testing.T) {
	rt, engs := newRuntime(t, 2)
	sk := &sink{eng: engs[1]}
	e := rt.Connect(0, 1)
	until := 50 * sim.Microsecond
	engs[0].At(until-sim.Nanosecond, func() {
		e.Deliver(engs[0].Now()+la+1, &netem.Packet{Flow: 7}, sk)
	})
	rt.Run(until)
	if len(sk.log) != 0 {
		t.Fatalf("arrival past until was delivered: %+v", sk.log)
	}
}
