package netem

import (
	"fmt"
	"testing"

	"flexpass/internal/sim"
	"flexpass/internal/units"
)

func TestSwitchRoutesToDestination(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	dstA := &sink{id: 1, eng: eng}
	dstB := &sink{id: 2, eng: eng}
	mk := func(peer Node) *Port {
		p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		p.Connect(peer)
		sw.AddPort(p)
		return p
	}
	pa, pb := mk(dstA), mk(dstB)
	sw.AddRoute(1, pa)
	sw.AddRoute(2, pb)
	sw.Receive(&Packet{Src: 5, Dst: 1, Size: 100})
	sw.Receive(&Packet{Src: 5, Dst: 2, Size: 100})
	sw.Receive(&Packet{Src: 5, Dst: 2, Size: 100})
	eng.Run(sim.Second)
	if len(dstA.arrived) != 1 || len(dstB.arrived) != 2 {
		t.Fatalf("arrivals = %d,%d want 1,2", len(dstA.arrived), len(dstB.arrived))
	}
}

func TestSwitchECMPSpreadsFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	dst := &sink{id: 1, eng: eng}
	var ports []*Port
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		// Count at egress via a per-port sink that forwards to dst.
		p.Connect(nodeFunc(func(pkt *Packet) {
			counts[i]++
			dst.Receive(pkt)
		}))
		sw.AddPort(p)
		ports = append(ports, p)
	}
	sw.AddRoute(1, ports...)
	for f := uint64(0); f < 400; f++ {
		sw.Receive(&Packet{Src: 5, Dst: 1, Flow: f, Size: 100})
	}
	eng.Run(sim.Second)
	for i, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("ECMP imbalance: port %d got %d of 400", i, c)
		}
	}
}

func TestSwitchECMPSamePathPerFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	chosen := make(map[uint64]map[int]bool)
	var ports []*Port
	for i := 0; i < 4; i++ {
		i := i
		p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
		p.Connect(nodeFunc(func(pkt *Packet) {
			m := chosen[pkt.Flow]
			if m == nil {
				m = make(map[int]bool)
				chosen[pkt.Flow] = m
			}
			m[i] = true
		}))
		sw.AddPort(p)
		ports = append(ports, p)
	}
	sw.AddRoute(1, ports...)
	for f := uint64(0); f < 50; f++ {
		for k := 0; k < 5; k++ {
			sw.Receive(&Packet{Src: 5, Dst: 1, Flow: f, Size: 100})
		}
	}
	eng.Run(sim.Second)
	for f, m := range chosen {
		if len(m) != 1 {
			t.Fatalf("flow %d used %d ports, want 1", f, len(m))
		}
	}
}

func TestECMPHashSymmetric(t *testing.T) {
	for f := uint64(0); f < 100; f++ {
		a := ecmpHash(3, 7, f)
		b := ecmpHash(7, 3, f)
		if a != b {
			t.Fatalf("hash not symmetric for flow %d", f)
		}
	}
}

// TestECMPHashPinned pins ecmpHash output for a few (src, dst, flow)
// triples, so ECMP path choice — and with it every multi-path result —
// cannot drift when the hash is reworked.
func TestECMPHashPinned(t *testing.T) {
	cases := []struct {
		src, dst NodeID
		flow     uint64
		want     uint64
	}{
		{0, 0, 0, 0x81d23fd7003c2305},
		{0, 1, 0, 0x32d42a0eed270ac4},
		{3, 7, 42, 0x32a823a6297ebd8b},
		{7, 3, 42, 0x32a823a6297ebd8b},
		{191, 200, 1, 0x94ec5adeb41898b3},
		{12, 5, 1<<40 + 17, 0x7a72b3a6e7239fb2},
		{2147483647, 1, ^uint64(0), 0xbe8906497680a838},
		{-1, 5, 9, 0xc3b216fe1f66a70d},
	}
	for _, c := range cases {
		if got := ecmpHash(c.src, c.dst, c.flow); got != c.want {
			t.Errorf("ecmpHash(%d, %d, %d) = %#x, want %#x", c.src, c.dst, c.flow, got, c.want)
		}
	}
}

func TestHostSendAppliesDelayAndSrc(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := NewPort(eng, "nic", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	sk := &sink{id: 50, eng: eng}
	nic.Connect(sk)
	h := NewHost(eng, 7, "h7", nic, sim.Microsecond)
	h.Send(&Packet{Dst: 50, Size: 1250}) // 1us host delay + 1us tx
	eng.Run(sim.Second)
	if len(sk.arrived) != 1 {
		t.Fatal("packet not delivered")
	}
	if sk.arrived[0].Src != 7 {
		t.Fatalf("Src = %d, want 7", sk.arrived[0].Src)
	}
	if sk.at[0] != 2*sim.Microsecond {
		t.Fatalf("arrival at %v, want 2us", sk.at[0])
	}
}

func TestHostHandlerReceives(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := NewPort(eng, "nic", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	h := NewHost(eng, 7, "h7", nic, 0)
	var got *Packet
	h.SetHandler(func(p *Packet) { got = p })
	h.Receive(&Packet{Flow: 42})
	if got == nil || got.Flow != 42 {
		t.Fatal("handler not invoked")
	}
	if h.RxPackets != 1 {
		t.Fatalf("RxPackets = %d", h.RxPackets)
	}
}

// nodeFunc adapts a function to the Node interface for tests.
type nodeFunc func(*Packet)

func (f nodeFunc) NodeID() NodeID    { return -1 }
func (f nodeFunc) Receive(p *Packet) { f(p) }

// TestSwitchPanicsOnMissingRoute covers the route table's edges: an
// empty table, a hole below the largest routed ID, an ID past the table,
// and a negative ID all panic with the missing-route message.
func TestSwitchPanicsOnMissingRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	empty := NewSwitch(eng, 10, "empty", nil)
	sw := NewSwitch(eng, 11, "sw", nil)
	p := NewPort(eng, "p", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	p.Connect(&sink{id: 3, eng: eng})
	sw.AddPort(p)
	sw.AddRoute(3, p)
	cases := []struct {
		sw  *Switch
		dst NodeID
	}{{empty, 42}, {sw, 2}, {sw, 4}, {sw, -1}}
	for _, c := range cases {
		func() {
			defer func() {
				want := fmt.Sprintf("netem: switch %s has no route to node %d", c.sw.Name(), c.dst)
				if r := recover(); r != want {
					t.Errorf("missing route must panic (config error, not runtime condition): dst %d: got %v, want %q", c.dst, r, want)
				}
			}()
			c.sw.Receive(&Packet{Dst: c.dst, Size: 100})
		}()
	}
}

func TestHostWithoutHandlerDropsSilently(t *testing.T) {
	eng := sim.NewEngine(1)
	nic := NewPort(eng, "nic", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	h := NewHost(eng, 7, "h7", nic, 0)
	h.Receive(&Packet{Flow: 1}) // must not panic
	if h.RxPackets != 1 {
		t.Fatalf("RxPackets = %d", h.RxPackets)
	}
}

func TestECMPRouteGrowsByAddRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewSwitch(eng, 10, "sw", nil)
	sk := &sink{id: 1, eng: eng}
	p1 := NewPort(eng, "p1", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	p2 := NewPort(eng, "p2", 10*units.Gbps, 0, PortConfig{Queues: []QueueConfig{{}}}, nil)
	p1.Connect(sk)
	p2.Connect(sk)
	sw.AddRoute(1, p1)
	sw.AddRoute(1, p2) // appends to the ECMP set
	seen := map[string]bool{}
	for f := uint64(0); f < 64; f++ {
		sw.Receive(&Packet{Dst: 1, Flow: f, Size: 100})
	}
	eng.Run(sim.Second)
	if p1.Stats().TxPackets == 0 || p2.Stats().TxPackets == 0 {
		t.Fatal("appended ECMP member unused")
	}
	_ = seen
}
