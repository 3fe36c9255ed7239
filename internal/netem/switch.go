package netem

import (
	"fmt"

	"flexpass/internal/sim"
)

// Switch forwards packets to egress ports using destination-based routes
// with ECMP. All egress ports of a switch share its buffer pool.
type Switch struct {
	id     NodeID
	name   string
	eng    *sim.Engine
	ports  []*Port
	routes [][]*Port // ECMP egress choices, indexed by destination NodeID
	shared *SharedBuffer

	// RxPackets counts packets entering the switch.
	RxPackets int64
}

// NewSwitch creates a switch with the given shared buffer (may be nil for
// an output-queued switch with per-queue caps only).
func NewSwitch(eng *sim.Engine, id NodeID, name string, shared *SharedBuffer) *Switch {
	return &Switch{
		id:     id,
		name:   name,
		eng:    eng,
		shared: shared,
	}
}

// NodeID implements Node.
func (s *Switch) NodeID() NodeID { return s.id }

// Name returns the switch's label.
func (s *Switch) Name() string { return s.name }

// Shared returns the switch's buffer pool.
func (s *Switch) Shared() *SharedBuffer { return s.shared }

// AddPort registers an egress port with the switch.
func (s *Switch) AddPort(p *Port) {
	p.SetOwner(s.id)
	s.ports = append(s.ports, p)
}

// Ports returns the switch's egress ports in registration order.
func (s *Switch) Ports() []*Port { return s.ports }

// AddRoute appends egress choices for dst. Calling it repeatedly grows the
// ECMP set; the order of additions is part of the deterministic config.
// Node IDs are dense (Network.AllocID), so the table is a slice that grows
// to the largest destination routed.
func (s *Switch) AddRoute(dst NodeID, ports ...*Port) {
	if n := int(dst) + 1; n > len(s.routes) {
		s.routes = append(s.routes, make([][]*Port, n-len(s.routes))...)
	}
	s.routes[dst] = append(s.routes[dst], ports...)
}

// Receive implements Node: route and enqueue.
func (s *Switch) Receive(pkt *Packet) {
	s.RxPackets++
	var choices []*Port
	if uint(pkt.Dst) < uint(len(s.routes)) {
		choices = s.routes[pkt.Dst]
	}
	switch len(choices) {
	case 0:
		panic(fmt.Sprintf("netem: switch %s has no route to node %d", s.name, pkt.Dst))
	case 1:
		choices[0].Send(pkt)
	default:
		idx := ecmpHash(pkt.Src, pkt.Dst, pkt.Flow) % uint64(len(choices))
		choices[idx].Send(pkt)
	}
}

// ecmpHash is a symmetric flow hash: it maps a flow and its reverse
// direction (ACKs, credits) to the same value, which the paper's ECMP
// configuration ("symmetric hash") requires so that ExpressPass credits and
// data traverse the same links in opposite directions.
func ecmpHash(src, dst NodeID, flow uint64) uint64 {
	lo, hi := src, dst
	if lo > hi {
		lo, hi = hi, lo
	}
	h := fnvMix(fnvOffset, uint64(uint32(lo)))
	h = fnvMix(h, uint64(uint32(hi)))
	return fnvMix(h, flow)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds the eight bytes of v, low byte first, into the FNV-1a
// state h.
func fnvMix(h, v uint64) uint64 {
	h = (h ^ uint64(uint8(v))) * fnvPrime
	h = (h ^ uint64(uint8(v>>8))) * fnvPrime
	h = (h ^ uint64(uint8(v>>16))) * fnvPrime
	h = (h ^ uint64(uint8(v>>24))) * fnvPrime
	h = (h ^ uint64(uint8(v>>32))) * fnvPrime
	h = (h ^ uint64(uint8(v>>40))) * fnvPrime
	h = (h ^ uint64(uint8(v>>48))) * fnvPrime
	return (h ^ v>>56) * fnvPrime
}
