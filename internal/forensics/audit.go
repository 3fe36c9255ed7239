package forensics

import (
	"fmt"

	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/transport"
)

// Invariant auditors: observation-only checks scheduled on the engine
// clock (sim.Engine.Every). A check reads simulation state and emits
// violations; it must never mutate anything, so a run with auditors
// enabled is byte-identical to one without.

// Violation is one auditor finding.
type Violation struct {
	At      sim.Time
	Auditor string
	Entity  string
	Flow    uint64
	Detail  string
}

// Export converts the violation to its artifact form.
func (v Violation) Export() obs.ViolationData {
	return obs.ViolationData{
		AtPs: int64(v.At), Auditor: v.Auditor,
		Entity: v.Entity, Flow: v.Flow, Detail: v.Detail,
	}
}

func (v Violation) String() string {
	s := fmt.Sprintf("%v [%s]", v.At, v.Auditor)
	if v.Entity != "" {
		s += " " + v.Entity
	}
	if v.Flow != 0 {
		s += fmt.Sprintf(" flow=%d", v.Flow)
	}
	return s + ": " + v.Detail
}

// Check is one named invariant. Fn runs on every auditor tick; it
// reports findings through emit and must be strictly read-only.
type Check struct {
	Name string
	Fn   func(now sim.Time, emit func(entity string, flow uint64, detail string))
}

// Auditor periodically runs a set of checks.
type Auditor struct {
	eng        *sim.Engine
	every      sim.Time
	max        int
	checks     []Check
	violations []Violation
	dropped    int64
	started    bool
}

// NewAuditor builds an auditor ticking at the given period, retaining at
// most max violations (excess findings are counted, not kept).
func NewAuditor(eng *sim.Engine, every sim.Time, max int) *Auditor {
	if every <= 0 {
		every = 100 * sim.Microsecond
	}
	if max <= 0 {
		max = 1024
	}
	return &Auditor{eng: eng, every: every, max: max}
}

// Add registers a check.
func (a *Auditor) Add(c Check) {
	if a == nil || c.Fn == nil {
		return
	}
	a.checks = append(a.checks, c)
}

// Start schedules the periodic tick. Call once, before Engine.Run.
func (a *Auditor) Start() {
	if a == nil || a.started || len(a.checks) == 0 {
		return
	}
	a.started = true
	prev := a.eng.SetComponent(a.eng.Component("forensics/audit"))
	a.eng.Every(a.every, a.tick)
	a.eng.SetComponent(prev)
}

// tick runs every check once.
func (a *Auditor) tick() {
	now := a.eng.Now()
	for i := range a.checks {
		c := &a.checks[i]
		c.Fn(now, func(entity string, flow uint64, detail string) {
			if len(a.violations) >= a.max {
				a.dropped++
				return
			}
			a.violations = append(a.violations, Violation{
				At: now, Auditor: c.Name, Entity: entity, Flow: flow, Detail: detail,
			})
		})
	}
}

// Violations returns the retained findings in emission order.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// Dropped reports findings discarded over the retention cap.
func (a *Auditor) Dropped() int64 {
	if a == nil {
		return 0
	}
	return a.dropped
}

// WireAudit builds the standard auditor set for a run: credit
// conservation over the given accounting closures (routed through
// opts.WrapCreditAccountant when set — the test seam), per-switch
// shared-buffer accounting, and the flow-progress starvation watchdog.
// Returns nil when opts disables auditing (AuditEvery < 0). The caller
// must Start the result before Engine.Run.
func WireAudit(eng *sim.Engine, opts *Options, net *netem.Network,
	flows func() []*transport.Flow, issued, consumed, dropped func() int64) *Auditor {
	if opts != nil && opts.AuditEvery < 0 {
		return nil
	}
	a := NewAuditor(eng, opts.auditEvery(), opts.maxViolations())
	if opts != nil && opts.WrapCreditAccountant != nil {
		issued, consumed, dropped = opts.WrapCreditAccountant(issued, consumed, dropped)
	}
	a.Add(CreditConservation(issued, consumed, dropped))
	for _, sw := range net.Switches {
		a.Add(BufferAccounting(sw))
	}
	a.Add(ProgressWatchdog(flows, opts.starveAfter()))
	return a
}

// CreditConservation checks that credits issued ≥ consumed + dropped:
// the in-flight credit population (issued minus consumed minus dropped)
// can never be negative. The closures sample the live accounting —
// issued at receivers' pacers, consumed at senders on credit-clocked
// transmissions, dropped at the fabric's rate-limited credit queues.
// A violation means the credit accounting itself is broken (the test
// suite provokes one through Options.WrapCreditAccountant).
func CreditConservation(issued, consumed, dropped func() int64) Check {
	return Check{
		Name: "credit-conservation",
		Fn: func(now sim.Time, emit func(string, uint64, string)) {
			i, c, d := issued(), consumed(), dropped()
			if c+d > i {
				emit("", 0, fmt.Sprintf(
					"credits consumed (%d) + dropped (%d) exceed issued (%d) by %d",
					c, d, i, c+d-i))
			}
		},
	}
}

// BufferAccounting checks a switch's Choudhury–Hahne pool: the bytes the
// shared buffer reports in use must equal the summed occupancy of the
// queues drawing from it (those without a private cap). The data plane
// charges the pool at enqueue and releases at dequeue within a single
// event, so the books must balance at every tick boundary.
func BufferAccounting(sw *netem.Switch) Check {
	entity := "switch/" + sw.Name()
	return Check{
		Name: "buffer-accounting",
		Fn: func(now sim.Time, emit func(string, uint64, string)) {
			sh := sw.Shared()
			if sh == nil {
				return
			}
			var sum int64
			for _, p := range sw.Ports() {
				for qi := 0; qi < p.NumQueues(); qi++ {
					if p.QueueConfig(qi).CapBytes == 0 {
						total, _ := p.QueueBytes(qi)
						sum += total
					}
				}
			}
			if sum != sh.Used() {
				emit(entity, 0, fmt.Sprintf(
					"shared-buffer skew: queues hold %dB, pool reports %dB", sum, sh.Used()))
			}
		},
	}
}

// ProgressWatchdog checks for starvation: a started, incomplete flow
// whose receive counter has not moved for starveAfter gets flagged
// (once per stall — progress rearms the watchdog). flows is sampled
// each tick so late-arriving flows are covered; nil entries stand for
// flows that have not arrived yet.
func ProgressWatchdog(flows func() []*transport.Flow, starveAfter sim.Time) Check {
	type watch struct {
		rx      int64
		since   sim.Time
		flagged bool
	}
	seen := make(map[uint64]*watch)
	return Check{
		Name: "starvation-watchdog",
		Fn: func(now sim.Time, emit func(string, uint64, string)) {
			for _, f := range flows() {
				if f == nil {
					continue // not yet arrived
				}
				if f.Completed {
					delete(seen, f.ID)
					continue
				}
				if now < f.Start {
					continue
				}
				w := seen[f.ID]
				if w == nil {
					seen[f.ID] = &watch{rx: f.RxBytes, since: now}
					continue
				}
				if f.RxBytes != w.rx {
					w.rx = f.RxBytes
					w.since = now
					w.flagged = false
					continue
				}
				if !w.flagged && now-w.since >= starveAfter {
					w.flagged = true
					emit("", f.ID, fmt.Sprintf(
						"no progress for %v (%s flow, %d of %d bytes received)",
						now-w.since, f.Transport, f.RxBytes, f.Size))
				}
			}
		},
	}
}
