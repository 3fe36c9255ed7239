// Package harness runs the paper's experiments: it builds a fabric with a
// scheme's queue profile, generates workloads, assigns flows to legacy or
// upgraded transports by per-rack deployment, runs the simulation, and
// collects metrics. Run is the one runner for every Clos scenario at any
// shard count; the single engine is its 1-shard case. One driver per
// paper figure lives in figures.go and micro.go.
package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/forensics"
	"flexpass/internal/live"
	"flexpass/internal/metrics"
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/prof"
	"flexpass/internal/sim"
	"flexpass/internal/sim/shard"
	"flexpass/internal/topo"
	"flexpass/internal/trace"
	"flexpass/internal/transport"
	_ "flexpass/internal/transport/schemes" // link the built-in schemes in
	"flexpass/internal/units"
	"flexpass/internal/workload"
)

// Scheme is a deployment strategy from §6.2.
type Scheme string

// The compared schemes. Any name registered with transport.RegisterScheme
// is accepted; these are the ones the paper's figures sweep.
const (
	SchemeNaive        Scheme = transport.SchemeNaive        // ExpressPass sharing the legacy queue, full-rate credits
	SchemeOWF          Scheme = transport.SchemeOWF          // oracle weighted fair queueing
	SchemeLayering     Scheme = transport.SchemeLayering     // LY: window-gated ExpressPass in the shared queue
	SchemeFlexPass     Scheme = transport.SchemeFlexPass     // the paper's design
	SchemeFlexPassAltQ Scheme = transport.SchemeFlexPassAltQ // §4.3 ablation: reactive sub-flow in Q2
	SchemeFlexPassRC3  Scheme = transport.SchemeFlexPassRC3  // §4.3 ablation: RC3-style flow splitting
)

// Schemes lists the four §6.2 deployment schemes in paper order.
var Schemes = []Scheme{SchemeNaive, SchemeOWF, SchemeLayering, SchemeFlexPass}

// Scenario fully describes one simulation run.
type Scenario struct {
	Seed int64

	// Fabric.
	Clos      topo.ClosParams
	LinkRate  units.Rate
	LinkDelay sim.Time
	HostDelay sim.Time
	SwitchBuf units.ByteSize
	BufAlpha  float64

	// Scheme and its knobs.
	Scheme Scheme
	WQ     float64   // FlexPass queue weight (w_q); FlexPass is insensitive to it
	Spec   topo.Spec // threshold overrides (selective drop / ECN)

	// Workload. The legacy parameter knobs (Workload CDF, IncastFraction,
	// IncastFlowSize) and the composable plan below both route through
	// the same generator: when WorkloadPlan is nil, planWorkload builds
	// the equivalent builtin plan, which consumes the workload RNG stream
	// bit-identically to the historical direct-parameter path.
	Workload       *workload.CDF
	Load           float64
	Deployment     float64 // fraction of FlexPass/ExpressPass-enabled racks
	IncastFraction float64 // foreground incast volume fraction (0 = none)
	IncastFlowSize int64
	Duration       sim.Time // arrival window
	Drain          sim.Time // extra time for in-flight flows to finish

	// WorkloadPlan, when non-nil, replaces the parameter workload with a
	// composable source plan (see workload.Plan): Poisson/ON-OFF/
	// lognormal backgrounds, incast, RPC coflows, and trace replay, each
	// optionally rate-modulated, generated against this scenario's
	// topology, load, and duration. TraceFlows still wins over both.
	WorkloadPlan *workload.Plan

	// SampleQueues enables Q1 occupancy sampling at ToR uplinks.
	SampleQueues bool

	// Shards is the number of engines Run partitions the Clos across:
	// per-pod-block subtrees (cores with pod 0), each driven by its own
	// engine goroutine, synchronized conservatively on the agg↔core
	// propagation delay (see internal/sim/shard). The effective count is
	// min(Shards, Clos.Pods); 0 or 1 — or a fabric with nothing to cut —
	// is the 1-shard case, a plain sim.NewEngine run with no shard
	// runtime. Counts above one land in the manifest. Results are
	// deterministic per shard count but not bit-identical across counts
	// (per-shard RNG streams); Forensics needs a single engine and Run
	// panics when it is combined with Shards > 1.
	Shards int

	// Telemetry, when non-nil, enables the obs instrumentation plane:
	// the fabric and every transport register into a central registry, a
	// periodic prober samples them into time series, and Result.Telemetry
	// carries the exportable run artifact. Probing is observation-only —
	// enabling it never changes simulation results, only adds observer
	// events to the heap.
	Telemetry *obs.Options

	// Forensics, when non-nil, enables the forensic plane on top of
	// telemetry (which it switches on implicitly): hop-by-hop packet
	// recording at every port, invariant auditors on the engine clock,
	// and worst-slowdown flow timelines in Result.Forensics and the
	// exported artifact. Like telemetry it is observation-only: flow
	// results stay byte-identical to a plain run with the same seed.
	Forensics *forensics.Options

	// FaultPlan, when non-nil, injects the scripted fault timeline into
	// the run (see internal/faults): link flaps, rate degradation, burst
	// loss, and credit-targeted loss on named ports. The plan is applied
	// at a fixed point — after fabric construction, before flow-arrival
	// scheduling — so a (seed, plan) pair replays bit-identically. Run
	// panics if a link pattern matches no port in the built fabric; plans
	// from user input should come through faults.ParsePlan / ParseSpec,
	// which validate structure up front.
	FaultPlan *faults.Plan

	// Profile enables the engine self-profiler: every dispatched event is
	// timed and attributed to the component that scheduled it (transport
	// scheme, port serialization/pacing, prober, auditor, faults, ...).
	// Attribution labels are pure metadata and the accumulator is a fixed
	// array, so profiling never changes flow results or allocates on the
	// dispatch path; it only adds two clock reads per event. Results land
	// in Result.Profile and, with telemetry on, the manifest.
	Profile bool

	// Live, when non-nil, receives periodic progress snapshots (sim-clock
	// position, flow counts, registry readings) so an introspection
	// server can report /status and /metrics while the run executes.
	// Implies telemetry. Every engine runs a live/status ticker each
	// LiveEvery of sim time (default 1ms) that posts its own clock,
	// events, and readings; the board gets the merged snapshot (the
	// fleet-minimum clock, summed events, summed readings). The ticks are
	// engine events and count in Result.Events; flow results are
	// unchanged. The board is the thread-safety boundary: the engines
	// publish into it, HTTP goroutines read from it.
	Live      *live.RunBoard
	LiveEvery sim.Time

	// DisableProRetx ablates FlexPass's proactive retransmission (§4.2).
	DisableProRetx bool

	// Reactive selects FlexPass's reactive-sub-flow algorithm ("" = the
	// paper's DCTCP; "reno" = the §4.3 loss-based extension).
	Reactive string

	// SchemeOptions carries additional per-scheme parameters by option
	// key (see the transport.Opt* constants). The typed knobs above are
	// folded in on top and win on conflict.
	SchemeOptions map[string]string

	// ManifestConfig adds caller-owned entries to the exported
	// manifest's Config map (the sweep orchestrator stamps its scenario
	// hash and topology label here). Keys collide with the harness's own
	// Config entries only if the caller chooses harness key names; the
	// caller's values win.
	ManifestConfig map[string]string

	// TraceFlows, when non-nil, replaces the generated workload entirely
	// (replay of an exported or external trace). Host indices must be
	// valid for the configured fabric.
	TraceFlows []workload.FlowSpec

	// PoolSeeds, when non-empty, makes Sweep/RunPoint pool flow records
	// across one run per seed before computing statistics (tail
	// percentiles over the union of flows).
	PoolSeeds []int64

	// PoolPackets recycles consumed frames through a per-network free
	// list (netem.Network.EnablePacketPool). Observation-only for
	// results: flow statistics are byte-identical with pooling on or
	// off; it trims steady-state allocation in long runs.
	PoolPackets bool

	// Deadline, when positive, caps the run's wall-clock time: a
	// wall-clock watchdog aborts the engine(s) when it elapses and Run
	// panics with a *KilledError (Reason "deadline"). Zero disables.
	// Supervision is observation-only until it trips — the watchdog
	// never perturbs event order, so a run that finishes in time is
	// bit-identical to an unsupervised one.
	Deadline time.Duration

	// StallTimeout, when positive, kills the run when the engine horizon
	// (the fleet minimum across shards) stops advancing for this much
	// wall-clock time — catching both livelocks (events churning at one
	// instant) and wedged engines. Run panics with a *KilledError
	// (Reason "stall"). Zero disables.
	StallTimeout time.Duration
}

// BaseScenario returns the §6.2 configuration at the given scale. Scale 1
// is the paper's fabric (192 hosts); smaller scales shrink the fabric and
// default duration so the full suite runs quickly.
func BaseScenario(full bool) Scenario {
	sc := Scenario{
		Seed:           1,
		Clos:           topo.SmallClos,
		LinkRate:       40 * units.Gbps,
		LinkDelay:      2 * sim.Microsecond,
		HostDelay:      1 * sim.Microsecond,
		SwitchBuf:      4500 * units.KB,
		BufAlpha:       0.25,
		Scheme:         SchemeFlexPass,
		WQ:             0.5,
		Workload:       workload.WebSearch,
		Load:           0.5,
		Deployment:     0.5,
		IncastFlowSize: 8000,
		Duration:       15 * sim.Millisecond,
		Drain:          60 * sim.Millisecond,
	}
	if full {
		sc.Clos = topo.PaperClos
		sc.Duration = 50 * sim.Millisecond
		sc.Drain = 100 * sim.Millisecond
	}
	return sc
}

// Result carries a run's outputs.
type Result struct {
	Scenario    Scenario
	Flows       metrics.Collector
	OracleWQ    float64 // the weight the oWF scheme used
	QueueAvg    int64   // Q1 occupancy stats (when sampled)
	QueueP90    int64
	QueueRedAvg int64
	QueueRedP90 int64
	DropsRed    int64  // selective drops across the fabric
	DropsCredit int64  // credits dropped by rate limiters (the ExpressPass feedback signal)
	DropsOther  int64  // data drops from buffer exhaustion
	Events      uint64 // engine events processed (perf visibility)

	// WallClock is the host time spent inside the event loop.
	WallClock time.Duration
	// Telemetry is the exportable run artifact (when Scenario.Telemetry
	// is set); Trace is the shared transport trace ring (when TraceCap>0).
	Telemetry *obs.Run
	Trace     *trace.Ring
	// Forensics carries auditor findings and worst-flow timelines (when
	// Scenario.Forensics is set). The same data rides in Telemetry's
	// artifact as "forensics" lines.
	Forensics *forensics.Report
	// Faults is the fired fault-action log (when Scenario.FaultPlan is
	// set); FaultDrops totals packets the plan's faults destroyed. The
	// action log also rides in Telemetry's artifact as "fault" lines.
	Faults     *faults.Applied
	FaultDrops netem.FaultStats
	// Profile is the engine self-profiler's per-component attribution
	// (when Scenario.Profile is set), summed across engines; render it
	// with prof.WriteTableProfile or prof.WriteFoldedProfile.
	Profile []obs.ComponentProfile
}

// WorkloadRand returns the deterministic random stream Run uses for
// workload generation at the given seed, so traces exported out-of-band
// (cmd/flexsim -dump-trace) replay identically.
func WorkloadRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + 17))
}

// schemeOptions folds the typed scenario knobs into the option map handed
// to the scheme factory, on top of any caller-provided SchemeOptions.
func (sc *Scenario) schemeOptions() map[string]string {
	opts := make(map[string]string, len(sc.SchemeOptions)+2)
	for k, v := range sc.SchemeOptions {
		opts[k] = v
	}
	if sc.DisableProRetx {
		opts[transport.OptDisableProRetx] = "1"
	}
	if sc.Reactive != "" {
		opts[transport.OptReactive] = sc.Reactive
	}
	return opts
}

// mustScheme builds a registered scheme or panics: by the time Run is
// invoked the scheme name is part of the scenario contract.
func mustScheme(name string, env *transport.SchemeEnv) transport.Scheme {
	s, err := transport.NewScheme(name, env)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return s
}

// rackAssignment computes host→rack without building the fabric.
func rackAssignment(c topo.ClosParams) []int {
	rackOf := make([]int, c.Hosts())
	for i := range rackOf {
		rackOf[i] = i / c.HostsPerTor
	}
	return rackOf
}

// runPlan is the engine-independent half of a run: the generated flow
// list and the deployment assignment. It is the same at every shard
// count, so every engine layout sees the same specs in the same order.
type runPlan struct {
	hosts    int
	rackOf   []int
	enabled  map[int]bool
	flows    []workload.FlowSpec
	oracleWQ float64
}

// upgraded reports whether a flow runs the active (non-legacy) scheme:
// both endpoints' racks must be deployment-enabled.
func (p *runPlan) upgraded(f workload.FlowSpec) bool {
	return p.enabled[p.rackOf[f.Src]] && p.enabled[p.rackOf[f.Dst]]
}

// planWorkload generates the scenario's flow list, rack deployment, and
// the oWF oracle weight (which needs the true upgraded-traffic
// fraction, hence workload first).
func planWorkload(sc Scenario) *runPlan {
	p := &runPlan{
		hosts:  sc.Clos.Hosts(),
		rackOf: rackAssignment(sc.Clos),
	}
	racks := p.hosts / sc.Clos.HostsPerTor
	p.enabled = workload.DeployRacks(racks, sc.Deployment)
	uplinks := racks * sc.Clos.AggPerPod // ToR uplink count
	env := workload.Env{
		Hosts:          p.hosts,
		RackOf:         p.rackOf,
		UplinkCapacity: units.Rate(int64(sc.LinkRate) * int64(uplinks)),
		Load:           sc.Load,
		Duration:       sc.Duration,
	}
	switch {
	case sc.TraceFlows != nil:
		p.flows = sc.TraceFlows
	case sc.WorkloadPlan != nil:
		flows, err := sc.WorkloadPlan.Generate(env, WorkloadRand(sc.Seed))
		if err != nil {
			panic(fmt.Sprintf("harness: workload plan %q: %v", sc.WorkloadPlan.Name, err))
		}
		p.flows = flows
	default:
		// The parameter workload is the builtin plan: a Poisson
		// background at the scenario load plus the optional legacy
		// incast mix. LegacyPlan consumes the seeded stream exactly as
		// the historical direct-parameter path did, so golden flow
		// digests are unchanged (see scheme_digest_test.go).
		legacy := workload.LegacyPlan(sc.Workload, sc.IncastFraction, sc.IncastFlowSize)
		flows, err := legacy.Generate(env, WorkloadRand(sc.Seed))
		if err != nil {
			panic(fmt.Sprintf("harness: builtin workload: %v", err))
		}
		p.flows = flows
	}
	var upBytes, totBytes float64
	for _, f := range p.flows {
		totBytes += float64(f.Size)
		if p.upgraded(f) {
			upBytes += float64(f.Size)
		}
	}
	p.oracleWQ = 0.5
	if totBytes > 0 {
		p.oracleWQ = upBytes / totBytes
	}
	if p.oracleWQ < 0.02 {
		p.oracleWQ = 0.02
	}
	if p.oracleWQ > 0.98 {
		p.oracleWQ = 0.98
	}
	return p
}

// Flows returns the exact flow list the scenario would run — generated
// from the workload plan (or legacy parameters) on the scenario's own
// seeded stream, or the trace replay verbatim. Callers that need to
// re-run a scenario with a reduced flow set (the chaos shrinker) pin the
// original list through TraceFlows; because the workload RNG is a stream
// separate from the engine's, the replay is bit-identical to the
// generating run.
func Flows(sc Scenario) []workload.FlowSpec {
	return planWorkload(sc).flows
}

// Run executes the scenario and returns collected metrics. One body
// serves every shard count: the Clos is cut into n pod blocks
// (topo.ClosPodShards), each driven by its own engine, and everything an
// engine touches during the run — RNG stream, scheme instances, stats
// registry, trace ring, profiler, prober, packet pool — is a per-engine
// slot folded once after the drain, so the hot path takes no locks. At
// n == 1 this is the plain single-engine run: sim.NewEngine's stream, no
// shard runtime, no cross links. At n > 1 the engines run on their own
// goroutines under shard.Runtime, synchronized conservatively on the
// agg↔core propagation delay.
//
// Results are deterministic for a fixed (scenario, shard count) but not
// bit-identical across shard counts: each shard draws from its own PCG
// stream, so anything randomized (pacer jitter, fault loss) diverges
// from the single-engine run. Schemes that never draw randomness on a
// clean run (dctcp, homa, phost) produce identical flow results at any
// shard count; see TestShardedMatchesSingleEngine.
func Run(sc Scenario) *Result {
	podShard := topo.ClosPodShards(sc.Clos, sc.Shards)
	n := topo.Shards(podShard)
	if n > 1 && sc.Forensics != nil {
		panic("harness: forensics requires a single engine (Shards must be 0 or 1)")
	}
	// Forensics implies telemetry: timelines need the registry and a
	// lifecycle trace ring. Copy the options so the caller's struct is
	// never mutated.
	tel := sc.Telemetry
	if sc.Forensics != nil {
		if tel == nil {
			tel = &obs.Options{}
		} else {
			cp := *tel
			tel = &cp
		}
		if tel.TraceCap == 0 {
			tel.TraceCap = 65536
		}
	}
	// Live introspection implies telemetry too: /metrics bridges the
	// registry, so there must be one.
	if sc.Live != nil && tel == nil {
		tel = &obs.Options{}
	}

	// Per-engine planes. A sharded engine's RNG is an independent PCG
	// stream derived from (seed, shard), so shard RNG use never depends on
	// what other shards consumed.
	engs := make([]*sim.Engine, n)
	profilers := make([]*prof.Profiler, n)
	regs := make([]*obs.Registry, n)
	rings := make([]*trace.Ring, n)
	for s := range engs {
		if n == 1 {
			engs[s] = sim.NewEngine(sc.Seed)
		} else {
			engs[s] = sim.NewShardEngine(sc.Seed, s)
		}
		if sc.Profile {
			profilers[s] = prof.New()
			profilers[s].Attach(engs[s])
		}
		if tel != nil {
			regs[s] = obs.NewRegistry()
			if tel.TraceCap > 0 {
				rings[s] = trace.NewRing(engs[s], tel.TraceCap)
			}
		}
	}
	plan := planWorkload(sc)

	// Compose the transports from the scheme registry. The legacy side is
	// always DCTCP; the upgraded side is whatever sc.Scheme names. Each
	// engine gets one env shared by both, so counter sets are memoized per
	// transport label, and the fabric is built with the active scheme's
	// queue profile.
	spec := sc.Spec
	spec.WQ = sc.WQ
	envs := make([]*transport.SchemeEnv, n)
	legacy := make([]transport.Scheme, n)
	active := make([]transport.Scheme, n)
	for s := range engs {
		envs[s] = &transport.SchemeEnv{
			Eng:      engs[s],
			LinkRate: sc.LinkRate,
			WQ:       sc.WQ,
			OracleWQ: plan.oracleWQ,
			Spec:     spec,
			Registry: regs[s],
			Trace:    rings[s],
			Options:  sc.schemeOptions(),
		}
		legacy[s] = mustScheme(transport.SchemeDCTCP, envs[s])
		active[s] = mustScheme(string(sc.Scheme), envs[s])
	}
	fab := topo.ClosSharded(engs, podShard, sc.Clos, topo.Params{
		LinkRate:  sc.LinkRate,
		LinkDelay: sc.LinkDelay,
		HostDelay: sc.HostDelay,
		SwitchBuf: sc.SwitchBuf,
		BufAlpha:  sc.BufAlpha,
		Profile:   active[0].Profile(),
	})
	if sc.PoolPackets {
		// Free lists are single-goroutine state: one pool per engine,
		// nodes assigned by partition. Packets migrate between pools at
		// shard cuts (put always runs on the receiving shard).
		pools := make([]*netem.PacketPool, n)
		for s := range pools {
			pools[s] = &netem.PacketPool{}
		}
		for i, sw := range fab.Net.Switches {
			sw.SetPool(pools[fab.SwitchShard[i]])
		}
		for i, h := range fab.Net.Hosts {
			h.SetPool(pools[fab.HostShard[i]])
		}
	}

	// The conservative lookahead is the minimum propagation delay across
	// the cut: a packet serialized on one shard cannot arrive on another
	// sooner than that, so each shard may run that far past its
	// neighbors' horizons.
	var rt *shard.Runtime
	if n > 1 {
		lookahead := sim.Time(0)
		for _, cl := range fab.Cross {
			if lookahead == 0 || cl.Port.Prop() < lookahead {
				lookahead = cl.Port.Prop()
			}
		}
		rt = shard.New(engs, lookahead)
		for _, cl := range fab.Cross {
			edge := rt.Connect(cl.From, cl.To)
			dst := cl.Port.Peer()
			cl.Port.SetRemote(func(at sim.Time, pkt *netem.Packet) {
				edge.Deliver(at, pkt, dst)
			})
		}
	}

	// Agents and per-node telemetry live with their engine.
	agents := make([]*transport.Agent, plan.hosts)
	strays := make([]*obs.Counter, n)
	for s, reg := range regs {
		strays[s] = reg.Counter("transport/agent", "stray_packets")
	}
	for i := range agents {
		s := fab.HostShard[i]
		agents[i] = transport.NewAgent(engs[s], fab.Net.Host(i))
		agents[i].ObserveStrays(strays[s])
	}
	for i, sw := range fab.Net.Switches {
		sw.Register(regs[fab.SwitchShard[i]])
	}
	for i, h := range fab.Net.Hosts {
		h.Register(regs[fab.HostShard[i]])
	}

	var rec *forensics.Recorder
	if sc.Forensics != nil {
		rec = forensics.NewRecorder(sc.Forensics)
		fab.Net.SetHopObserver(rec)
	}

	res := &Result{Scenario: sc, OracleWQ: plan.oracleWQ}

	// Apply the fault plan at a fixed point in setup — after the fabric
	// and observers exist, before any flow arrival is scheduled — so the
	// engine's event tie-break order is a pure function of the scenario.
	// Faults schedule on each matched port's own engine (see
	// faults.Apply); the action-count bridge registers on engine 0.
	if sc.FaultPlan != nil {
		applied, err := faults.Apply(sc.FaultPlan, engs[0], fab.Net)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		applied.Register(regs[0])
		res.Faults = applied
	}

	// Profiling attribution: arrival timers carry their own label, and the
	// two transports get per-scheme labels stamped around Start so every
	// timer a transport schedules — pacer ticks, RTO checks, host sends —
	// inherits its scheme's component transitively.
	compLegacy := make([]sim.Component, n)
	compActive := make([]sim.Component, n)
	prevComp := make([]sim.Component, n)
	for s, e := range engs {
		compLegacy[s] = e.Component("transport/" + transport.SchemeDCTCP)
		compActive[s] = compLegacy[s]
		if string(sc.Scheme) != transport.SchemeDCTCP {
			compActive[s] = e.Component("transport/" + string(sc.Scheme))
		}
		prevComp[s] = e.SetComponent(e.Component("harness/arrival"))
	}

	// all[i] is spec i's flow (ID i+1), nil until it arrives. A flow whose
	// endpoints share an engine is created at its arrival; a cross-shard
	// flow is prebuilt and starts its two halves at the same instant on
	// the two engines that own them. The counters feed live status only.
	all := make([]*transport.Flow, len(plan.flows))
	var flowsStarted, flowsDone atomic.Int64
	var onDone func(*transport.Flow)
	if sc.Live != nil {
		onDone = func(*transport.Flow) { flowsDone.Add(1) }
	}
	for i, fs := range plan.flows {
		schemes, comp, name := active, compActive, string(sc.Scheme)
		if !plan.upgraded(fs) {
			schemes, comp, name = legacy, compLegacy, transport.SchemeDCTCP
		}
		srcS, dstS := fab.HostShard[fs.Src], fab.HostShard[fs.Dst]
		if srcS == dstS {
			e, sch, c := engs[srcS], schemes[srcS], comp[srcS]
			e.At(fs.At, func() {
				fl := &transport.Flow{
					ID:         uint64(i + 1),
					Src:        agents[fs.Src],
					Dst:        agents[fs.Dst],
					Size:       fs.Size,
					Start:      e.Now(),
					OnComplete: onDone,
				}
				all[i] = fl
				flowsStarted.Add(1)
				prev := e.SetComponent(c)
				sch.Start(fl)
				e.SetComponent(prev)
			})
			continue
		}
		fl := &transport.Flow{
			ID:         uint64(i + 1),
			Src:        agents[fs.Src],
			Dst:        agents[fs.Dst],
			Size:       fs.Size,
			Start:      fs.At,
			OnComplete: onDone,
		}
		all[i] = fl
		snd, rcv := asSplit(name, schemes[srcS]), asSplit(name, schemes[dstS])
		engs[srcS].At(fs.At, func() {
			prev := engs[srcS].SetComponent(comp[srcS])
			snd.StartSender(fl)
			engs[srcS].SetComponent(prev)
			flowsStarted.Add(1)
		})
		engs[dstS].At(fs.At, func() {
			prev := engs[dstS].SetComponent(comp[dstS])
			rcv.StartReceiver(fl)
			engs[dstS].SetComponent(prev)
		})
	}
	for s, e := range engs {
		e.SetComponent(prevComp[s])
	}

	probers := make([]*obs.Prober, n)
	for s, e := range engs {
		probers[s] = obs.NewProber(e, regs[s], tel)
		probers[s].Start()
	}

	// Invariant auditors: credit conservation samples the live pacer /
	// sender counters and the fabric's rate-limited credit-queue drops.
	// Forensics is single-engine, so they read engine 0's state.
	var aud *forensics.Auditor
	if sc.Forensics != nil {
		sumCounters := func(get func(transport.Counters) int64) func() int64 {
			return func() int64 {
				var v int64
				envs[0].EachCounters(func(_ string, c transport.Counters) { v += get(c) })
				return v
			}
		}
		issued := sumCounters(func(c transport.Counters) int64 { return c.CreditsIssued.Value() })
		consumed := sumCounters(func(c transport.Counters) int64 { return c.CreditsGranted.Value() })
		creditDrops := func() int64 {
			var d Result
			countFabricDrops(fab, &d)
			return d.DropsCredit
		}
		aud = forensics.WireAudit(engs[0], sc.Forensics, fab.Net,
			func() []*transport.Flow { return all }, issued, consumed, creditDrops)
		aud.Start()
	}

	// Without telemetry an ad-hoc sampler per engine provides Q1
	// occupancy of the ToR uplinks that engine owns; with it, the probers'
	// per-queue gauge series are consumed instead of re-deriving the same
	// samples with a second scheduler.
	var qss []*metrics.QueueSampler
	if sc.SampleQueues && probers[0] == nil {
		qss = make([]*metrics.QueueSampler, n)
		for s, e := range engs {
			qss[s] = metrics.NewQueueSampler(e, 100*sim.Microsecond)
		}
		idx := fab.FlexQueueIndex
		for _, up := range fab.TorUplinks {
			for s, e := range engs {
				if up.Engine() == e {
					qss[s].Track(func() (int64, int64) { return up.QueueBytes(idx) })
				}
			}
		}
		for _, qs := range qss {
			qs.Start()
		}
	}

	wallStart := time.Now()
	end := sc.Duration + sc.Drain
	var publishLive func(s int, done bool)
	if sc.Live != nil {
		publishLive = livePublisher(sc.Live, engs, regs, wallStart, end,
			len(plan.flows), &flowsStarted, &flowsDone)
		every := sc.LiveEvery
		if every <= 0 {
			every = sim.Millisecond
		}
		// Each engine posts its own progress on its own clock like any
		// observer; the publisher's slots and the board are the only
		// state shared across goroutines.
		for s, e := range engs {
			prev := e.SetComponent(e.Component("live/status"))
			e.Every(every, func() { publishLive(s, false) })
			e.SetComponent(prev)
		}
	}

	// Watchdog supervision: one Watch per engine so a kill aborts the
	// whole fleet; progress is judged on the fleet-minimum horizon. An
	// aborted sharded engine still advances its clock through each round
	// window, so the shard protocol drains normally after a kill.
	var wd *watchdog
	if sc.Deadline > 0 || sc.StallTimeout > 0 {
		watches := make([]*sim.Watch, n)
		for s, e := range engs {
			watches[s] = &sim.Watch{}
			e.SetWatch(watches[s])
		}
		horizon, events := watches[0].NowPs, watches[0].Events
		if rt != nil {
			horizon, events = rt.HorizonPs, rt.EventsProcessed
		}
		wd = startWatchdog(sc.Deadline, sc.StallTimeout, horizon, events, func() {
			for _, w := range watches {
				w.Abort()
			}
		})
	}
	if rt != nil {
		rt.Run(end)
	} else {
		engs[0].Run(end)
	}
	res.WallClock = time.Since(wallStart)
	if ke := wd.stop(); ke != nil {
		panic(ke)
	}
	if publishLive != nil {
		for s := range engs {
			publishLive(s, s == n-1)
		}
	}

	for i, fl := range all {
		if fl != nil {
			res.Flows.Add(metrics.Snapshot(fl, plan.flows[i].Incast))
		}
	}
	if sc.SampleQueues {
		var totals, reds []int64
		for _, qs := range qss {
			totals = append(totals, qs.Totals...)
			reds = append(reds, qs.Reds...)
		}
		if qss == nil {
			idx := fab.FlexQueueIndex
			for _, up := range fab.TorUplinks {
				ent := fmt.Sprintf("port/%s/q%d", up.Name(), idx)
				for _, p := range probers {
					if s := p.Find(ent, "bytes"); s != nil {
						totals = append(totals, s.Values()...)
					}
					if s := p.Find(ent, "red_bytes"); s != nil {
						reds = append(reds, s.Values()...)
					}
				}
			}
		}
		res.QueueAvg, res.QueueP90 = metrics.Stats(totals, 0.9)
		res.QueueRedAvg, res.QueueRedP90 = metrics.Stats(reds, 0.9)
	}
	countFabricDrops(fab, res)
	for _, e := range engs {
		res.Events += e.Processed
	}
	if rings[0] != nil {
		res.Trace = trace.Merge(rings...)
	}
	if sc.Profile {
		exports := make([][]obs.ComponentProfile, n)
		for s, p := range profilers {
			exports[s] = p.Export()
		}
		res.Profile = prof.MergeExports(exports...)
	}

	if sc.Forensics != nil {
		// Ideal-FCT estimate for ranking only: wire bytes at line rate
		// plus a fixed propagation allowance. Crude, but monotone in the
		// real ideal, which is all slowdown ordering needs.
		base := 4*sc.LinkDelay + 2*sc.HostDelay
		slowdown := func(fl *transport.Flow) float64 {
			wire := fl.Size
			if segs := fl.Segs(); segs > 0 {
				wire += int64(segs * (fl.SegWire(0) - fl.SegPayload(0)))
			}
			ideal := sc.LinkRate.TxTime(int(wire)) + base
			if fct := fl.FCT(); fct > 0 && ideal > 0 {
				return float64(fct) / float64(ideal)
			}
			return 0
		}
		res.Forensics = &forensics.Report{
			Violations:        aud.Violations(),
			ViolationsDropped: aud.Dropped(),
			Timelines:         forensics.WorstTimelines(rec, res.Trace, all, slowdown, sc.Forensics),
		}
	}

	if regs[0] != nil {
		// Workload accounting is global, not per-engine: fold it into
		// engine 0's registry before the merge.
		recordWorkloadObs(regs[0], plan.flows, all)
		runs := make([]*obs.Run, n)
		for s, reg := range regs {
			runs[s] = obs.Collect(reg, probers[s], obs.Manifest{})
		}
		m := buildManifest(sc, plan.hosts, probers[0].Interval(), res, n)
		res.Telemetry = obs.MergeRuns(m, runs...)
		res.Telemetry.AttachTrace(res.Trace)
		if res.Forensics != nil {
			res.Telemetry.Forensics = res.Forensics.Export()
		}
		res.Telemetry.Faults = res.Faults.Export()
	}
	return res
}

// livePublisher returns the live-status hook for an n-engine run. Each
// call posts engine s's own clock, event count, and registry readings
// into its mutex-guarded slot — from engine s's goroutine while the run
// executes, or after the drain — then publishes the merged snapshot:
// the fleet-minimum sim time (the horizon every engine has reached),
// summed events, and readings summed across engines.
func livePublisher(board *live.RunBoard, engs []*sim.Engine, regs []*obs.Registry,
	wallStart time.Time, end sim.Time, total int, started, done *atomic.Int64) func(s int, final bool) {
	var mu sync.Mutex
	nowPs := make([]int64, len(engs))
	events := make([]uint64, len(engs))
	readings := make([][]obs.Reading, len(engs))
	return func(s int, final bool) {
		now, ev, rd := int64(engs[s].Now()), engs[s].Processed, regs[s].Final()
		mu.Lock()
		defer mu.Unlock()
		nowPs[s], events[s], readings[s] = now, ev, rd
		st := live.RunStatus{
			SimNowPs:     slices.Min(nowPs),
			SimEndPs:     int64(end),
			FlowsTotal:   total,
			FlowsStarted: int(started.Load()),
			FlowsDone:    int(done.Load()),
			WallMS:       float64(time.Since(wallStart)) / float64(time.Millisecond),
			Done:         final,
		}
		for _, e := range events {
			st.Events += e
		}
		if secs := time.Since(wallStart).Seconds(); secs > 0 {
			st.EventsPerSec = float64(st.Events) / secs
		}
		board.Publish(st, mergeReadings(readings))
	}
}

// asSplit asserts that a built scheme supports split starts — every
// built-in does; a registered third-party scheme that doesn't cannot
// start a flow across a shard cut.
func asSplit(name string, s transport.Scheme) transport.SplitScheme {
	sp, ok := s.(transport.SplitScheme)
	if !ok {
		panic(fmt.Sprintf("harness: scheme %q does not implement transport.SplitScheme; run with Shards <= 1", name))
	}
	return sp
}

// mergeReadings folds per-engine registry finals into one reading set,
// summing values that share (entity, metric, kind). Finals are sorted,
// so the merged order is deterministic; a single set is returned as is.
func mergeReadings(sets [][]obs.Reading) []obs.Reading {
	if len(sets) == 1 {
		return sets[0]
	}
	type key struct {
		entity, metric string
		kind           obs.SampleKind
	}
	idx := map[key]int{}
	var out []obs.Reading
	for _, set := range sets {
		for _, r := range set {
			k := key{r.Entity, r.Metric, r.Kind}
			if j, ok := idx[k]; ok {
				out[j].Value += r.Value
				continue
			}
			idx[k] = len(out)
			out = append(out, r)
		}
	}
	return out
}

// countFabricDrops folds every port's drop and fault-loss counters into
// the result. Runs after the engine(s) stop, from one goroutine.
func countFabricDrops(fab *topo.Fabric, res *Result) {
	countPort := func(p *netem.Port) {
		fs := p.FaultStats()
		res.FaultDrops.Injected += fs.Injected
		res.FaultDrops.LinkDown += fs.LinkDown
		res.FaultDrops.BurstLoss += fs.BurstLoss
		res.FaultDrops.CreditLoss += fs.CreditLoss
		for q := 0; q < p.NumQueues(); q++ {
			st := p.QueueStats(q)
			res.DropsRed += st.DroppedRed
			if p.QueueConfig(q).RateLimit > 0 {
				res.DropsCredit += st.DroppedOver
			} else {
				res.DropsOther += st.DroppedOver
			}
		}
	}
	for _, sw := range fab.Net.Switches {
		for _, p := range sw.Ports() {
			countPort(p)
		}
	}
	for _, h := range fab.Net.Hosts {
		countPort(h.NIC())
	}
}

// buildManifest assembles the exported run manifest. shards is the
// effective engine count; a single-engine run records 0, so the field is
// omitted from the artifact exactly as before sharding.
func buildManifest(sc Scenario, hosts int, probe sim.Time, res *Result, shards int) obs.Manifest {
	if shards == 1 {
		shards = 0
	}
	// Workload identity mirrors planWorkload's routing: trace replays get
	// a content-addressed "trace:<digest>" (a trace run used to record an
	// empty workload), plans their name, the parameter path its CDF name.
	wl := ""
	switch {
	case sc.TraceFlows != nil:
		wl = workload.TraceID(sc.TraceFlows)
	case sc.WorkloadPlan != nil:
		wl = sc.WorkloadPlan.Name
	case sc.Workload != nil:
		wl = sc.Workload.Name
	}
	wallMS := float64(res.WallClock) / float64(time.Millisecond)
	eps := 0.0
	if secs := res.WallClock.Seconds(); secs > 0 {
		eps = float64(res.Events) / secs
	}
	config := map[string]string{
		"link_rate":      sc.LinkRate.String(),
		"link_delay":     sc.LinkDelay.String(),
		"host_delay":     sc.HostDelay.String(),
		"switch_buf":     sc.SwitchBuf.String(),
		"buf_alpha":      fmt.Sprintf("%g", sc.BufAlpha),
		"probe_interval": probe.String(),
	}
	for k, v := range sc.ManifestConfig {
		config[k] = v
	}
	planName, planHash := "", ""
	if sc.FaultPlan != nil {
		planName, planHash = sc.FaultPlan.Name, sc.FaultPlan.Hash()
	}
	wplanName, wplanHash := "", ""
	if sc.WorkloadPlan != nil {
		wplanName, wplanHash = sc.WorkloadPlan.Name, sc.WorkloadPlan.Hash()
	}
	// Forensic retention accounting rides in the manifest so readers can
	// tell a clean run from one whose violation list was truncated at the
	// auditor cap (res.Forensics is assembled before the manifest).
	vioDropped := int64(0)
	if res.Forensics != nil {
		vioDropped = res.Forensics.ViolationsDropped
	}
	return obs.Manifest{
		Seed: sc.Seed,
		Topology: fmt.Sprintf("clos pods=%d agg/pod=%d tor/pod=%d hosts/tor=%d cores=%d hosts=%d",
			sc.Clos.Pods, sc.Clos.AggPerPod, sc.Clos.TorPerPod, sc.Clos.HostsPerTor, sc.Clos.Cores, hosts),
		Scheme:            string(sc.Scheme),
		Workload:          wl,
		Load:              sc.Load,
		Deployment:        sc.Deployment,
		WQ:                sc.WQ,
		DurationPs:        int64(sc.Duration + sc.Drain),
		Shards:            shards,
		SchemeOptions:     sc.schemeOptions(),
		FaultPlan:         planName,
		FaultPlanHash:     planHash,
		WorkloadPlan:      wplanName,
		WorkloadPlanHash:  wplanHash,
		Revision:          obs.RepoRevision(),
		Config:            config,
		WallMS:            wallMS,
		Events:            res.Events,
		EventsPerSec:      eps,
		Profile:           res.Profile,
		ViolationsDropped: vioDropped,
	}
}
