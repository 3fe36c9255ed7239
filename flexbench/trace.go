package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/netem"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

// The traced assembly builds a single-engine run the way harness.Run
// does, from the simulator's public constructors, and measures each
// layer from outside: a netem.Node wrapper on every port times the
// switch or host behind it, the engine's profile hook times every
// dispatched event by component, and Scheme.Start calls are timed where
// the arrival events make them. Nothing inside the simulator changes,
// and the run must reproduce harness.Run's flow digest to show the
// wrappers did not perturb event order.

const (
	pendingEvery = 10 * sim.Microsecond // heap-depth sampling period
	spanEvery    = 4096                 // sample one dispatched event in this many
	maxSpans     = 50000
)

// span is one sampled interval: a dispatched event (Parent 0) or a
// receive nested in one. IDs are engine dispatch sequence numbers, so a
// receive names the event it ran inside. Times are ns since session
// start.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent uint64 `json:"parent,omitempty"`
	Run    string `json:"run"`
}

// spanLog keeps a bounded sample of spans in memory.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(sp span) {
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, sp)
	}
}

// write saves the spans as JSON lines after a header line naming the
// code and machine they were measured on.
func (l *spanLog) write(path, header string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"stamp\":%q}\n", header)
	enc := json.NewEncoder(w)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer holds one traced run's per-layer totals.
type tracer struct {
	eng  *sim.Engine
	log  *spanLog
	name string

	compTime  [256]time.Duration
	compCount [256]uint64

	switchTime time.Duration
	switchPkts int64

	// Per-scheme receive totals, indexed by schemeIdx.
	rxTime [2]time.Duration
	rxPkts [2]int64
	// flowScheme[id] is 1 for flows on the active scheme, 0 for legacy.
	flowScheme []uint8
	schemeComp [2]sim.Component

	startTime time.Duration
}

func (t *tracer) sampled() bool { return t.eng.Processed%spanEvery == 0 }

func (t *tracer) nestedSpan(name string, start time.Time, d time.Duration) {
	s := start.Sub(t.log.origin).Nanoseconds()
	t.log.add(span{ID: t.eng.Processed<<1 | 1, Name: name, Start: s, End: s + d.Nanoseconds(),
		Parent: t.eng.Processed << 1, Run: t.name})
}

// switchTap times Switch.Receive for packets arriving at a switch.
type switchTap struct {
	sw *netem.Switch
	t  *tracer
}

func (w *switchTap) NodeID() netem.NodeID { return w.sw.NodeID() }

func (w *switchTap) Receive(pkt *netem.Packet) {
	start := time.Now()
	w.sw.Receive(pkt)
	d := time.Since(start)
	w.t.switchTime += d
	w.t.switchPkts++
	if w.t.sampled() {
		w.t.nestedSpan("netem/switch", start, d)
	}
}

// hostTap times Host.Receive (agent demux and the scheme's receive
// handler) and stamps the flow's scheme component around it, so timers
// a receive schedules are billed to the transport, not netem/deliver.
type hostTap struct {
	h *netem.Host
	t *tracer
}

func (w *hostTap) NodeID() netem.NodeID { return w.h.NodeID() }

func (w *hostTap) Receive(pkt *netem.Packet) {
	t := w.t
	k := 0
	if pkt.Flow < uint64(len(t.flowScheme)) {
		k = int(t.flowScheme[pkt.Flow])
	}
	prev := t.eng.SetComponent(t.schemeComp[k])
	start := time.Now()
	w.h.Receive(pkt)
	d := time.Since(start)
	t.eng.SetComponent(prev)
	t.rxTime[k] += d
	t.rxPkts[k]++
	if t.sampled() {
		t.nestedSpan("transport/rx", start, d)
	}
}

// tracedRun is what the traced assembly measured.
type tracedRun struct {
	digest     string
	flows      int
	incomplete int

	generate, build, setup time.Duration // setup excludes generate and build
	loop                   time.Duration

	events, observerTicks uint64
	pendingSum, pendingN  float64
	pendingMax            int

	dispatch          time.Duration // Σ every dispatched event
	netemEvents       time.Duration // Σ netem/* events (include nested receives)
	transportEvents   time.Duration // Σ transport/* events (timers)
	switchTime        time.Duration
	switchPkts        int64
	rxTime            [2]time.Duration
	rxPkts            [2]int64
	startTime         time.Duration
	schemes           [2]string
	ports             int
	pktHops           int64
	drops             int64
	creditsIssued     int64
	creditsGranted    int64
	creditsWasted     int64
	retransmits       int64
	timeouts          int64
	dropsRed, dropsCr int64
	dropsOther        int64
}

// runTraced assembles and runs sc (single engine, no faults, no
// observation planes) with the layer wrappers installed.
func runTraced(sc harness.Scenario, log *spanLog, name string) (tr tracedRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("traced run panicked: %v", r)
		}
	}()
	t0 := time.Now()
	eng := sim.NewEngine(sc.Seed)

	tg := time.Now()
	specs := harness.Flows(sc)
	tr.generate = time.Since(tg)

	// Deployment and the oWF oracle weight, as the harness derives them.
	hosts := sc.Clos.Hosts()
	rackOf := make([]int, hosts)
	for i := range rackOf {
		rackOf[i] = i / sc.Clos.HostsPerTor
	}
	enabled := workload.DeployRacks(hosts/sc.Clos.HostsPerTor, sc.Deployment)
	upgraded := func(f workload.FlowSpec) bool { return enabled[rackOf[f.Src]] && enabled[rackOf[f.Dst]] }
	var upBytes, totBytes float64
	for _, f := range specs {
		totBytes += float64(f.Size)
		if upgraded(f) {
			upBytes += float64(f.Size)
		}
	}
	oracleWQ := 0.5
	if totBytes > 0 {
		oracleWQ = upBytes / totBytes
	}
	oracleWQ = min(max(oracleWQ, 0.02), 0.98)

	opts := make(map[string]string, len(sc.SchemeOptions))
	for k, v := range sc.SchemeOptions {
		opts[k] = v
	}
	reg := obs.NewRegistry() // counters only; nothing samples it
	spec := sc.Spec
	spec.WQ = sc.WQ
	env := &transport.SchemeEnv{
		Eng: eng, LinkRate: sc.LinkRate, WQ: sc.WQ, OracleWQ: oracleWQ,
		Spec: spec, Registry: reg, Options: opts,
	}
	legacy, err := transport.NewScheme(transport.SchemeDCTCP, env)
	if err != nil {
		return tr, err
	}
	active, err := transport.NewScheme(string(sc.Scheme), env)
	if err != nil {
		return tr, err
	}
	tb := time.Now()
	fab := topo.Clos(eng, sc.Clos, topo.Params{
		LinkRate: sc.LinkRate, LinkDelay: sc.LinkDelay, HostDelay: sc.HostDelay,
		SwitchBuf: sc.SwitchBuf, BufAlpha: sc.BufAlpha, Profile: active.Profile(),
	})
	tr.build = time.Since(tb)
	agents := make([]*transport.Agent, hosts)
	strays := reg.Counter("transport/agent", "stray_packets")
	for i := range agents {
		agents[i] = transport.NewAgent(eng, fab.Net.Host(i))
		agents[i].ObserveStrays(strays)
	}
	fab.Net.Register(reg)

	t := &tracer{eng: eng, log: log, name: name, flowScheme: make([]uint8, len(specs)+1)}
	compLegacy := eng.Component("transport/" + transport.SchemeDCTCP)
	compActive := eng.Component("transport/" + string(sc.Scheme))
	t.schemeComp = [2]sim.Component{compLegacy, compActive}
	tr.schemes = [2]string{transport.SchemeDCTCP, string(sc.Scheme)}
	fab.Net.EachPort(func(p *netem.Port) {
		tr.ports++
		switch n := p.Peer().(type) {
		case *netem.Switch:
			p.Connect(&switchTap{sw: n, t: t})
		case *netem.Host:
			p.Connect(&hostTap{h: n, t: t})
		}
	})

	// Flow arrivals, scheduled exactly as harness.Run schedules them.
	var all []*transport.Flow
	incast := make(map[uint64]bool)
	prevComp := eng.SetComponent(eng.Component("harness/arrival"))
	for i, fs := range specs {
		fs := fs
		id := uint64(i + 1)
		if upgraded(fs) {
			t.flowScheme[id] = 1
		}
		eng.At(fs.At, func() {
			fl := &transport.Flow{ID: id, Src: agents[fs.Src], Dst: agents[fs.Dst], Size: fs.Size, Start: eng.Now()}
			all = append(all, fl)
			if fs.Incast {
				incast[id] = true
			}
			scheme, comp := legacy, compLegacy
			if upgraded(fs) {
				scheme, comp = active, compActive
			}
			prev := eng.SetComponent(comp)
			start := time.Now()
			scheme.Start(fl)
			t.startTime += time.Since(start)
			eng.SetComponent(prev)
		})
	}
	eng.SetComponent(prevComp)

	// Heap depth, sampled by a ticker that reads and draws nothing.
	compObs := eng.Component("flexbench/observer")
	eng.SetComponent(compObs)
	eng.Every(pendingEvery, func() {
		n := eng.Pending()
		tr.observerTicks++
		tr.pendingSum += float64(n)
		tr.pendingN++
		tr.pendingMax = max(tr.pendingMax, n)
	})
	eng.SetComponent(prevComp)

	names := eng.ComponentNames()
	eng.SetProfile(func(c sim.Component, d time.Duration) {
		t.compTime[c] += d
		t.compCount[c]++
		if t.sampled() {
			end := time.Since(log.origin).Nanoseconds()
			log.add(span{ID: eng.Processed << 1, Name: names[c], Start: end - d.Nanoseconds(), End: end, Run: name})
		}
	})
	tr.setup = time.Since(t0) - tr.generate - tr.build

	tl := time.Now()
	eng.Run(sc.Duration + sc.Drain)
	tr.loop = time.Since(tl)
	eng.SetProfile(nil)

	tr.events = eng.Processed - tr.observerTicks
	names = eng.ComponentNames()
	for c, d := range t.compTime {
		if t.compCount[c] == 0 || c == int(compObs) {
			continue
		}
		tr.dispatch += d
		switch {
		case strings.HasPrefix(names[c], "netem/"):
			tr.netemEvents += d
		case strings.HasPrefix(names[c], "transport/"):
			tr.transportEvents += d
		}
	}
	tr.switchTime, tr.switchPkts = t.switchTime, t.switchPkts
	tr.rxTime, tr.rxPkts = t.rxTime, t.rxPkts
	tr.startTime = t.startTime

	countPort := func(p *netem.Port) {
		tr.pktHops += p.Stats().TxPackets
		for q := 0; q < p.NumQueues(); q++ {
			st := p.QueueStats(q)
			tr.dropsRed += st.DroppedRed
			if p.QueueConfig(q).RateLimit > 0 {
				tr.dropsCr += st.DroppedOver
			} else {
				tr.dropsOther += st.DroppedOver
			}
		}
	}
	fab.Net.EachPort(countPort)
	tr.drops = tr.dropsRed + tr.dropsCr + tr.dropsOther
	env.EachCounters(func(_ string, c transport.Counters) {
		tr.creditsIssued += c.CreditsIssued.Value()
		tr.creditsGranted += c.CreditsGranted.Value()
		tr.creditsWasted += c.CreditsWasted.Value()
	})

	recs := make([]metrics.FlowRecord, 0, len(all))
	for _, fl := range all {
		recs = append(recs, metrics.Snapshot(fl, incast[fl.ID]))
		tr.retransmits += int64(fl.Retransmits)
		tr.timeouts += int64(fl.Timeouts)
		if !fl.Completed {
			tr.incomplete++
		}
	}
	tr.flows = len(specs)
	tr.incomplete += len(specs) - len(all)
	tr.digest = digestRecords(recs, tr.dropsRed, tr.dropsCr, tr.dropsOther)
	return tr, nil
}

// traceSession measures the per-layer metrics. The sim, netem,
// transport, workload, topo and harness layers come from the traced
// assembly of the selected workload's scenario (rpc_observed's for
// rpc_observed, paper_ws80's otherwise; a sharded run or a farm point
// cannot be assembled from outside). The Go runtime layer comes from an
// untraced run of the selected workload itself. The shard, observation
// plane, farm and lake layers each come from their home workload, the
// same in every session.
func (s *session) traceSession() error {
	plan, err := loadRPCPlan(s.dataDir)
	if err != nil {
		return err
	}
	log := &spanLog{origin: time.Now()}

	// run measures one scenario, counting it and checking it. A failed
	// run returns the zero sample (res == nil).
	run := func(what string, sc harness.Scenario) runSample {
		s.attempted++
		smp, err := measureRun(sc)
		if err != nil {
			s.fail("%s: %v", what, err)
			return runSample{}
		}
		return smp
	}

	// Go runtime, on the selected workload.
	var paper, sharded, rpcAll runSample
	var farmRun farmSample
	haveFarm := false
	base := sampleRuntime()
	switch s.workload {
	case wlPaper:
		paper = run("paper_ws80", paperScenario(s.seed))
	case wlPaperShards:
		sc := paperScenario(s.seed)
		sc.Shards = 2
		sharded = run("paper_ws80_shards2", sc)
	case wlRPC:
		rpcAll = run("rpc_observed", rpcScenario(s.seed, plan, true))
	case wlFarm:
		if farmRun, err = s.sweep(s.seed); err != nil {
			return err
		}
		haveFarm = true
	}
	rt := sampleRuntime().sub(base)
	s.set("runtime.gc_cpu_frac", "ratio", frac(rt.gcCPU, rt.totalCPU-rt.idleCPU))
	s.set("runtime.gc_cycles", "count", float64(rt.gcCycles))
	s.set("runtime.alloc_objects", "count", float64(rt.allocObjects))

	// Shard efficiency, seen from outside: the same traffic on one and
	// on two engines.
	if paper.res == nil {
		paper = run("paper_ws80", paperScenario(s.seed))
	}
	var shardRT runtimeSample
	if sharded.res == nil {
		sc := paperScenario(s.seed)
		sc.Shards = 2
		b := sampleRuntime()
		sharded = run("paper_ws80_shards2", sc)
		shardRT = sampleRuntime().sub(b)
	} else {
		shardRT = rt
	}
	s.set("shard.speedup", "ratio", frac(paper.loop, sharded.loop))
	s.set("shard.parallel_eff", "ratio", frac(sharded.cpu, sharded.loop*2))
	s.set("shard.idle_cpu_frac", "ratio", frac(shardRT.idleCPU, shardRT.totalCPU))
	s.set("shard.extra_events_frac", "ratio", frac(float64(sharded.events)-float64(paper.events), float64(paper.events)))

	// The planes-off rpc_observed run is the base of the plane overheads
	// and, for rpc_observed, the reference for the traced assembly.
	none := run("rpc_observed planes off", rpcScenario(s.seed, plan, false))

	// Layers inside one run, from the traced assembly.
	tsc, ref, tname := paperScenario(s.seed), paper, wlPaper
	if s.workload == wlRPC {
		tsc, ref, tname = rpcScenario(s.seed, plan, false), none, wlRPC
	}
	s.attempted++
	tr, err := runTraced(tsc, log, tname)
	switch {
	case err != nil:
		s.fail("traced %s: %v", tname, err)
	case tr.incomplete > 0:
		s.fail("traced %s: %d of %d flows incomplete", tname, tr.incomplete, tr.flows)
	case ref.res != nil && tr.digest != ref.digest:
		s.fail("traced %s: digest %s differs from harness.Run's %s", tname, tr.digest, ref.digest)
	case ref.res != nil && tr.events != ref.events:
		s.fail("traced %s: %d simulation events, harness.Run %d", tname, tr.events, ref.events)
	}
	s.logf("digest %s seed=%d: harness.Run %s, traced %s", tname, s.seed, ref.digest, tr.digest)
	s.setTraced(tr, ref)

	// Observation planes on rpc_observed: each plane alone, and all. No
	// plane may change a flow result.
	check := func(what string, smp runSample) {
		if smp.res != nil && none.res != nil && smp.digest != none.digest {
			s.fail("rpc_observed %s: digest %s differs from planes-off %s", what, smp.digest, none.digest)
		}
	}
	plane := func(what string, mut func(*harness.Scenario)) runSample {
		sc := rpcScenario(s.seed, plan, false)
		mut(&sc)
		smp := run("rpc_observed "+what, sc)
		check(what, smp)
		smp.res = nil // only the timings are needed; drop the artifact
		return smp
	}
	tel := plane("telemetry", func(sc *harness.Scenario) { sc.Telemetry = &obs.Options{} })
	prf := plane("profile", func(sc *harness.Scenario) { sc.Profile = true })
	frn := plane("forensics", func(sc *harness.Scenario) {
		*sc = rpcScenario(s.seed, plan, true)
		sc.Telemetry, sc.Profile = nil, false
	})
	if rpcAll.res == nil {
		rpcAll = run("rpc_observed all planes", rpcScenario(s.seed, plan, true))
	}
	check("all planes", rpcAll)
	over := func(x runSample) float64 { return frac(x.wall-none.wall, none.wall) }
	s.set("obs.telemetry_overhead_frac", "ratio", over(tel))
	s.set("prof.overhead_frac", "ratio", over(prf))
	s.set("forensics.overhead_frac", "ratio", over(frn))
	s.set("obs.observer_events", "count", float64(rpcAll.events)-float64(none.events))
	if rpcAll.res != nil && rpcAll.res.Telemetry != nil {
		n, d, err := artifactBytes(rpcAll.res.Telemetry)
		if err != nil {
			s.fail("serialize rpc_observed artifact: %v", err)
		}
		s.set("obs.export_s", "s", secs(d))
		s.set("obs.artifact_mb", "MB", float64(n)/1e6)
	} else {
		s.set("obs.export_s", "s", math.NaN())
		s.set("obs.artifact_mb", "MB", math.NaN())
	}
	rpcAll.res = nil

	// Farm and lake, on farm_sweep.
	if !haveFarm {
		if farmRun, err = s.sweep(s.seed); err != nil {
			return err
		}
	}
	s.set("farm.execute_s", "s", farmRun.execute)
	s.set("farm.point_ms_p50", "ms", median(farmRun.pointMS))
	s.set("farm.point_ms_max", "ms", maxOf(farmRun.pointMS))
	s.set("farm.worker_busy_frac", "ratio", frac(farmRun.busy, farmRun.execute*float64(farmRun.workers)))
	s.set("farm.resume_s", "s", farmRun.resume)
	s.set("farm.artifact_mb", "MB", farmRun.artifactMB)
	s.set("lake.ingest_rows_per_s", "1/s", frac(float64(farmRun.rows), farmRun.ingest))
	s.set("lake.query_s", "s", farmRun.query)

	path := filepath.Join(s.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.workload, s.seed))
	if err := log.write(path, stamp(s.seed)); err != nil {
		return err
	}
	s.logf("spans: %d sampled, written to %s", len(log.spans), path)
	return nil
}

// setTraced records the per-layer metrics of one traced assembly; ref is
// the untraced harness.Run of the same scenario.
func (s *session) setTraced(tr tracedRun, ref runSample) {
	ns := func(d time.Duration, n int64) float64 { return frac(float64(d.Nanoseconds()), float64(n)) }
	rx := tr.rxTime[0] + tr.rxTime[1]
	rxPkts := tr.rxPkts[0] + tr.rxPkts[1]
	self := tr.loop - tr.dispatch
	s.set("sim.events", "count", float64(tr.events))
	s.set("sim.self_s", "s", secs(self))
	s.set("sim.self_ns_per_event", "ns", ns(self, int64(tr.events)))
	s.set("sim.pending_mean", "count", frac(tr.pendingSum, tr.pendingN))
	s.set("sim.pending_max", "count", float64(tr.pendingMax))

	s.set("netem.switch_s", "s", secs(tr.switchTime))
	s.set("netem.switch_ns_per_pkt", "ns", ns(tr.switchTime, tr.switchPkts))
	s.set("netem.port_s", "s", secs(tr.netemEvents-tr.switchTime-rx))
	s.set("netem.pkt_hops", "count", float64(tr.pktHops))
	s.set("netem.drops", "count", float64(tr.drops))

	s.set("transport.rx_s", "s", secs(rx))
	s.set("transport.rx_pkts", "count", float64(rxPkts))
	s.set("transport.rx_ns_per_pkt", "ns", ns(rx, rxPkts))
	for k, name := range tr.schemes {
		if k == 1 && name == tr.schemes[0] {
			continue
		}
		s.set("transport."+name+".rx_ns_per_pkt", "ns", ns(tr.rxTime[k], tr.rxPkts[k]))
	}
	s.set("transport.timer_s", "s", secs(tr.transportEvents))
	s.set("transport.start_s", "s", secs(tr.startTime))
	s.set("transport.credit_useful_frac", "ratio", frac(float64(tr.creditsGranted-tr.creditsWasted), float64(tr.creditsIssued)))
	s.set("transport.retransmits", "count", float64(tr.retransmits))
	s.set("transport.timeouts", "count", float64(tr.timeouts))

	s.set("workload.generate_s", "s", secs(tr.generate))
	s.set("workload.flows", "count", float64(tr.flows))
	s.set("topo.build_s", "s", secs(tr.build))
	s.set("topo.ports", "count", float64(tr.ports))
	s.set("harness.setup_s", "s", secs(tr.setup))

	s.set("trace.overhead_frac", "ratio", frac(secs(tr.loop)-ref.loop, ref.loop))
}
