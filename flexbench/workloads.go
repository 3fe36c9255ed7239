package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"time"

	"flexpass/internal/forensics"
	"flexpass/internal/harness"
	"flexpass/internal/metrics"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/workload"
)

// Workload names. Each one's reason for being in the benchmark is in
// BENCHMARK.json and BENCHMARK.md beside this file.
const (
	wlPaper       = "paper_ws80"
	wlPaperShards = "paper_ws80_shards2"
	wlRPC         = "rpc_observed"
	wlFarm        = "farm_sweep"
)

var workloadNames = []string{wlPaper, wlPaperShards, wlRPC, wlFarm}

// Checked-in traffic, relative to the data directory.
const (
	rpcPlanFile  = "rpc-observed.json"
	farmSpecFile = "farm-sweep.json"
	drawSeedStep = 1000 // seed distance between the traffic draws of one run
	paperDraws   = 4
	rpcDraws     = 5
	farmDraws    = 3
	setupReps    = 25 // spec parses timed per sweep
)

// drawSeeds returns the scenario seeds one benchmark run measures: the
// run seed itself plus draws-1 further traffic draws. Averaging over
// several draws keeps the heavy-tailed web-search size distribution from
// dominating the run-to-run spread of per-run totals.
func drawSeeds(seed int64, draws int) []int64 {
	out := make([]int64, draws)
	for i := range out {
		out[i] = seed + int64(i)*drawSeedStep
	}
	return out
}

// paperScenario is the ROADMAP reference run: `flexsim -topo paper
// -load 0.8 -duration 3` (192 hosts, FlexPass at 50% deployment,
// web-search Poisson at 0.8 core load, 3 ms arrival window).
func paperScenario(seed int64) harness.Scenario {
	sc := harness.BaseScenario(false)
	sc.Seed = seed
	sc.Clos = topo.PaperClos
	sc.Scheme = harness.SchemeFlexPass
	sc.Deployment = 0.5
	sc.Load = 0.8
	sc.Duration = 3 * sim.Millisecond
	return sc
}

// rpcScenario runs the checked-in tenant mix on the 48-host fabric with
// every observation plane on when planes is set, and none otherwise.
func rpcScenario(seed int64, plan *workload.Plan, planes bool) harness.Scenario {
	sc := harness.BaseScenario(false)
	sc.Seed = seed
	sc.Clos = topo.SmallClos
	sc.Scheme = harness.SchemeFlexPass
	sc.Deployment = 0.5
	sc.Workload = nil
	sc.WorkloadPlan = plan
	sc.Duration = 15 * sim.Millisecond
	if planes {
		sc.Telemetry = &obs.Options{}
		sc.Forensics = &forensics.Options{}
		sc.Profile = true
	}
	return sc
}

func loadRPCPlan(dataDir string) (*workload.Plan, error) {
	return workload.ParsePlanFile(filepath.Join(dataDir, rpcPlanFile))
}

// digestRecords hashes every flow record plus the fabric drop totals,
// the same fields the harness's golden digest tests hash. Two runs
// match iff their flow-visible results are identical.
func digestRecords(recs []metrics.FlowRecord, dropsRed, dropsCredit, dropsOther int64) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wb := func(b bool) {
		if b {
			w(1)
		} else {
			w(0)
		}
	}
	for _, r := range recs {
		w(int64(r.ID))
		w(r.Size)
		w(int64(r.Start))
		w(int64(r.FCT))
		wb(r.Completed)
		wb(r.Legacy)
		w(int64(len(r.Transport)))
		h.Write([]byte(r.Transport))
		w(int64(r.Timeouts))
		w(int64(r.Retransmits))
		w(int64(r.ProRetx))
		w(int64(r.Redundant))
		w(r.MaxReorderB)
		w(r.RxBytes)
	}
	w(dropsRed)
	w(dropsCredit)
	w(dropsOther)
	return fmt.Sprintf("%016x", h.Sum64())
}

func resultDigest(res *harness.Result) string {
	return digestRecords(res.Flows.Records, res.DropsRed, res.DropsCredit, res.DropsOther)
}

// checkComplete fails a run unless every generated flow started and
// completed.
func checkComplete(res *harness.Result, want int) error {
	if got := len(res.Flows.Records); got != want {
		return fmt.Errorf("%d of %d flows started", got, want)
	}
	if n := res.Flows.Incomplete(); n > 0 {
		return fmt.Errorf("%d of %d flows incomplete", n, want)
	}
	return nil
}

// runSample is one measured harness.Run.
type runSample struct {
	setup   float64 // harness.Run wall minus event-loop wall, s
	wall    float64 // harness.Run wall plus artifact serialization, s
	loop    float64 // event-loop wall (Result.WallClock), s
	cpu     float64 // process user+sys CPU, s
	allocMB float64 // Go heap bytes allocated, MB
	events  uint64
	digest  string
	res     *harness.Result
}

// countingWriter discards bytes and counts them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// measureRun executes one scenario and checks it: every flow completes,
// and with forensics on, the auditors report no violation and dropped
// none. A panicking run is reported as an error. With telemetry on the
// artifact is serialized (to a byte counter) inside the timed interval.
func measureRun(sc harness.Scenario) (s runSample, err error) {
	want := len(harness.Flows(sc))
	runtime.GC()
	before := readRuntime()
	cpu0 := cpuSeconds()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	t0 := time.Now()
	res := harness.Run(sc)
	runWall := time.Since(t0)
	if res.Telemetry != nil {
		if _, _, werr := artifactBytes(res.Telemetry); werr != nil {
			return s, fmt.Errorf("serialize artifact: %w", werr)
		}
	}
	wall := time.Since(t0)
	s = runSample{
		setup:   secs(runWall - res.WallClock),
		wall:    secs(wall),
		loop:    secs(res.WallClock),
		cpu:     cpuSeconds() - cpu0,
		allocMB: float64(readRuntime().sub(before).allocBytes) / 1e6,
		events:  res.Events,
		digest:  resultDigest(res),
		res:     res,
	}
	if err := checkComplete(res, want); err != nil {
		return s, err
	}
	if f := res.Forensics; f != nil {
		if len(f.Violations) > 0 || f.ViolationsDropped > 0 {
			return s, fmt.Errorf("forensics: %d violations, %d dropped", len(f.Violations), f.ViolationsDropped)
		}
	}
	return s, nil
}

// artifactBytes serializes a run's telemetry artifact to a byte counter
// and returns its size and the time the serialization took.
func artifactBytes(run *obs.Run) (int64, time.Duration, error) {
	var cw countingWriter
	t0 := time.Now()
	err := run.WriteJSONL(&cw)
	return cw.n, time.Since(t0), err
}
