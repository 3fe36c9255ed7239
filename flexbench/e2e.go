package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"flexpass/internal/farm"
	"flexpass/internal/harness"
	"flexpass/internal/lake"
)

// endToEnd runs the selected workload untraced for the session's time
// budget and records the end-to-end metrics.
func (s *session) endToEnd() error {
	switch s.workload {
	case wlPaper, wlPaperShards:
		shards := 0
		if s.workload == wlPaperShards {
			shards = 2
		}
		var scs []harness.Scenario
		for _, seed := range drawSeeds(s.seed, paperDraws) {
			sc := paperScenario(seed)
			sc.Shards = shards
			scs = append(scs, sc)
		}
		s.harnessWorkload(scs, nil)
	case wlRPC:
		plan, err := loadRPCPlan(s.dataDir)
		if err != nil {
			return err
		}
		var scs, twins []harness.Scenario
		for _, seed := range drawSeeds(s.seed, rpcDraws) {
			scs = append(scs, rpcScenario(seed, plan, true))
			twins = append(twins, rpcScenario(seed, plan, false))
		}
		s.harnessWorkload(scs, twins)
	case wlFarm:
		return s.farmWorkload()
	}
	return nil
}

// drawResult is one measured run (or sweep) of a traffic draw, reduced
// to the end-to-end quantities.
type drawResult struct {
	setup, wall, eventsPerS, cpu, allocMB float64
}

// cycleDraws calls run(i) for draws 0, 1, ..., n-1, 0, 1, ... until the
// time budget is spent and draw 0 has run twice, so at least one draw's
// digest or lake is checked against a repeat in every session.
func (s *session) cycleDraws(n int, run func(i int)) {
	start := time.Now()
	for r := 0; r <= n || time.Since(start) < s.seconds; r++ {
		run(r % n)
	}
}

// report records the end-to-end metrics. Per-run totals depend on the
// traffic, so wall, rate, CPU and allocation are means over draws of each
// draw's median; setup_s is the median over every run. work is the number
// of simulation runs one sample covers.
func (s *session) report(draws [][]drawResult, work int) {
	var setups []float64
	overDraws := func(f func(drawResult) float64) float64 {
		sum, n := 0.0, 0
		for _, rs := range draws {
			if len(rs) == 0 {
				continue // every run of the draw failed
			}
			vs := make([]float64, len(rs))
			for j, r := range rs {
				vs[j] = f(r)
			}
			sum += median(vs)
			n++
		}
		return sum / float64(n)
	}
	for _, rs := range draws {
		for _, r := range rs {
			setups = append(setups, r.setup)
		}
	}
	wall := overDraws(func(r drawResult) float64 { return r.wall })
	s.set("setup_s", "s", median(setups))
	s.set("wall_s", "s", wall)
	s.set("events_per_s", "1/s", overDraws(func(r drawResult) float64 { return r.eventsPerS }))
	s.set("cpu_s", "s", overDraws(func(r drawResult) float64 { return r.cpu }))
	s.set("alloc_mb", "MB", overDraws(func(r drawResult) float64 { return r.allocMB }))
	s.set("peak_rss_mb", "MB", peakRSSMB())
	// points_per_min is 60·work/wall_s, so it is printed but not gated:
	// a second bound on the same measurement would only double-count it.
	s.logf("points_per_min: %.6g 1/min", 60*float64(work)/wall)
}

// harnessWorkload measures one harness.Run per draw in turn. Every repeat
// of a draw must reproduce its first digest. When twins is set, twins[i]
// is scs[i] with the observation planes off, and its digest must equal
// the observed run's.
func (s *session) harnessWorkload(scs, twins []harness.Scenario) {
	draws := make([][]drawResult, len(scs))
	digests := make([]string, len(scs))
	s.cycleDraws(len(scs), func(i int) {
		sc := scs[i]
		s.attempted++
		smp, err := measureRun(sc)
		if err != nil {
			s.fail("seed %d: %v", sc.Seed, err)
			return
		}
		s.logf("run seed=%d: wall %.4f s, loop %.4f s, setup %.6f s, cpu %.4f s", sc.Seed, smp.wall, smp.loop, smp.setup, smp.cpu)
		switch {
		case digests[i] == "":
			digests[i] = smp.digest
			s.logf("digest seed=%d: %s (%d events)", sc.Seed, smp.digest, smp.events)
			if twins != nil {
				s.checkTwin(twins[i], smp.digest)
			}
		case smp.digest != digests[i]:
			s.fail("seed %d: digest %s differs from first run's %s", sc.Seed, smp.digest, digests[i])
		}
		draws[i] = append(draws[i], drawResult{
			setup: smp.setup, wall: smp.wall, eventsPerS: float64(smp.events) / smp.loop,
			cpu: smp.cpu, allocMB: smp.allocMB,
		})
	})
	s.report(draws, 1)
}

// checkTwin runs a planes-off twin once: the observation planes must not
// change any flow result.
func (s *session) checkTwin(twin harness.Scenario, digest string) {
	s.attempted++
	smp, err := measureRun(twin)
	if err != nil {
		s.fail("planes-off twin seed %d: %v", twin.Seed, err)
		return
	}
	if smp.digest != digest {
		s.fail("planes-off twin seed %d: digest %s differs from observed run's %s", twin.Seed, smp.digest, digest)
	}
}

// farmSample is one measured sweep: execute, resume, ingest, query.
type farmSample struct {
	setup      float64 // spec parse + point expansion, s
	execute    float64 // farm.Execute wall, s
	cpu        float64
	allocMB    float64
	points     int
	events     int64   // engine events over every point
	loop       float64 // event-loop seconds over every point
	pointMS    []float64
	busy       float64 // Σ point elapsed, s
	workers    int
	resume     float64
	artifactMB float64
	ingest     float64
	rows       int
	query      float64
	index      *lake.Index
}

// loadSweep parses the checked-in sweep spec, moves its seed axis to the
// seed-th block of that many seeds (seed 1 runs the spec as checked in),
// and expands it into points.
func (s *session) loadSweep(seed int64) ([]farm.Point, error) {
	spec, err := farm.ParseSpecFile(filepath.Join(s.dataDir, farmSpecFile))
	if err != nil {
		return nil, err
	}
	shift := (seed - 1) * int64(len(spec.Seeds))
	for i := range spec.Seeds {
		spec.Seeds[i] += shift
	}
	return spec.Points()
}

// sweep runs the checked-in spec once into a fresh lake under the work
// directory, resumes it, ingests and queries the result, and removes the
// lake. Each failed point and each failed check counts as a failure.
func (s *session) sweep(seed int64) (farmSample, error) {
	var fs farmSample
	// Parsing and expanding the spec takes a fraction of a millisecond, so
	// one timing is mostly noise: repeat it and keep the median.
	var points []farm.Point
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		var err error
		if points, err = s.loadSweep(seed); err != nil {
			return fs, err
		}
		setups[i] = secs(time.Since(t0))
	}
	fs.setup = median(setups)
	fs.points = len(points)
	dir, err := os.MkdirTemp(s.workDir, "lake-")
	if err != nil {
		return fs, err
	}
	defer os.RemoveAll(dir)

	var mu sync.Mutex // Execute reports progress from every worker
	progress := func(ev farm.ProgressEvent) {
		if ev.Kind != farm.EventRan && ev.Kind != farm.EventFailed {
			return
		}
		mu.Lock()
		fs.pointMS = append(fs.pointMS, float64(ev.Elapsed)/float64(time.Millisecond))
		fs.busy += secs(ev.Elapsed)
		mu.Unlock()
	}
	s.attempted += len(points)
	fs.workers = min(runtime.GOMAXPROCS(0), len(points)) // farm.Execute's default pool
	runtime.GC()
	before := readRuntime()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	rep, err := farm.Execute(points, dir, farm.Options{Workers: fs.workers, Progress: progress})
	fs.execute = secs(time.Since(t0))
	fs.cpu = cpuSeconds() - cpu0
	fs.allocMB = float64(readRuntime().sub(before).allocBytes) / 1e6
	if err != nil {
		return fs, fmt.Errorf("execute: %w", err)
	}
	for _, f := range rep.Failures {
		s.fail("farm point %s: %s", f.Label, f.Error)
	}

	t0 = time.Now()
	again, err := farm.Execute(points, dir, farm.Options{})
	fs.resume = secs(time.Since(t0))
	if err != nil {
		return fs, fmt.Errorf("resume: %w", err)
	}
	if again.Skipped != len(points) || again.Ran != 0 {
		s.fail("resume skipped %d and re-ran %d of %d points", again.Skipped, again.Ran, len(points))
	}

	runs := filepath.Join(dir, lake.RunsDir)
	entries, err := os.ReadDir(runs)
	if err != nil {
		return fs, err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			fs.artifactMB += float64(info.Size()) / 1e6
		}
	}

	t0 = time.Now()
	ix := &lake.Index{}
	if _, errs := ix.IngestDir(runs); len(errs) > 0 {
		s.fail("lake ingest: %v", errs[0])
	}
	ix.Sort()
	fs.ingest = secs(time.Since(t0))
	fs.rows = len(ix.Rows)
	if fs.rows != len(points) {
		s.fail("lake holds %d rows for %d points", fs.rows, len(points))
	}
	for _, r := range ix.Rows {
		fs.events += r.Events
		fs.loop += r.WallMS / 1000
	}

	t0 = time.Now()
	tab, err := ix.Run(lake.Query{
		GroupBy: []string{"scheme", "load"},
		Aggs:    []lake.Agg{{Col: "fct_p99_us", Fn: "p99"}, {Col: "goodput_gbps", Fn: "mean"}},
	})
	fs.query = secs(time.Since(t0))
	if err != nil {
		s.fail("lake query: %v", err)
	} else if len(tab.Rows) == 0 {
		s.fail("lake query returned no groups")
	}
	fs.index = ix
	return fs, nil
}

// farmWorkload runs one sweep per draw in turn. Each sweep's lake must
// equal its draw's first lake under a zero-tolerance diff.
func (s *session) farmWorkload() error {
	seeds := drawSeeds(s.seed, farmDraws)
	draws := make([][]drawResult, len(seeds))
	first := make([]*lake.Index, len(seeds))
	points := 0
	var err error
	s.cycleDraws(len(seeds), func(i int) {
		if err != nil {
			return
		}
		var fs farmSample
		if fs, err = s.sweep(seeds[i]); err != nil {
			return
		}
		points = fs.points
		s.logf("sweep seed=%d: execute %.4f s, setup %.6f s, cpu %.4f s", seeds[i], fs.execute, fs.setup, fs.cpu)
		if first[i] == nil {
			first[i] = fs.index
			s.logf("sweep seed=%d: %d points, %d rows, %d events", seeds[i], fs.points, fs.rows, fs.events)
		} else if d, derr := lake.Diff(first[i], fs.index, lake.Tolerance{}, nil); derr != nil {
			s.fail("lake diff: %v", derr)
		} else if !d.Clean() {
			s.fail("sweep seed=%d: lake diff against its first sweep is not clean", seeds[i])
		}
		draws[i] = append(draws[i], drawResult{
			setup: fs.setup, wall: fs.execute, eventsPerS: float64(fs.events) / fs.loop,
			cpu: fs.cpu, allocMB: fs.allocMB,
		})
	})
	if err != nil {
		return err
	}
	s.report(draws, points)
	return nil
}
