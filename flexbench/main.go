// Command flexbench is the repository's benchmark: it runs one named
// workload through the simulator's public entry points (harness.Run,
// farm.Execute, the lake), checks the outputs, and prints every metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate traced session reports the per-layer ones.
// See BENCHMARK.md beside this file for the metric table and how to run
// it (normally through run.sh, which builds this package first).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flexpass/internal/obs"
)

// metricValue is one reported number and its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// session accumulates one benchmark invocation's metrics and failures.
type session struct {
	workload string
	seed     int64
	seconds  time.Duration
	dataDir  string // checked-in plan and spec files
	workDir  string // scratch space for farm lakes and span files
	out      io.Writer

	attempted, failed int
	order             []string
	metrics           map[string]metricValue
}

func newSession(workload string, seed int64, seconds time.Duration, dataDir, workDir string, out io.Writer) *session {
	return &session{
		workload: workload, seed: seed, seconds: seconds,
		dataDir: dataDir, workDir: workDir, out: out,
		metrics: make(map[string]metricValue),
	}
}

func (s *session) logf(format string, args ...any) {
	fmt.Fprintf(s.out, format+"\n", args...)
}

// fail records one failed operation.
func (s *session) fail(format string, args ...any) {
	s.failed++
	s.logf("FAIL: "+format, args...)
}

// set records a metric; the first call for a name fixes its print order.
// A value that is not a finite number (nothing was measured) is recorded
// as 0 and counted as a failure.
func (s *session) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.fail("metric %s was not measured", name)
		v = 0
	}
	if _, ok := s.metrics[name]; !ok {
		s.order = append(s.order, name)
	}
	s.metrics[name] = metricValue{Value: v, Unit: unit}
}

// stamp identifies the code and machine every output was produced on.
func stamp(seed int64) string {
	rev := obs.RepoRevision()
	if rev == "" {
		rev = "unknown"
	}
	return fmt.Sprintf("revision=%s go=%s cpus=%d gomaxprocs=%d seed=%d",
		rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed)
}

func main() {
	var (
		wl      = flag.String("workload", wlPaper, "workload: paper_ws80, paper_ws80_shards2, rpc_observed, farm_sweep")
		seed    = flag.Int64("seed", 1, "seed the workload's traffic is drawn from")
		seconds = flag.Int("seconds", 25, "seconds to keep measuring (every traffic draw still runs once, and the first twice)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced session")
		dataDir = flag.String("data", filepath.Join("flexbench", "data"), "directory holding the checked-in plan and sweep spec")
		workDir = flag.String("work", filepath.Join(".bench_build", "flexbench"), "scratch directory for farm lakes and span files")
	)
	flag.Parse()
	s, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traced, *dataDir, *workDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flexbench:", err)
		os.Exit(2)
	}
	if s.failed > 0 {
		os.Exit(1)
	}
}

// run executes one invocation. Configuration errors return an error and
// print no result; measured failures are counted in the session and
// printed in the result with correct=false.
func run(wl string, seed int64, seconds time.Duration, traced int, dataDir, workDir string, out io.Writer) (*session, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == wl
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (have %v)", wl, workloadNames)
	}
	if traced != 0 && traced != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	s := newSession(wl, seed, seconds, dataDir, workDir, out)
	s.logf("flexbench workload=%s trace=%d %s", wl, traced, stamp(seed))

	var err error
	if traced == 1 {
		err = s.traceSession()
	} else {
		err = s.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	if s.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	s.print()
	return s, nil
}

// print writes the metric table and, last, the JSON result line.
func (s *session) print() {
	s.logf("%-34s %16s  %s", "metric", "value", "unit")
	for _, n := range s.order {
		m := s.metrics[n]
		s.logf("%-34s %16.6g  %s", n, m.Value, m.Unit)
	}
	s.logf("%-34s %16.6g  %s   (%d failed of %d attempted)", "failed_frac",
		frac(float64(s.failed), float64(s.attempted)), "ratio", s.failed, s.attempted)
	b, err := json.Marshal(result{
		Correct:   s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   s.metrics,
	})
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(s.out, string(b))
}
