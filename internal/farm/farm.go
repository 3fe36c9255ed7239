// Package farm is the experiment orchestrator behind cmd/flexfarm: it
// expands a JSON sweep spec — lists over scheme, scheme options,
// topology, workload, load, deployment, wq, fault plan, and seed —
// into the cross-product of scenarios, executes them across a worker
// pool (one harness.Run per worker), and lands every run as a
// content-addressed obs JSONL artifact ready for lake ingestion.
//
// Three properties make sweeps safe to run at scale:
//
//   - Content addressing: an artifact is named by the hash of its
//     canonicalized scenario point, so the same point always lands in
//     the same file and two spec edits never collide.
//   - Resumability: a point whose artifact already exists, parses
//     cleanly, and carries the matching scenario hash in its manifest
//     is skipped; corrupt or mismatched artifacts are re-run in place.
//   - Failure isolation: a panicking or erroring scenario becomes a
//     failure record in failures.jsonl — it never kills the sweep.
package farm

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flexpass/internal/faults"
	"flexpass/internal/harness"
	"flexpass/internal/lake"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/topo"
	"flexpass/internal/transport"
	"flexpass/internal/workload"
)

// Topologies names the fabrics a sweep spec may reference.
var Topologies = map[string]topo.ClosParams{
	// tiny: 4 hosts in 2 racks — for orchestrator tests and smoke sweeps.
	"tiny": {Pods: 2, AggPerPod: 1, TorPerPod: 1, HostsPerTor: 2, Cores: 1},
	// small: the repo's scaled 48-host Clos (tests and benchmarks).
	"small": topo.SmallClos,
	// paper: the §6.2 192-host fabric.
	"paper": topo.PaperClos,
	// big: the 768-host fabric for parallel-engine scaling runs.
	"big": topo.BigClos,
}

// Spec is a JSON sweep specification. Every list axis cross-multiplies;
// empty axes default to one neutral value, so a minimal spec is just
// {"scheme": ["flexpass"]}.
type Spec struct {
	Name string `json:"name,omitempty"`

	Schemes    []string            `json:"scheme"`
	Options    []map[string]string `json:"options,omitempty"`  // per-scheme option maps; default [{}]
	Topologies []string            `json:"topology,omitempty"` // default ["small"]
	// Workloads axis entries are either distribution names ("websearch")
	// or workload-plan files (anything ending in .json, parsed with
	// workload.ParsePlanFile). Plan entries enter the point identity by
	// content hash, so renaming a plan file does not re-run the sweep.
	Workloads   []string  `json:"workload,omitempty"`   // default ["websearch"]
	Loads       []float64 `json:"load,omitempty"`       // default [0.5]
	Deployments []float64 `json:"deployment,omitempty"` // default [0.5]
	WQs         []float64 `json:"wq,omitempty"`         // default [0.5]
	Seeds       []int64   `json:"seed,omitempty"`       // default [1]
	Shards      []int     `json:"shards,omitempty"`     // parallel-engine shard counts; default [0] = single engine

	// Faults lists fault timelines: "" (or omitted) is a clean run, a
	// path ending in .json is a plan file, anything else is the
	// faults.ParseSpec CLI shorthand.
	Faults []string `json:"fault,omitempty"`

	DurationMS     float64 `json:"duration_ms,omitempty"` // arrival window; default 2
	DrainMS        float64 `json:"drain_ms,omitempty"`    // default 5x duration
	IncastFraction float64 `json:"incast,omitempty"`
	PoolPackets    bool    `json:"pool_packets,omitempty"`

	// baseDir anchors relative plan-file entries (workload and fault
	// axes) when the spec came from a file, so checked-in specs work
	// from any working directory. ParseSpec (bytes) leaves it empty:
	// paths then resolve against the process cwd.
	baseDir string
}

// resolvePath anchors a relative plan-file path at the spec's directory.
func (s *Spec) resolvePath(p string) string {
	if s.baseDir == "" || filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(s.baseDir, p)
}

// ParseSpec decodes and validates a sweep spec. Unknown fields are
// rejected so a typo'd axis fails loudly instead of sweeping nothing.
func ParseSpec(data []byte) (*Spec, error) {
	return parseSpec(data, "")
}

func parseSpec(data []byte, baseDir string) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("farm: bad sweep spec: %w", err)
	}
	s.baseDir = baseDir
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseSpecFile reads and validates the sweep spec at path, defaulting
// the sweep name to the file stem. Relative plan-file entries in the
// workload and fault axes resolve against the spec file's directory.
func ParseSpecFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseSpec(data, filepath.Dir(path))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return s, nil
}

// Validate checks every axis value against its registry: scheme names,
// topology labels, workload names, probability-like knobs, and fault
// entries (plan files are parsed here, so a broken plan fails the spec,
// not the sweep).
func (s *Spec) Validate() error {
	if len(s.Schemes) == 0 {
		return fmt.Errorf("farm: spec has no schemes")
	}
	registered := map[string]bool{}
	for _, n := range transport.SchemeNames() {
		registered[n] = true
	}
	for _, sch := range s.Schemes {
		if !registered[sch] {
			return fmt.Errorf("farm: unknown scheme %q (registered: %s)", sch, strings.Join(transport.SchemeNames(), ", "))
		}
	}
	for _, t := range s.Topologies {
		if _, ok := Topologies[t]; !ok {
			return fmt.Errorf("farm: unknown topology %q (want tiny, small, paper, big)", t)
		}
	}
	for _, w := range s.Workloads {
		if strings.HasSuffix(w, ".json") {
			if _, err := workload.ParsePlanFile(s.resolvePath(w)); err != nil {
				return fmt.Errorf("farm: workload plan %q: %w", w, err)
			}
			continue
		}
		if workload.ByName(w) == nil {
			return fmt.Errorf("farm: unknown workload %q", w)
		}
	}
	for _, l := range s.Loads {
		if l <= 0 || l > 1 {
			return fmt.Errorf("farm: load %g outside (0,1]", l)
		}
	}
	for _, d := range s.Deployments {
		if d < 0 || d > 1 {
			return fmt.Errorf("farm: deployment %g outside [0,1]", d)
		}
	}
	for _, w := range s.WQs {
		if w <= 0 || w >= 1 {
			return fmt.Errorf("farm: wq %g outside (0,1)", w)
		}
	}
	if s.DurationMS < 0 || s.DrainMS < 0 {
		return fmt.Errorf("farm: negative duration")
	}
	for _, n := range s.Shards {
		if n < 0 {
			return fmt.Errorf("farm: shards %d negative", n)
		}
	}
	for _, f := range s.Faults {
		if f == "" {
			continue
		}
		if _, err := s.resolveFault(f); err != nil {
			return fmt.Errorf("farm: fault %q: %w", f, err)
		}
	}
	return nil
}

// resolveFault turns a spec fault entry into a plan: a *.json path is
// a plan file, anything else the CLI shorthand.
func (s *Spec) resolveFault(entry string) (*faults.Plan, error) {
	if strings.HasSuffix(entry, ".json") {
		data, err := os.ReadFile(s.resolvePath(entry))
		if err != nil {
			return nil, err
		}
		p, err := faults.ParsePlan(data)
		if err != nil {
			return nil, err
		}
		if p.Name == "" {
			p.Name = strings.TrimSuffix(filepath.Base(entry), ".json")
		}
		return p, nil
	}
	return faults.ParseSpec(entry)
}

// Point is one expanded scenario of a sweep: the coordinates on every
// axis. Its canonical JSON form is the content address of the run.
type Point struct {
	Sweep   string            `json:"sweep,omitempty"`
	Scheme  string            `json:"scheme"`
	Options map[string]string `json:"options,omitempty"`
	Topo    string            `json:"topology"`
	// Workload is the spec entry: a distribution name, or a plan file
	// path kept for display; WorkloadHash is the resolved plan's content
	// hash and, when set, the part that enters the identity (so a
	// renamed plan file with the same sources is the same point).
	Workload     string  `json:"workload"`
	WorkloadHash string  `json:"workload_hash,omitempty"`
	Load         float64 `json:"load"`
	Deployment   float64 `json:"deployment"`
	WQ           float64 `json:"wq"`
	Seed         int64   `json:"seed"`
	// Shards selects the parallel engine (0 = single engine). Omitted
	// when zero so pre-sharding point hashes are unchanged.
	Shards int `json:"shards,omitempty"`
	// Fault is the spec entry for display; FaultHash is the resolved
	// plan's content hash and the part that enters the identity (so a
	// renamed plan file with the same timeline is the same point).
	Fault     string `json:"fault,omitempty"`
	FaultHash string `json:"fault_hash,omitempty"`

	DurationMS     float64 `json:"duration_ms"`
	DrainMS        float64 `json:"drain_ms"`
	IncastFraction float64 `json:"incast,omitempty"`
	PoolPackets    bool    `json:"pool_packets,omitempty"`

	plan  *faults.Plan
	wplan *workload.Plan
}

// Hash is the point's content address: sha256 over the canonical JSON
// form with the display-only fault and workload-plan entries blanked
// (their identities ride on FaultHash / WorkloadHash). Go marshals
// struct fields in declaration order and maps with sorted keys, so the
// encoding is canonical.
func (p Point) Hash() string {
	p.Fault = ""
	p.plan = nil
	p.wplan = nil
	if p.WorkloadHash != "" {
		p.Workload = ""
	}
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("farm: hashing point: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// Label is a compact human identity for logs and failure records.
func (p Point) Label() string {
	l := fmt.Sprintf("%s/%s/%s load=%g dep=%g wq=%g seed=%d",
		p.Scheme, p.Topo, p.Workload, p.Load, p.Deployment, p.WQ, p.Seed)
	if len(p.Options) > 0 {
		l += " " + lake.OptionsString(p.Options)
	}
	if p.Fault != "" {
		l += " fault=" + p.Fault
	}
	if p.Shards > 0 {
		l += fmt.Sprintf(" shards=%d", p.Shards)
	}
	return l
}

// Scenario builds the harness scenario for the point, stamping the
// scenario hash, topology label, and sweep name into the manifest so
// the lake can key on them.
func (p Point) Scenario() harness.Scenario {
	sc := harness.BaseScenario(false)
	sc.Clos = Topologies[p.Topo]
	sc.Scheme = harness.Scheme(p.Scheme)
	sc.SchemeOptions = p.Options
	if p.wplan != nil {
		sc.Workload = nil
		sc.WorkloadPlan = p.wplan
	} else {
		sc.Workload = workload.ByName(p.Workload)
	}
	sc.Load = p.Load
	sc.Deployment = p.Deployment
	sc.WQ = p.WQ
	sc.Seed = p.Seed
	sc.Shards = p.Shards
	sc.Duration = sim.Time(p.DurationMS * float64(sim.Millisecond))
	sc.Drain = sim.Time(p.DrainMS * float64(sim.Millisecond))
	sc.IncastFraction = p.IncastFraction
	sc.PoolPackets = p.PoolPackets
	sc.FaultPlan = p.plan
	sc.Telemetry = &obs.Options{}
	sc.ManifestConfig = map[string]string{
		"scenario_hash": p.Hash(),
		"topo":          p.Topo,
		"sweep":         p.Sweep,
	}
	return sc
}

// orDefault returns the axis or its single-value default.
func orDefault[T any](axis []T, def T) []T {
	if len(axis) == 0 {
		return []T{def}
	}
	return axis
}

// Points expands the spec's cross-product in a fixed axis order
// (scheme, options, topology, workload, load, deployment, wq, fault,
// seed, shards), resolving every fault entry once.
func (s *Spec) Points() ([]Point, error) {
	opts := s.Options
	if len(opts) == 0 {
		opts = []map[string]string{nil}
	}
	topos := orDefault(s.Topologies, "small")
	wls := orDefault(s.Workloads, "websearch")
	loads := orDefault(s.Loads, 0.5)
	deps := orDefault(s.Deployments, 0.5)
	wqs := orDefault(s.WQs, 0.5)
	seeds := orDefault(s.Seeds, 1)
	shards := orDefault(s.Shards, 0)
	fault := orDefault(s.Faults, "")

	durMS := s.DurationMS
	if durMS == 0 {
		durMS = 2
	}
	drainMS := s.DrainMS
	if drainMS == 0 {
		drainMS = 5 * durMS
	}

	plans := make([]*faults.Plan, len(fault))
	hashes := make([]string, len(fault))
	for i, f := range fault {
		if f == "" {
			continue
		}
		p, err := s.resolveFault(f)
		if err != nil {
			return nil, fmt.Errorf("farm: fault %q: %w", f, err)
		}
		plans[i], hashes[i] = p, p.Hash()
	}
	wplans := make([]*workload.Plan, len(wls))
	whashes := make([]string, len(wls))
	for i, w := range wls {
		if !strings.HasSuffix(w, ".json") {
			continue
		}
		p, err := workload.ParsePlanFile(s.resolvePath(w))
		if err != nil {
			return nil, fmt.Errorf("farm: workload plan %q: %w", w, err)
		}
		wplans[i], whashes[i] = p, p.Hash()
	}

	var pts []Point
	for _, sch := range s.Schemes {
		for _, opt := range opts {
			for _, tp := range topos {
				for wi, wl := range wls {
					for _, load := range loads {
						for _, dep := range deps {
							for _, wq := range wqs {
								for fi, f := range fault {
									for _, seed := range seeds {
										for _, nsh := range shards {
											pts = append(pts, Point{
												Sweep: s.Name, Scheme: sch, Options: opt,
												Topo: tp, Workload: wl,
												WorkloadHash: whashes[wi],
												Load:         load, Deployment: dep, WQ: wq,
												Seed: seed, Shards: nsh,
												Fault: f, FaultHash: hashes[fi],
												DurationMS: durMS, DrainMS: drainMS,
												IncastFraction: s.IncastFraction,
												PoolPackets:    s.PoolPackets,
												plan:           plans[fi],
												wplan:          wplans[wi],
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// Failure is one isolated scenario failure, recorded in
// failures.jsonl. Attempt and ElapsedMS make retried and timed-out
// points auditable after a soak: Attempt is how many executions the
// point got before being given up on, ElapsedMS the wall-clock cost of
// the last one.
type Failure struct {
	Hash      string  `json:"hash"`
	Label     string  `json:"label"`
	Point     Point   `json:"point"`
	Error     string  `json:"error"`
	Attempt   int     `json:"attempt"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Report summarizes one Execute call.
type Report struct {
	Total    int       // points in the sweep
	Ran      int       // executed this call
	Skipped  int       // valid artifact already present
	Canceled bool      // the context was canceled before every point was dispatched
	Failures []Failure // failed this call
}

// Options tunes Execute.
type Options struct {
	Workers int  // worker pool size; <=0 means GOMAXPROCS
	Force   bool // re-run points even when a valid artifact exists
	// Progress, when non-nil, receives one typed event per point
	// transition: started when a worker picks a point up, then exactly
	// one of ran / skipped / failed. Execute invokes it concurrently
	// from worker goroutines — it must be safe for concurrent use
	// (Tracker.Observe is; compose consumers with Fanout).
	Progress func(ProgressEvent)

	// PointTimeout, when positive, bounds each point's execution: the
	// scenario runs under a harness deadline of this much wall clock,
	// and a hard backstop at ~2x abandons even a run whose engine never
	// reaches a watchdog poll (wedged outside the dispatch loop). A
	// timed-out point becomes an ordinary failure; the sweep continues.
	PointTimeout time.Duration

	// Retries is how many additional executions a failing point gets
	// before it is recorded in failures.jsonl (0 = fail on the first
	// error). Retries target transient host-level trouble; a
	// deterministic scenario panic will simply fail Retries+1 times.
	Retries int

	// Backoff is the wait before the first retry, doubling with each
	// subsequent one. Zero defaults to 250ms.
	Backoff time.Duration

	// Ctx, when non-nil, cancels the sweep cooperatively: once done, no
	// new point is dispatched and no retry waits out its backoff, but
	// in-flight points drain, failures.jsonl is flushed, and the index
	// is rebuilt — so an interrupted sweep resumes exactly where it
	// stopped. Nil means run to completion.
	Ctx context.Context
}

// Execute runs every point against the lake directory layout
// (<dir>/runs/<hash>.jsonl), resuming past valid artifacts, isolating
// failures, and finally rebuilding <dir>/index.json. The failure log
// is rewritten each call to hold exactly the still-failing points.
func Execute(points []Point, dir string, opt Options) (*Report, error) {
	runsDir := filepath.Join(dir, lake.RunsDir)
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	progress := opt.Progress
	if progress == nil {
		progress = func(ProgressEvent) {}
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	rep := &Report{Total: len(points)}
	var mu sync.Mutex
	jobs := make(chan Point)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for pt := range jobs {
				hash := pt.Hash()
				label := pt.Label()
				path := filepath.Join(runsDir, hash+".jsonl")
				if !opt.Force && artifactValid(path, hash) {
					mu.Lock()
					rep.Skipped++
					mu.Unlock()
					progress(ProgressEvent{Kind: EventSkipped, Worker: worker, Hash: hash, Label: label})
					continue
				}
				progress(ProgressEvent{Kind: EventStarted, Worker: worker, Hash: hash, Label: label})
				var err error
				var elapsed time.Duration
				attempt := 0
				for {
					attempt++
					start := time.Now()
					err = runPoint(pt, path, attempt, opt.PointTimeout)
					elapsed = time.Since(start)
					if err == nil || attempt > opt.Retries || ctx.Err() != nil {
						break
					}
					// Exponential backoff between attempts; a canceled
					// context skips the wait and gives up on the point.
					wait := opt.Backoff
					if wait <= 0 {
						wait = 250 * time.Millisecond
					}
					wait <<= uint(attempt - 1)
					timer := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						timer.Stop()
					case <-timer.C:
					}
					if ctx.Err() != nil {
						break
					}
				}
				mu.Lock()
				if err != nil {
					rep.Failures = append(rep.Failures, Failure{
						Hash: hash, Label: label, Point: pt, Error: err.Error(),
						Attempt:   attempt,
						ElapsedMS: float64(elapsed) / float64(time.Millisecond),
					})
					mu.Unlock()
					progress(ProgressEvent{Kind: EventFailed, Worker: worker, Hash: hash, Label: label,
						Err: err.Error(), Elapsed: elapsed})
					continue
				}
				rep.Ran++
				mu.Unlock()
				progress(ProgressEvent{Kind: EventRan, Worker: worker, Hash: hash, Label: label, Elapsed: elapsed})
			}
		}(w)
	}
dispatch:
	for _, pt := range points {
		// select picks at random among ready cases, so check for
		// cancellation first: an idle worker must not win over it.
		if ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		select {
		case jobs <- pt:
		case <-ctx.Done():
			rep.Canceled = true
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	sort.Slice(rep.Failures, func(i, j int) bool { return rep.Failures[i].Hash < rep.Failures[j].Hash })
	if err := writeFailures(filepath.Join(dir, FailuresFile), rep.Failures); err != nil {
		return rep, err
	}
	ix := &lake.Index{}
	if _, errs := ix.IngestDir(runsDir); len(errs) > 0 {
		return rep, fmt.Errorf("farm: indexing: %v", errs[0])
	}
	ix.Sort()
	if err := ix.WriteTo(dir); err != nil {
		return rep, err
	}
	return rep, nil
}

// FailuresFile names the per-lake failure log.
const FailuresFile = "failures.jsonl"

// artifactValid reports whether an existing artifact can be resumed
// past: it must parse cleanly end-to-end and its manifest must carry
// the expected scenario hash. Anything else — missing, torn mid-write,
// or produced by a different spec revision — is re-run.
func artifactValid(path, hash string) bool {
	run, err := obs.ReadJSONLFile(path)
	if err != nil || run == nil {
		return false
	}
	return run.Manifest.Config["scenario_hash"] == hash
}

// runScenario is the harness entry point, indirected so tests can
// substitute a hung or failing scenario without building one out of
// simulator primitives.
var runScenario = harness.Run

// runPoint executes one scenario attempt and lands its artifact
// atomically (tmp + rename). With a timeout it adds two layers of
// supervision: the harness deadline watchdog kills the engine
// cooperatively at timeout, and a hard backstop at ~2x abandons the
// worker goroutine entirely if the run wedged somewhere the watchdog
// cannot reach; an abandoned run is barred from landing its artifact,
// so a timed-out point never masquerades as a completed one.
func runPoint(pt Point, path string, attempt int, timeout time.Duration) error {
	if timeout <= 0 {
		return executePoint(pt, path, attempt, 0, nil)
	}
	backstop := 2 * timeout
	if backstop < timeout+time.Second {
		backstop = timeout + time.Second
	}
	var abandoned atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- executePoint(pt, path, attempt, timeout, &abandoned)
	}()
	timer := time.NewTimer(backstop)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		abandoned.Store(true)
		return fmt.Errorf("point wedged: no result after %v (deadline %v; engine watchdog unreachable)", backstop, timeout)
	}
}

// executePoint runs the scenario, converting panics — harness.Run
// panics on scenario contract violations, and the deadline/stall
// watchdog panics with *harness.KilledError — into ordinary errors.
func executePoint(pt Point, path string, attempt int, deadline time.Duration, abandoned *atomic.Bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ke, ok := r.(*harness.KilledError); ok {
				err = ke
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	sc := pt.Scenario()
	sc.Deadline = deadline
	if attempt > 0 {
		// The attempt count rides in the manifest config so the lake's
		// attempts column can report how many executions a point took.
		sc.ManifestConfig["attempts"] = strconv.Itoa(attempt)
	}
	res := runScenario(sc)
	if res.Telemetry == nil {
		return fmt.Errorf("run produced no telemetry artifact")
	}
	if abandoned != nil && abandoned.Load() {
		return fmt.Errorf("run finished after the backstop abandoned it; artifact discarded")
	}
	tmp := path + ".tmp"
	if err := res.Telemetry.WriteJSONLFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// writeFailures rewrites the failure log (one JSON object per line).
// An empty failure set removes the file, so a fully clean resume
// leaves no stale log behind.
func writeFailures(path string, failures []Failure) error {
	if len(failures) == 0 {
		err := os.Remove(path)
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, fl := range failures {
		if err := enc.Encode(fl); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
