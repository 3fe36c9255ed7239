package chaos

import (
	"fmt"

	"flexpass/internal/farm"
	"flexpass/internal/forensics"
	"flexpass/internal/harness"
	"flexpass/internal/obs"
	"flexpass/internal/sim"
	"flexpass/internal/workload"
)

// Outcome classifies one trial. Precedence when several oracles fire:
// killed/error (the run did not finish cleanly) over violation (an
// auditor invariant broke) over incomplete (flows never finished) over
// strays (recovery leaked packets).
type Outcome string

const (
	OutcomePass       Outcome = "pass"
	OutcomeViolation  Outcome = "violation"  // forensics auditor invariant broke
	OutcomeIncomplete Outcome = "incomplete" // flows unfinished after the drain
	OutcomeStrays     Outcome = "strays"     // stray-packet count over the oracle bound
	OutcomeKilled     Outcome = "killed"     // watchdog deadline/stall kill
	OutcomeError      Outcome = "error"      // run panicked
)

// Verdict is one trial's oracle evaluation.
type Verdict struct {
	Outcome Outcome `json:"outcome"`
	Detail  string  `json:"detail,omitempty"`

	Violations        int   `json:"violations,omitempty"`
	ViolationsDropped int64 `json:"violations_dropped,omitempty"`
	Incomplete        int   `json:"incomplete,omitempty"`
	Strays            int64 `json:"strays,omitempty"`
}

// Failed reports whether the verdict is anything but a pass.
func (v Verdict) Failed() bool { return v.Outcome != OutcomePass }

// Evaluate applies the oracle thresholds to a finished run. The
// forensics auditors are hard oracles: any recorded violation — or any
// violation dropped over the retention cap — fails the trial.
func Evaluate(res *harness.Result, o OracleSpec) Verdict {
	v := Verdict{Outcome: OutcomePass}
	if res.Forensics != nil {
		v.Violations = len(res.Forensics.Violations)
		v.ViolationsDropped = res.Forensics.ViolationsDropped
	}
	v.Incomplete = res.Flows.Incomplete()
	v.Strays = strayCount(res.Telemetry)
	switch {
	case v.Violations > 0:
		v.Outcome = OutcomeViolation
		v.Detail = res.Forensics.Violations[0].String()
	case v.ViolationsDropped > 0:
		v.Outcome = OutcomeViolation
		v.Detail = fmt.Sprintf("%d violations dropped over the auditor retention cap", v.ViolationsDropped)
	case o.requireCompletion() && v.Incomplete > 0:
		v.Outcome = OutcomeIncomplete
		v.Detail = fmt.Sprintf("%d of %d flows incomplete after drain", v.Incomplete, len(res.Flows.Records))
	case o.maxStrays() >= 0 && v.Strays > o.maxStrays():
		v.Outcome = OutcomeStrays
		v.Detail = fmt.Sprintf("stray_packets = %d > %d", v.Strays, o.maxStrays())
	}
	return v
}

// strayCount sums the transport agents' stray-packet counters out of
// the run artifact.
func strayCount(run *obs.Run) int64 {
	if run == nil {
		return 0
	}
	var n int64
	for _, c := range run.Counters {
		if c.Entity == "transport/agent" && c.Metric == "stray_packets" {
			n += c.Value
		}
	}
	return n
}

// Scenario builds the harness scenario for these coordinates. The
// forensics plane — the auditor oracles — rides along on single-engine
// trials; sharded trials run completion and stray oracles only
// (forensics requires a single engine).
func (c Coords) Scenario(o OracleSpec) harness.Scenario {
	sc := harness.BaseScenario(false)
	clos, ok := farm.Topologies[c.Topo]
	if !ok {
		panic(fmt.Sprintf("chaos: unknown topology %q", c.Topo))
	}
	sc.Clos = clos
	sc.Scheme = harness.Scheme(c.Scheme)
	sc.Workload = workload.ByName(c.Workload)
	if sc.Workload == nil {
		panic(fmt.Sprintf("chaos: unknown workload %q", c.Workload))
	}
	sc.Load = c.Load
	sc.Deployment = c.Deployment
	sc.Seed = c.Seed
	sc.Shards = c.Shards
	sc.Duration = sim.Time(c.DurationMS * float64(sim.Millisecond))
	sc.Drain = sim.Time(c.DrainMS * float64(sim.Millisecond))
	sc.Telemetry = &obs.Options{}
	sc.ManifestConfig = map[string]string{"topo": c.Topo}
	if c.Shards <= 1 {
		fo := &forensics.Options{}
		if o.StarveAfterMS > 0 {
			fo.StarveAfter = sim.Time(o.StarveAfterMS * float64(sim.Millisecond))
		}
		sc.Forensics = fo
	}
	return sc
}
