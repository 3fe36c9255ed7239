package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"

	"flexpass/internal/farm"
	"flexpass/internal/harness"
	"flexpass/internal/sim"
)

// tinyScenario is a sub-second run on the farm's tiny fabric.
func tinyScenario(scheme string) harness.Scenario {
	sc := harness.BaseScenario(false)
	sc.Clos = farm.Topologies["tiny"]
	sc.Scheme = harness.Scheme(scheme)
	sc.Duration = sim.Millisecond
	sc.Drain = 5 * sim.Millisecond
	return sc
}

func TestTracedDigestMatchesHarnessRun(t *testing.T) {
	for _, scheme := range []string{"flexpass", "dctcp"} {
		t.Run(scheme, func(t *testing.T) {
			sc := tinyScenario(scheme)
			ref, err := measureRun(sc)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(sc, &spanLog{}, scheme)
			if err != nil {
				t.Fatal(err)
			}
			if tr.incomplete != 0 || tr.flows == 0 {
				t.Fatalf("traced run: %d of %d flows incomplete", tr.incomplete, tr.flows)
			}
			if tr.digest != ref.digest {
				t.Fatalf("traced digest %s != harness.Run digest %s", tr.digest, ref.digest)
			}
			if tr.events != ref.events {
				t.Fatalf("traced run dispatched %d simulation events, harness.Run %d", tr.events, ref.events)
			}
		})
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkFile is the subset of BENCHMARK.json the tests read.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	s := newSession(wlPaper, 1, 0, "data", t.TempDir(), io.Discard)
	s.harnessWorkload([]harness.Scenario{tinyScenario("flexpass")}, nil)
	e2e := append([]string(nil), s.order...)
	tr, err := runTraced(tinyScenario("flexpass"), &spanLog{}, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	s.setTraced(tr, runSample{loop: 1})
	if s.failed != 0 {
		t.Fatalf("%d failures on a healthy run", s.failed)
	}
	for _, n := range s.order {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, metricName)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("declared metric name %q does not match %s", m.Name, metricName)
		}
		declared[m.Name] = m.Unit
	}
	if len(e2e) != len(bf.EndToEnd) {
		t.Errorf("end-to-end run reports %d metrics, BENCHMARK.json declares %d", len(e2e), len(bf.EndToEnd))
	}
	for _, n := range s.order {
		unit, ok := declared[n]
		if !ok {
			t.Errorf("metric %q is reported but not declared in BENCHMARK.json", n)
		} else if unit != s.metrics[n].Unit {
			t.Errorf("metric %q: unit %q, declared %q", n, s.metrics[n].Unit, unit)
		}
	}
}

func TestIncompleteRunCountsAsFailed(t *testing.T) {
	sc := tinyScenario("flexpass")
	sc.Drain = 0 // the event loop stops at the end of the arrival window
	s := newSession(wlPaper, 1, 0, "data", t.TempDir(), io.Discard)
	s.harnessWorkload([]harness.Scenario{sc}, nil)
	if s.failed == 0 || s.attempted == 0 {
		t.Fatalf("forced-incomplete run: %d failed of %d attempted, want failures", s.failed, s.attempted)
	}
	if s.failed < s.attempted {
		t.Fatalf("%d of %d forced-incomplete runs counted as failed", s.failed, s.attempted)
	}
}
