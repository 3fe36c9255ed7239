package harness

import (
	"fmt"
	"runtime"
	"testing"

	"flexpass/internal/live"
)

// TestProfileDigestIdentical pins the profiler's and the live board's
// behaviour-neutrality contract at one and two shards: enabling
// self-profiling and the live status board must leave the flow digest
// bit-identical to a plain run of the same scenario, while still
// attributing events to the expected components and publishing a final
// status consistent with the result.
func TestProfileDigestIdentical(t *testing.T) {
	// liveEvents1 is the single-engine event count with Live set (plain
	// run plus the prober and live/status ticker events), recorded on
	// linux/amd64, go1.24.
	const liveEvents1 = 1654355
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sc := schemeDigestScenario(SchemeFlexPass)
			sc.Shards = shards
			plain := recordsDigest(Run(sc))

			sc.Profile = true
			board := &live.RunBoard{}
			sc.Live = board
			res := Run(sc)

			if got := recordsDigest(res); got != plain {
				t.Fatalf("profiled digest %s != plain digest %s — profiling changed behaviour", got, plain)
			}
			if shards == 1 && runtime.GOARCH == "amd64" && res.Events != liveEvents1 {
				t.Fatalf("live single-engine run dispatched %d events, recorded %d", res.Events, liveEvents1)
			}

			byName := map[string]uint64{}
			var total uint64
			for _, cp := range res.Profile {
				byName[cp.Component] = cp.Events
				total += cp.Events
			}
			for _, want := range []string{"transport/flexpass", "transport/dctcp", "netem/tx", "harness/arrival", "live/status"} {
				if byName[want] == 0 {
					t.Errorf("no events attributed to %q (profile: %v)", want, byName)
				}
			}
			if total != res.Events {
				t.Fatalf("profiler observed %d events, run dispatched %d", total, res.Events)
			}

			// The live board saw the run finish with consistent flow counts.
			st := board.Status()
			if !st.Done {
				t.Fatalf("final board status not done: %+v", st)
			}
			if st.Events != res.Events {
				t.Fatalf("board events %d != result events %d", st.Events, res.Events)
			}
			if st.FlowsTotal == 0 || st.FlowsDone == 0 || st.FlowsDone > st.FlowsTotal {
				t.Fatalf("implausible board flow counts: %+v", st)
			}
			if st.SimNowPs != int64(sc.Duration+sc.Drain) {
				t.Fatalf("final board sim time %d, want run end %d", st.SimNowPs, int64(sc.Duration+sc.Drain))
			}
			if len(board.Readings()) == 0 {
				t.Fatal("board published no metric readings")
			}
		})
	}
}
