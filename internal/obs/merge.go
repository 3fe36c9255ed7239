package obs

// MergeRuns folds several per-shard run artifacts into one, under a
// caller-provided manifest. Sharded runs give each shard its own
// Registry and Prober (counters are plain int64s owned by one
// goroutine), collect each shard with Collect after the fabric drains,
// and merge here:
//
//   - Counters with the same (entity, metric, kind) are summed, keeping
//     first-seen order — so pass the shards in shard order and the merged
//     artifact is deterministic.
//   - Histograms with the same (entity, metric) sum their counts and
//     observation sums and merge their sparse bucket lists by bound.
//   - Series with the same (entity, metric, kind, interval, start) and
//     equal length are summed pointwise; any other series is appended
//     as-is (per-port series have disjoint entities across shards and
//     take this path).
//
// Trace, forensics, and fault lines are not merged here — callers attach
// those from their own merged sources (trace.Merge, the fault log). A
// single run is returned itself, with its manifest replaced by m.
func MergeRuns(m Manifest, runs ...*Run) *Run {
	m.Schema = SchemaVersion
	if len(runs) == 1 && runs[0] != nil {
		runs[0].Manifest = m
		return runs[0]
	}
	out := &Run{Manifest: m}
	type seriesKey struct {
		entity, metric, kind string
		intervalPs, startPs  int64
	}
	cIdx := map[CounterData]int{}
	hIdx := map[[2]string]int{}
	sIdx := map[seriesKey]int{}
	for _, r := range runs {
		if r == nil {
			continue
		}
		for _, c := range r.Counters {
			key := c
			key.Value = 0
			if j, ok := cIdx[key]; ok {
				out.Counters[j].Value += c.Value
				continue
			}
			cIdx[key] = len(out.Counters)
			out.Counters = append(out.Counters, c)
		}
		for _, h := range r.Hists {
			key := [2]string{h.Entity, h.Metric}
			if j, ok := hIdx[key]; ok {
				dst := &out.Hists[j]
				dst.Count += h.Count
				dst.Sum += h.Sum
				dst.Le, dst.Counts = mergeSparse(dst.Le, dst.Counts, h.Le, h.Counts)
				continue
			}
			hIdx[key] = len(out.Hists)
			h.Le = append([]int64(nil), h.Le...)
			h.Counts = append([]int64(nil), h.Counts...)
			out.Hists = append(out.Hists, h)
		}
		for _, s := range r.Series {
			key := seriesKey{s.Entity, s.Metric, s.Kind, s.IntervalPs, s.StartPs}
			if j, ok := sIdx[key]; ok && len(out.Series[j].Values) == len(s.Values) {
				dst := &out.Series[j]
				dst.Dropped += s.Dropped
				for i, v := range s.Values {
					dst.Values[i] += v
				}
				continue
			}
			if _, ok := sIdx[key]; !ok {
				sIdx[key] = len(out.Series)
			}
			s.Values = append([]int64(nil), s.Values...)
			out.Series = append(out.Series, s)
		}
	}
	return out
}

// mergeSparse merges two sparse (bound, count) lists sorted by ascending
// bound, summing counts on shared bounds.
func mergeSparse(le, counts, le2, counts2 []int64) ([]int64, []int64) {
	var mle, mcounts []int64
	i, j := 0, 0
	for i < len(le) || j < len(le2) {
		switch {
		case j >= len(le2) || (i < len(le) && le[i] < le2[j]):
			mle, mcounts = append(mle, le[i]), append(mcounts, counts[i])
			i++
		case i >= len(le) || le2[j] < le[i]:
			mle, mcounts = append(mle, le2[j]), append(mcounts, counts2[j])
			j++
		default:
			mle, mcounts = append(mle, le[i]), append(mcounts, counts[i]+counts2[j])
			i, j = i+1, j+1
		}
	}
	return mle, mcounts
}
