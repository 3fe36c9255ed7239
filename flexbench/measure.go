package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set in MB (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports. CPU classes are the runtime's own estimates and are only
// refreshed at GC boundaries, so callers bracket a measured interval
// with runtime.GC (see sampleRuntime).
type runtimeSample struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64
	idleCPU      float64
	totalCPU     float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes:   u(0),
		allocObjects: u(1),
		gcCycles:     u(2),
		gcCPU:        f(3),
		idleCPU:      f(4),
		totalCPU:     f(5),
	}
}

// sub returns the counter deltas r - base.
func (r runtimeSample) sub(base runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes:   r.allocBytes - base.allocBytes,
		allocObjects: r.allocObjects - base.allocObjects,
		gcCycles:     r.gcCycles - base.gcCycles,
		gcCPU:        r.gcCPU - base.gcCPU,
		idleCPU:      r.idleCPU - base.idleCPU,
		totalCPU:     r.totalCPU - base.totalCPU,
	}
}

// sampleRuntime forces a GC so the runtime's CPU-class estimates are
// current, then reads every counter.
func sampleRuntime() runtimeSample {
	runtime.GC()
	return readRuntime()
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func secs(d time.Duration) float64 { return d.Seconds() }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
