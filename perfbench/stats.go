package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place. An empty sample reads 0.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSnap is a runtime/metrics reading taken at a phase boundary.
type runtimeSnap struct {
	allocs                   uint64
	gcCPU, totalCPU, idleCPU float64
	gcPauses, schedLatencies *metrics.Float64Histogram
	liveBytes                uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeSnap{
		allocs:         s[0].Value.Uint64(),
		gcCPU:          s[1].Value.Float64(),
		totalCPU:       s[2].Value.Float64(),
		idleCPU:        s[3].Value.Float64(),
		gcPauses:       copyHist(s[4].Value.Float64Histogram()),
		schedLatencies: copyHist(s[5].Value.Float64Histogram()),
		liveBytes:      s[6].Value.Uint64(),
	}
}

// copyHist detaches a histogram from the runtime's reused buffer.
func copyHist(h *metrics.Float64Histogram) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
}

// histQuantile is the q-quantile, in seconds, of the samples added to a
// runtime histogram between prev and cur, interpolated linearly within
// the bucket that holds it (the unbounded last bucket reads its lower
// edge). No samples read 0.
func histQuantile(prev, cur *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(cur.Counts))
	for i := range counts {
		counts[i] = cur.Counts[i] - prev.Counts[i]
	}
	return interpolate(counts, q, func(i int) (float64, float64) { return cur.Buckets[i], cur.Buckets[i+1] })
}

// snapQuantile is the q-quantile, in nanoseconds, of a telemetry
// histogram snapshot, interpolated linearly within its bucket. The
// bucket edges follow telemetry's log-linear layout: values below 32
// exactly, then 32 equal sub-buckets per power of two.
func snapQuantile(s *telemetry.HistSnapshot, q float64) float64 {
	const sub = 32
	return interpolate(s.Buckets[:], q, func(i int) (float64, float64) {
		if i < sub {
			return float64(i), float64(i + 1)
		}
		exp := uint(5 + (i-sub)/sub)
		lo := float64(uint64(1)<<exp + uint64((i-sub)%sub)<<(exp-5))
		return lo, lo + float64(uint64(1)<<(exp-5))
	})
}

// interpolate finds the bucket holding the q-quantile of counts and
// places it linearly between that bucket's edges.
func interpolate(counts []uint64, q float64, edges func(i int) (lo, hi float64)) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := edges(i)
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(rank-seen)/float64(c)
	}
	lo, _ := edges(len(counts) - 1)
	return lo
}
