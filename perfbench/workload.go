package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
)

// workload is one traffic mix: which paths lifecycles touch, how many
// progress reports each lifecycle carries, which stack serves it, and the
// offered rate of the fixed-rate phase.
type workload struct {
	name     string
	paths    int
	zipfS    float64 // Zipf exponent over path indices; 0 draws paths uniformly
	progress int     // ReportProgress calls per lifecycle
	fleet    bool    // primary/backup fleet stack instead of a plain cluster
	rate     float64 // fixed-rate phase, lifecycles/s over both connections
}

var workloads = []workload{
	{name: "hot-paths", paths: 64, zipfS: 1.2, rate: 4000},
	{name: "spread-paths", paths: 100000, rate: 8000},
	{name: "long-flows", paths: 1000, progress: 8, fleet: true, rate: 2000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// keys names the workload's paths; index i is path i everywhere.
func (w workload) keys() []phi.PathKey {
	keys := make([]phi.PathKey, w.paths)
	for i := range keys {
		keys[i] = phi.PathKey(fmt.Sprintf("%s/p-%d", w.name, i))
	}
	return keys
}

// meanBytes is the mean transfer size of one lifecycle.
const meanBytes = 1 << 20

// lifecycle is one generated connection: the path it runs on and the
// bytes it moves.
type lifecycle struct {
	path  int
	bytes int64
}

// Stream phases: each (phase, connection) pair draws from its own
// seeded stream, so the fixed-rate inputs do not depend on how many
// lifecycles the closed-loop phase happened to complete.
const (
	phaseClosed = 1
	phaseFixed  = 2
)

// stream generates one connection's lifecycles and arrival gaps.
type stream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	paths int
}

func newStream(w workload, seed int64, phase, conn int) *stream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*7919 + int64(conn)))
	s := &stream{rng: rng, paths: w.paths}
	if w.zipfS > 0 {
		s.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.paths-1))
	}
	return s
}

func (s *stream) next() lifecycle {
	var p int
	if s.zipf != nil {
		p = int(s.zipf.Uint64())
	} else {
		p = s.rng.Intn(s.paths)
	}
	return lifecycle{path: p, bytes: int64(s.rng.ExpFloat64()*meanBytes) + 1}
}

// gap draws a Poisson inter-arrival time at rate arrivals/s.
func (s *stream) gap(rate float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
}

// truth is a path's planted state: every report on the path carries
// MinRTT = minRTT and AvgRTT = minRTT + queue, so a correct server
// estimates Q = queue exactly.
type truth struct {
	minRTT, queue sim.Time
}

// plantedTruth derives path idx's truth from the seed alone.
func plantedTruth(seed int64, idx int) truth {
	h := splitmix64(uint64(seed)<<24 ^ uint64(idx))
	return truth{
		minRTT: 5*sim.Millisecond + sim.Time(h%40_000)*sim.Microsecond,
		queue:  sim.Time((h>>32)%20_000) * sim.Microsecond,
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// reports splits a lifecycle's bytes into its progress reports and its
// final report, all carrying the path's planted RTTs.
func (t truth) report(bytes int64) phi.Report {
	return phi.Report{
		Bytes:    bytes,
		Duration: sim.Time(float64(bytes) * 8 / 1e9 * float64(sim.Second)),
		AvgRTT:   t.minRTT + t.queue,
		MinRTT:   t.minRTT,
	}
}
