package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/phi"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Span [0,100]; children cover [10,50] (two overlapping), [60,70],
	// and [90,100] once clipped to the span: 60 covered, 40 self.
	children := [][2]int64{{20, 50}, {10, 30}, {60, 70}, {90, 120}, {-5, 0}}
	if got := selfTime(0, 100, children); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
	if got := selfTime(0, 100, [][2]int64{{0, 100}, {40, 60}}); got != 0 {
		t.Fatalf("selfTime fully covered = %d, want 0", got)
	}
}

func TestOpenLoopSubtractsGeneratorLateness(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	ol := openLoop{free: base}

	// Due at 0 on an idle connection; the generator woke 600µs late and
	// the lifecycle took 100µs (Lookup done after 40µs).
	s := ol.account(at(0), at(600), at(640), at(700))
	if s.late != us(600) || s.queueWait != 0 || s.lookup != us(40) || s.lifecycle != us(100) {
		t.Fatalf("late wake: got %+v", s)
	}
	// Due at 50: on time the connection would have been free at 100, so
	// it waited 50µs; it went out at 700 (behind the late one), so 600µs
	// of lateness carries over and is subtracted again.
	s = ol.account(at(50), at(700), at(730), at(800))
	if s.queueWait != us(50) || s.late != us(600) || s.lookup != us(80) || s.lifecycle != us(150) {
		t.Fatalf("queued behind a late wake: got %+v", s)
	}
	// Due at 1000, after the connection is free: sent 20µs late.
	s = ol.account(at(1000), at(1020), at(1050), at(1120))
	if s.queueWait != 0 || s.late != us(20) || s.lookup != us(30) || s.lifecycle != us(100) {
		t.Fatalf("on schedule: got %+v", s)
	}
}

func TestSameSeedSamePathSequence(t *testing.T) {
	for _, w := range workloads {
		a := newStream(w, 7, phaseFixed, 1)
		b := newStream(w, 7, phaseFixed, 1)
		c := newStream(w, 8, phaseFixed, 1)
		same, differ := true, false
		for i := 0; i < 2000; i++ {
			la, lb, lc := a.next(), b.next(), c.next()
			ga, gb, gc := a.gap(1000), b.gap(1000), c.gap(1000)
			same = same && la == lb && ga == gb
			differ = differ || la != lc || ga != gc
			if la.path < 0 || la.path >= w.paths {
				t.Fatalf("%s: path %d out of range", w.name, la.path)
			}
		}
		if !same {
			t.Errorf("%s: seed 7 produced two different sequences", w.name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 produced the same sequence", w.name)
		}
		if plantedTruth(7, 3) != plantedTruth(7, 3) || plantedTruth(7, 3) == plantedTruth(8, 3) {
			t.Errorf("%s: planted truth not a function of the seed", w.name)
		}
	}
}

func TestVerifyContextRejectsWrongQ(t *testing.T) {
	tr := truth{minRTT: 20 * sim.Millisecond, queue: 3 * sim.Millisecond}
	good := phi.Context{U: 0.4, Q: tr.queue - 1, N: 0}
	if err := verifyContext(good, tr); err != nil {
		t.Fatalf("correct context rejected: %v", err)
	}
	for name, ctx := range map[string]phi.Context{
		"q off by 2µs": {U: 0.4, Q: tr.queue + 2*sim.Microsecond},
		"q is avg rtt": {U: 0.4, Q: tr.minRTT + tr.queue},
		"sender left":  {U: 0.4, Q: tr.queue, N: 1},
		"u above 1":    {U: 1.2, Q: tr.queue},
	} {
		if err := verifyContext(ctx, tr); err == nil {
			t.Errorf("%s: wrong context accepted", name)
		}
	}
}

func TestTieLinksSpansAcrossLayers(t *testing.T) {
	r := newRecorder()
	// Connection 0: two client calls; connection 1: one, overlapping.
	r.client[0] = []span{{start: 0, end: 100, path: "a", lc: 1, op: opLookup}, {start: 110, end: 200, path: "a", lc: 1, op: opStart}}
	r.client[1] = []span{{start: 5, end: 90, path: "a", lc: 2, op: opLookup}}
	r.backend[0] = []span{{start: 10, end: 90, path: "a", op: opLookup}, {start: 120, end: 190, path: "a", op: opStart}}
	r.backend[1] = []span{{start: 20, end: 80, path: "a", op: opLookup}}
	r.shard[0] = []span{
		{start: 130, end: 140, path: "a", op: opStart}, // only connection 0's start contains it
		{start: 30, end: 40, path: "a", op: opLookup},  // both lookups contain it: ambiguous
	}
	for _, s := range [][]span{r.client[0], r.client[1], r.backend[0], r.backend[1], r.shard[0]} {
		for i := range s {
			s[i].parent = -1
		}
	}
	res := r.tie()
	if res.untied != 1 {
		t.Fatalf("untied = %d, want 1 (the ambiguous shard call)", res.untied)
	}
	kids := res.children()
	if len(kids[0]) != 1 || len(kids[1]) != 1 || len(kids[2]) != 1 {
		t.Fatalf("each client call should have one backend child: %v", kids)
	}
	startBackend := kids[1][0]
	if len(kids[int32(startBackend)]) != 1 || res.spans[kids[int32(startBackend)][0]].lc != 1 {
		t.Fatalf("shard call not tied to lifecycle 1's report_start: %v", kids)
	}
}

// TestInjectedLookupDelayTripsGate proves the benchmark's gate can fail:
// a Backend that busy-waits before every Lookup must push a gated
// end-to-end metric on spread-paths past its bound in BENCHMARK.json.
func TestInjectedLookupDelayTripsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the spread-paths workload twice")
	}
	gated := readBenchmark(t).EndToEnd
	w, err := findWorkload("spread-paths")
	if err != nil {
		t.Fatal(err)
	}
	run := func(delay time.Duration) result {
		cfg := config{wl: w, seed: 11, measure: 4 * time.Second, warm: time.Second, setups: 1, lookupDelay: delay}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || len(res.problems) != 0 {
			t.Fatalf("delay %v: run not correct: failed=%d %v", delay, res.failed, res.problems)
		}
		return res
	}
	base, slow := run(0), run(30*time.Microsecond)
	t.Logf("lookup_p50_us (not gated): %.1f bare, %.1f delayed",
		base.ungated["lookup_p50_us"].Value, slow.ungated["lookup_p50_us"].Value)
	var caught []string
	for _, m := range gated {
		b, s := base.e2e[m.Name].Value, slow.e2e[m.Name].Value
		worse := (s - b) / b
		if m.Better == "higher" {
			worse = (b - s) / b
		}
		t.Logf("%s: %.4g bare, %.4g delayed, %+.0f%% worse (bound %.0f%%)", m.Name, b, s, 100*worse, 100*m.Bound)
		if worse > m.Bound && m.Name != "setup_s" {
			caught = append(caught, m.Name)
		}
	}
	if len(caught) == 0 {
		t.Fatal("a 30µs busy delay on every Lookup passed every gated metric")
	}
}

// TestRunReportsEveryBenchmarkMetric runs short plain-cluster and fleet
// workloads untraced and traced, and checks that each run is correct and
// reports exactly the metrics BENCHMARK.json lists, with their units.
func TestRunReportsEveryBenchmarkMetric(t *testing.T) {
	b := readBenchmark(t)
	for _, name := range []string{"hot-paths", "long-flows"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			checkRun(t, b.EndToEnd, b.PerLayer, w, traced)
		}
	}
}

func checkRun(t *testing.T, e2e, layers []benchmarkMetric, w workload, traced bool) {
	t.Helper()
	cfg := config{wl: w, seed: 3, measure: time.Second, warm: 500 * time.Millisecond, setups: 2, trace: traced}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || len(res.problems) != 0 || res.attempted == 0 {
		t.Fatalf("%s trace=%v: attempted=%d failed=%d %v", w.name, traced, res.attempted, res.failed, res.problems)
	}
	got, want := res.e2e, e2e
	if traced {
		got, want = res.layers, layers
	}
	if len(got) != len(want) {
		t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d", w.name, traced, len(got), len(want))
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s trace=%v: metric %s reported as %+v, want unit %s", w.name, traced, m.Name, g, m.Unit)
		}
	}
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(t *testing.T) (b struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQuantilesInterpolateWithinBuckets(t *testing.T) {
	h := telemetry.NewHistogram()
	for v := int64(1000); v <= 2000; v++ {
		h.Record(v)
	}
	// Buckets here are 32ns wide; the exact median is 1500.
	if got := snapQuantile(h.Snapshot(), 0.5); got < 1500-32 || got > 1500+32 {
		t.Errorf("snapQuantile p50 = %.1f, want 1500 ± 32", got)
	}
	prev := &metrics.Float64Histogram{Counts: []uint64{0, 0, 0}, Buckets: []float64{0, 1, 2, math.Inf(1)}}
	cur := &metrics.Float64Histogram{Counts: []uint64{0, 10, 0}, Buckets: prev.Buckets}
	if got := histQuantile(prev, cur, 0.5); got != 1.5 {
		t.Errorf("histQuantile p50 = %v, want 1.5 (halfway through [1,2))", got)
	}
	cur.Counts = []uint64{0, 0, 5}
	if got := histQuantile(prev, cur, 0.5); got != 2 {
		t.Errorf("histQuantile p50 = %v, want 2 (lower edge of the unbounded bucket)", got)
	}
}
