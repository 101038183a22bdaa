// Command perfbench is the repository's serving-path benchmark. It builds
// the real stack in-process — phiwire.Server → cluster.Frontend →
// cluster.Shard or fleet.Member → phi.Server — drives it over loopback
// TCP from two client connections, checks every served context against
// a planted truth, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as one JSON object on the last line of stdout.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot-paths --seed 1 --seconds 14 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and why each
// was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// config is one benchmark run.
type config struct {
	wl          workload
	seed        int64
	measure     time.Duration // split evenly over the two measured phases
	warm        time.Duration // before each measured phase
	setups      int           // stack builds; setup_s is their median
	trace       bool
	lookupDelay time.Duration
	spansDir    string // where a traced run writes its spans ("" = nowhere)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured.
type result struct {
	e2e       map[string]metric
	ungated   map[string]metric // printed in the table only; see README
	layers    map[string]metric
	samples   map[string]int // sample count behind each percentile metric
	attempted uint64
	failed    uint64
	problems  []string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot-paths, spread-paths or long-flows")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 14, "measured seconds, split over the fixed-rate and closed-loop phases")
		traceOn = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hot-paths|spread-paths|long-flows, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		wl:       wl,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		warm:     estimationWindow,
		setups:   31,
		trace:    *traceOn == 1,
		spansDir: filepath.Join(".bench_build", "spans"),
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := res.e2e
	if cfg.trace {
		metrics = res.layers
	}
	fmt.Printf("workload=%s seed=%d trace=%v attempted=%d failed=%d fail_frac=%g\n",
		cfg.wl.name, cfg.seed, cfg.trace, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	printTable(os.Stdout, res, metrics)
	fmt.Println("not gated (see README):")
	printTable(os.Stdout, res, res.ungated)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0 && res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(res.problems) > 0 || res.failed > 0 {
		os.Exit(1)
	}
}

// printTable writes the human-readable summary: every metric with its
// unit, and the sample count behind each percentile.
func printTable(f *os.File, res result, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		if k, ok := res.samples[n]; ok {
			fmt.Fprintf(f, "  %-36s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, k)
		} else {
			fmt.Fprintf(f, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
}

// runWorkload builds the stack, runs the closed-loop and fixed-rate
// phases, checks correctness and computes the metrics.
func runWorkload(cfg config) (result, error) {
	wl := cfg.wl
	keys := wl.keys()
	truths := make([]truth, wl.paths)
	for i := range truths {
		truths[i] = plantedTruth(cfg.seed, i)
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	opt := stackOptions{rec: rec, lookupDelay: cfg.lookupDelay}

	// Set-up, several times: the median is setup_s; the last stack serves.
	var s *stack
	setups := make([]int64, cfg.setups)
	for i := range setups {
		t0 := time.Now()
		st, err := buildStack(wl, opt)
		if err != nil {
			return result{}, err
		}
		setups[i] = int64(time.Since(t0))
		if i < len(setups)-1 {
			st.close()
		} else {
			s = st
		}
	}
	defer s.close()

	senders := make([]*sender, conns)
	for c := range senders {
		senders[c] = &sender{conn: c, client: s.clients[c], keys: keys, truths: truths, steps: wl.progress, rec: rec}
	}
	streams := func(phase int) []*stream {
		out := make([]*stream, conns)
		for c := range out {
			out[c] = newStream(wl, cfg.seed, phase, c)
		}
		return out
	}
	half := cfg.measure / 2
	prefill(senders, wl.paths)

	// Fixed rate first: warm up for the window at the workload's rate,
	// then measure; the generator drains every lifecycle before
	// returning. It runs before the closed loop because the drop from
	// closed-loop throughput to the fixed rate is a volume dip the
	// fleet's health monitor would localize, in the measured window.
	fixed := streams(phaseFixed)
	start := time.Now()
	from := start.Add(cfg.warm)
	end := from.Add(half)
	done := make(chan []fixedSample, 1)
	go func() { done <- fixedRate(senders, fixed, wl.rate, start, from, end) }()
	time.Sleep(time.Until(from))
	cpu0, rt0, ph0 := cpuTime(), readRuntime(), phiHists(s)
	rec.setOn(true)
	time.Sleep(time.Until(end))
	rec.setOn(false)
	cpu1, rt1, ph1 := cpuTime(), readRuntime(), phiHists(s)
	exports := s.exports()
	samples := <-done
	// Live heap once the generator has drained: the state held at the
	// window depth the fixed rate sets, which repeats from run to run.
	runtime.GC()
	heapLive := readRuntime().liveBytes
	var tr traceResult
	var reads, writes uint64
	if rec != nil {
		tr, reads, writes = rec.tie(), rec.reads.Load(), rec.writes.Load()
		rec.reset()
	}

	// Closed loop: warm up for the window, then measure. A traced run
	// measures the first half with span recording off and the second
	// with it on, which prices the tracing itself.
	closed := streams(phaseClosed)
	warmEnd := time.Now().Add(cfg.warm)
	end = warmEnd.Add(half)
	var closedN, tracedN int
	closedDur := half
	if rec != nil {
		closedDur = half / 2
	}
	// The CPU the process burns over the closed loop's (untraced)
	// measured span, read on the span's edges.
	closedCPU := make(chan time.Duration, 1)
	go func() {
		time.Sleep(time.Until(warmEnd))
		c0 := cpuTime()
		time.Sleep(time.Until(warmEnd.Add(closedDur)))
		closedCPU <- cpuTime() - c0
	}()
	if rec == nil {
		closedN = closedLoop(senders, closed, warmEnd, end)
	} else {
		mid := warmEnd.Add(closedDur)
		closedN = closedLoop(senders, closed, warmEnd, mid)
		rec.setOn(true)
		tracedN = closedLoop(senders, closed, mid, end)
		rec.setOn(false)
	}
	clientErrors := failures(senders)
	closedPerCPU := float64(closedN) / (<-closedCPU).Seconds()

	// Correctness: every path (the prefill touched them all) serves its
	// planted truth, and the
	// Frontend counted exactly what the generator sent.
	res := result{samples: map[string]int{}}
	if misses, first := checkContexts(senders); misses > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d paths served a wrong context; first: %v", misses, first))
	}
	if err := checkCounters(s, senders); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	for _, d := range senders {
		res.attempted += d.attempted
	}
	res.failed = failures(senders)
	if len(res.problems) > 0 && res.failed == 0 {
		res.failed = 1 // the counters disagreed though every request succeeded
	}
	feStats := s.fe.Stats()
	s.close()

	lookups := make([]int64, len(samples))
	lifes := make([]int64, len(samples))
	for i, x := range samples {
		lookups[i], lifes[i] = int64(x.lookup), int64(x.lifecycle)
	}
	n := len(samples)
	res.e2e = map[string]metric{
		"setup_s":              {float64(quantile(setups, 0.5)) / 1e9, "s"},
		"lifecycles_per_cpu_s": {closedPerCPU, "1/s"},
		"heap_live_mb":         {float64(heapLive) / 1e6, "MB"},
	}
	res.ungated = map[string]metric{
		"cpu_us_per_lifecycle": {float64((cpu1 - cpu0).Microseconds()) / float64(max(n, 1)), "us"},
		"lifecycles_per_s":     {float64(closedN) / closedDur.Seconds(), "1/s"},
		"lookup_p50_us":        {usOf(quantile(lookups, 0.5)), "us"},
		"lookup_p99_us":        {usOf(quantile(lookups, 0.99)), "us"},
		"lifecycle_p50_us":     {usOf(quantile(lifes, 0.5)), "us"},
		"lifecycle_p99_us":     {usOf(quantile(lifes, 0.99)), "us"},
	}
	for _, k := range []string{"lookup_p50_us", "lookup_p99_us", "lifecycle_p50_us", "lifecycle_p99_us"} {
		res.samples[k] = n
	}
	res.samples["setup_s"] = len(setups)
	res.samples["lifecycles_per_s"] = closedN
	res.samples["lifecycles_per_cpu_s"] = closedN

	if rec != nil {
		res.layers = layerMetrics(layerInputs{
			wl: wl, trace: tr, samples: samples, clientErrors: clientErrors,
			reads: reads, writes: writes,
			fe: feStats, exports: exports, rt0: rt0, rt1: rt1, ph0: ph0, ph1: ph1,
			untracedRate: float64(closedN) / closedDur.Seconds(),
			tracedRate:   float64(tracedN) / (half - closedDur).Seconds(),
		}, res.samples)
		if cfg.spansDir != "" {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.csv", wl.name, cfg.seed))
			if err := tr.write(path); err != nil {
				return res, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	return res, nil
}

// failures sums the requests that failed across the senders.
func failures(senders []*sender) uint64 {
	var n uint64
	for _, d := range senders {
		n += d.failed
	}
	return n
}

// phiHists snapshots the phi.Server lookup and report latency
// histograms of every replica, from the stack's telemetry registry.
// Only fleet workloads use them: a Member owns its replicas, so the
// benchmark cannot wrap them from outside.
func phiHists(s *stack) [2]*telemetry.HistSnapshot {
	out := [2]*telemetry.HistSnapshot{{}, {}}
	if s.fl == nil {
		return out
	}
	for i := range s.fl.Members {
		for _, r := range []string{"a", "b"} {
			l := telemetry.Labels{"shard": fmt.Sprint(i), "replica": r}
			out[0].Merge(s.reg.Histogram("phi_server_lookup_seconds", "in-server lookup latency", l).Snapshot())
			out[1].Merge(s.reg.Histogram("phi_server_report_seconds", "in-server report latency", l).Snapshot())
		}
	}
	return out
}
