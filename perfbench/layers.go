package main

import (
	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/telemetry"
)

// layerInputs is everything a traced run collects for the per-layer
// metrics. Span-derived numbers cover the fixed-rate measured phase.
type layerInputs struct {
	wl            workload
	trace         traceResult
	samples       []fixedSample
	clientErrors  uint64
	reads, writes uint64 // server-side conn calls during the measured phase
	fe            cluster.FrontendStats
	exports       [][]phi.PathSnapshot
	rt0, rt1      runtimeSnap
	ph0, ph1      [2]*telemetry.HistSnapshot // fleet: phi.Server lookup, report
	untracedRate  float64                    // closed-loop lifecycles/s, spans off
	tracedRate    float64                    // closed-loop lifecycles/s, spans on
}

// layerMetrics computes the per-layer metrics of a traced run and records
// the sample count behind each percentile in samples.
func layerMetrics(in layerInputs, samples map[string]int) map[string]metric {
	out := map[string]metric{}
	us := func(name string, xs []int64) {
		out[name+"_p50"] = metric{usOf(quantile(xs, 0.5)), "us"}
		out[name+"_p99"] = metric{usOf(quantile(xs, 0.99)), "us"}
		samples[name+"_p50"], samples[name+"_p99"] = len(xs), len(xs)
	}
	count := func(name string, v float64) { out[name] = metric{v, "count"} }

	// loadgen: the generator must not be what is measured.
	var late, wait []int64
	for _, s := range in.samples {
		late = append(late, int64(s.late))
		wait = append(wait, int64(s.queueWait))
	}
	out["loadgen.late_p99_us"] = metric{usOf(quantile(late, 0.99)), "us"}
	out["loadgen.queue_wait_p99_us"] = metric{usOf(quantile(wait, 0.99)), "us"}
	samples["loadgen.late_p99_us"], samples["loadgen.queue_wait_p99_us"] = len(late), len(wait)

	t := in.trace
	kids := t.children()
	lifecycles := map[int64]bool{}
	var wireSelf, lookupSelf, reportSelf, connLookup, connReport []int64
	for i, s := range t.spans {
		switch t.layer[i] {
		case layerClient:
			lifecycles[s.lc] = true
			if ks := kids[int32(i)]; len(ks) == 1 {
				wireSelf = append(wireSelf, s.dur()-t.spans[ks[0]].dur())
			}
		case layerBackend:
			var iv [][2]int64
			for _, k := range kids[int32(i)] {
				iv = append(iv, [2]int64{t.spans[k].start, t.spans[k].end})
			}
			self := selfTime(s.start, s.end, iv)
			if s.op == opLookup {
				lookupSelf = append(lookupSelf, self)
			} else {
				reportSelf = append(reportSelf, self)
			}
		case layerConn:
			if s.op == opLookup {
				connLookup = append(connLookup, s.dur())
			} else {
				connReport = append(connReport, s.dur())
			}
		}
	}

	// phiwire: client call minus the backend span it caused.
	count("phiwire.round_trips_per_lifecycle", float64(t.nClient)/float64(max(len(lifecycles), 1)))
	us("phiwire.self_us", wireSelf)
	count("phiwire.read_calls_per_frame", float64(in.reads)/float64(max(t.nServer, 1)))
	count("phiwire.write_calls_per_frame", float64(in.writes)/float64(max(t.nServer, 1)))
	count("phiwire.errors", float64(in.clientErrors))

	// cluster: the Frontend's own time, outside its shard calls.
	us("cluster.lookup_self_us", lookupSelf)
	us("cluster.report_self_us", reportSelf)
	count("cluster.shard_calls_per_op", float64(len(t.spans)-t.nClient-t.nServer)/float64(max(t.nServer, 1)))
	count("cluster.failovers", float64(in.fe.Failovers))
	count("cluster.degraded", float64(in.fe.Degraded))

	// phi and fleet: the Frontend's shard calls are Member calls on a
	// fleet and phi.Server calls (through a bare Shard) on a plain
	// cluster, where no Member sits in between and fleet.* time the same
	// calls as phi.*. A Member owns its replicas, so on a fleet the
	// phi.Server times come from the stack's own latency histograms.
	// The means carry the heavy hitters a median hides: on hot-paths a
	// few paths hold most of the window.
	us("fleet.lookup_us", connLookup)
	us("fleet.report_us", connReport)
	if in.wl.fleet {
		for k, name := range []string{"phi.lookup_us", "phi.report_us"} {
			d := in.ph1[k].Sub(in.ph0[k])
			out[name+"_p50"] = metric{snapQuantile(d, 0.5) / 1e3, "us"}
			out[name+"_p99"] = metric{snapQuantile(d, 0.99) / 1e3, "us"}
			out[name+"_mean"] = metric{d.Mean() / 1e3, "us"}
			samples[name+"_p50"], samples[name+"_p99"], samples[name+"_mean"] = int(d.Count), int(d.Count), int(d.Count)
		}
	} else {
		us("phi.lookup_us", connLookup)
		us("phi.report_us", connReport)
		out["phi.lookup_us_mean"] = metric{usOf(mean(connLookup)), "us"}
		out["phi.report_us_mean"] = metric{usOf(mean(connReport)), "us"}
		samples["phi.lookup_us_mean"], samples["phi.report_us_mean"] = len(connLookup), len(connReport)
	}
	var perPath []int64
	for _, ex := range in.exports {
		for _, p := range ex {
			perPath = append(perPath, int64(len(p.Reports)))
		}
	}
	count("phi.window_reports_p99", float64(quantile(perPath, 0.99)))
	count("phi.paths", float64(len(perPath)))
	samples["phi.window_reports_p99"] = len(perPath)

	// runtime, over the fixed-rate measured phase.
	n := float64(max(len(in.samples), 1))
	count("runtime.allocs_per_lifecycle", float64(in.rt1.allocs-in.rt0.allocs)/n)
	busy := (in.rt1.totalCPU - in.rt1.idleCPU) - (in.rt0.totalCPU - in.rt0.idleCPU)
	gc := in.rt1.gcCPU - in.rt0.gcCPU
	out["runtime.gc_cpu_frac"] = metric{gc / max(busy, 1e-9), "frac"}
	out["runtime.gc_pause_p99_us"] = metric{histQuantile(in.rt0.gcPauses, in.rt1.gcPauses, 0.99) * 1e6, "us"}
	out["runtime.sched_latency_p99_us"] = metric{histQuantile(in.rt0.schedLatencies, in.rt1.schedLatencies, 0.99) * 1e6, "us"}

	// trace: what recording spans costs, and what could not be tied.
	out["trace.lifecycles_per_s"] = metric{in.tracedRate, "1/s"}
	out["trace.overhead_frac"] = metric{1 - in.tracedRate/max(in.untracedRate, 1e-9), "frac"}
	count("trace.untied_spans", float64(t.untied))
	return out
}

// mean is the arithmetic mean of xs; an empty sample reads 0.
func mean(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum / int64(len(xs))
}
