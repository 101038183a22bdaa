package cluster

import (
	"net"
	"testing"
	"time"

	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestEndToEndFailoverTrace runs the full wire stack — traced client,
// wire server, frontend, shards — crashes the owning shard, and checks
// that the failed-over lookup produced one cross-process trace telling
// the whole story: the client span's trace ID joins the server, the
// frontend span carries the failover note, and shard.call spans name
// the shards that were tried.
func TestEndToEndFailoverTrace(t *testing.T) {
	cl := New(Config{
		Shards: 4,
		Clock:  func() sim.Time { return sim.Time(time.Now().UnixNano()) },
		// High DownAfter keeps the breaker out of the way: the owner is
		// tried (and fails) on every lookup, so the failover is visible.
		Frontend: FrontendConfig{ReplicateReports: true, DownAfter: 1000},
	})
	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	cl.Frontend.SetTracer(tracer)

	srv := phiwire.NewServer(cl.Frontend, nil)
	srv.SetTracer(tracer)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	defer srv.Close()

	ctr := trace.NewTracer(trace.Config{SampleEvery: 1})
	c := phiwire.Dial(ln.Addr().String(), time.Second)
	defer c.Close()
	c.SetTracer(ctr)

	path := phi.PathKey("bottleneck")
	owner, _ := cl.Ring.OwnerAndFallback(path)
	cl.Frontend.RegisterPath(path, 10_000_000)

	// Warm both replicas through the wire, then kill the owner.
	if err := c.ReportStart(path); err != nil {
		t.Fatalf("report-start: %v", err)
	}
	if err := c.ReportEnd(path, phi.Report{
		Bytes: 100_000, Duration: 50 * sim.Millisecond,
		AvgRTT: 110 * sim.Millisecond, MinRTT: 100 * sim.Millisecond,
	}); err != nil {
		t.Fatalf("report-end: %v", err)
	}
	cl.Shards[owner].Crash()

	if _, err := c.Lookup(path); err != nil {
		t.Fatalf("failed-over lookup must succeed: %v", err)
	}

	// Client side: find the trace ID of the client.lookup span.
	lookupIDs := make(map[string]bool)
	for _, tc := range retainedTraces(ctr.Collector()) {
		for _, sp := range tc.Spans {
			if sp.Name == "client.lookup" {
				lookupIDs[tc.ID] = true
			}
		}
	}
	if len(lookupIDs) == 0 {
		t.Fatal("client recorded no lookup trace")
	}

	// Server side: the same trace must exist and cover every layer.
	var joined *trace.Trace
	for _, tc := range retainedTraces(tracer.Collector()) {
		if lookupIDs[tc.ID] && hasSpan(tc, "frontend.lookup") {
			joined = tc
			break
		}
	}
	if joined == nil {
		t.Fatalf("no server trace joined the client lookup (client IDs %v)", lookupIDs)
	}
	if !hasSpan(joined, "server.lookup") {
		t.Fatalf("trace missing the wire-server span: %+v", joined)
	}
	var sawFailover, sawOwnerCall, sawOtherCall bool
	for _, sp := range joined.Spans {
		switch sp.Name {
		case "frontend.lookup":
			if sp.Note == "failover" {
				sawFailover = true
			}
		case "shard.call":
			if sp.Shard == owner {
				sawOwnerCall = true
				if sp.Err == "" {
					t.Errorf("call to the crashed owner recorded no error")
				}
			} else {
				sawOtherCall = true
			}
		}
	}
	if !sawFailover {
		t.Errorf("frontend.lookup span lost the failover note: %+v", joined.Spans)
	}
	if !sawOwnerCall || !sawOtherCall {
		t.Errorf("shard.call spans incomplete (owner tried: %v, replica tried: %v): %+v",
			sawOwnerCall, sawOtherCall, joined.Spans)
	}
	// The trace carries a failover note, which marks it interesting: it
	// must be retained in the error class, where operators look first.
	if joined.Kept != "error" {
		t.Errorf("failover trace retained as %q, want error class", joined.Kept)
	}
}

func retainedTraces(c *trace.Collector) []*trace.Trace {
	var all []*trace.Trace
	all = append(all, c.Errors()...)
	all = append(all, c.Slowest()...)
	all = append(all, c.Sampled()...)
	return all
}

func hasSpan(tc *trace.Trace, name string) bool {
	for _, sp := range tc.Spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}
