package fleet

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var opTestLifecycle = trace.Name("test.lifecycle")

// TestTraceStopsAtFrontend pins where a request's trace ends on each
// serving stack: a traced client's Lookup and ReportEnd join one server
// trace, which on a monolith holds only the wire server's spans and on a
// cluster or fleet adds frontend.* routing spans and their shard.call
// children. shard.call is the innermost span, so nothing hangs under
// it; the shard's own phi.Server time shows up in its
// phi_server_lookup_seconds histogram instead.
func TestTraceStopsAtFrontend(t *testing.T) {
	clock := func() sim.Time { return sim.Time(time.Now().UnixNano()) }
	path := phi.PathKey("bottleneck")

	// Each stack returns the backend the wire server fronts, the
	// lookup-latency histogram of the phi.Server that owns path, and
	// that owner's shard id (the id shard.call spans must carry).
	type stackFunc func(tr *trace.Tracer, reg *telemetry.Registry) (phiwire.Backend, *telemetry.Histogram, int)
	stacks := []struct {
		name    string
		routed  bool // frontend.* and shard.call spans expected
		backend stackFunc
	}{
		{
			name: "monolith",
			backend: func(_ *trace.Tracer, reg *telemetry.Registry) (phiwire.Backend, *telemetry.Histogram, int) {
				srv := phi.NewServer(clock, phi.ServerConfig{})
				srv.SetMetrics(phi.NewServerMetrics(reg, nil))
				return srv, reg.Histogram("phi_server_lookup_seconds", "", nil), trace.NoShard
			},
		},
		{
			name:   "cluster",
			routed: true,
			backend: func(tr *trace.Tracer, reg *telemetry.Registry) (phiwire.Backend, *telemetry.Histogram, int) {
				cl := cluster.New(cluster.Config{Shards: 4, Clock: clock})
				cl.Instrument(reg)
				cl.Frontend.SetTracer(tr)
				owner := cl.Ring.Owner(path)
				return cl.Frontend, reg.Histogram("phi_server_lookup_seconds", "",
					telemetry.Labels{"shard": strconv.Itoa(owner)}), owner
			},
		},
		{
			name:   "fleet",
			routed: true,
			backend: func(tr *trace.Tracer, reg *telemetry.Registry) (phiwire.Backend, *telemetry.Histogram, int) {
				fl := New(Config{Shards: 4, Clock: clock})
				fl.Instrument(reg)
				fl.Frontend.SetTracer(tr)
				owner := fl.Ring.Owner(path)
				return fl.Frontend, reg.Histogram("phi_server_lookup_seconds", "",
					telemetry.Labels{"shard": strconv.Itoa(owner), "replica": "a"}), owner
			},
		},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			str := trace.NewTracer(trace.Config{SampleEvery: 1})
			reg := telemetry.NewRegistry()
			backend, lookups, owner := st.backend(str, reg)

			srv := phiwire.NewServer(backend, nil)
			srv.SetTracer(str)
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

			root := ctr.Start(trace.SpanContext{}, opTestLifecycle)
			before := lookups.Count()
			if _, err := c.LookupSpan(root.Context(), path); err != nil {
				t.Fatalf("lookup: %v", err)
			}
			if got := lookups.Count() - before; got != 1 {
				t.Errorf("owner phi_server_lookup_seconds count rose by %d, want 1", got)
			}
			if err := c.ReportEndSpan(root.Context(), path, phi.Report{
				Bytes: 100_000, Duration: 50 * sim.Millisecond,
				AvgRTT: 110 * sim.Millisecond, MinRTT: 100 * sim.Millisecond,
			}); err != nil {
				t.Fatalf("report-end: %v", err)
			}
			root.End(nil)

			// Every server-side span must belong to the client's trace.
			// Each local root (one per request) retains its own view of
			// it, so merge them by span id.
			wantID := ""
			for _, tc := range retained(ctr.Collector()) {
				if tc.Root == "test.lifecycle" {
					wantID = tc.ID
				}
			}
			if wantID == "" {
				t.Fatal("client retained no lifecycle trace")
			}
			spans := make(map[string]trace.SpanInfo)
			for _, tc := range retained(str.Collector()) {
				if tc.ID != wantID {
					t.Fatalf("server trace %s (root %s) did not join the client's trace %s", tc.ID, tc.Root, wantID)
				}
				for _, sp := range tc.Spans {
					spans[sp.ID] = sp
				}
			}

			names := make(map[string]int)
			shardCalls := make(map[string]bool)
			for id, sp := range spans {
				names[sp.Name]++
				if sp.Name == "shard.call" {
					shardCalls[id] = true
					if sp.Shard != owner {
						t.Errorf("shard.call carries shard %d, want owner %d", sp.Shard, owner)
					}
					if parent := spans[sp.Parent]; !strings.HasPrefix(parent.Name, "frontend.") {
						t.Errorf("shard.call parent is %q, want a frontend.* span", parent.Name)
					}
				}
				if strings.HasPrefix(sp.Name, "frontend.") {
					if parent := spans[sp.Parent]; !strings.HasPrefix(parent.Name, "server.") {
						t.Errorf("%s parent is %q, want a server.* span", sp.Name, parent.Name)
					}
				}
				if strings.HasPrefix(sp.Name, "server.") && !sp.Remote {
					t.Errorf("%s did not join the client's span as its remote parent", sp.Name)
				}
				if strings.HasPrefix(sp.Name, "phi.") {
					t.Errorf("span %q crossed into phi.Server", sp.Name)
				}
			}
			for _, sp := range spans {
				if shardCalls[sp.Parent] {
					t.Errorf("span %q has a shard.call parent; shard.call must be innermost", sp.Name)
				}
			}

			want := map[string]int{"server.lookup": 1, "server.report_end": 1}
			if st.routed {
				want["frontend.lookup"] = 1
				want["frontend.report_end"] = 1
				want["shard.call"] = 2
			}
			for name, n := range want {
				if names[name] != n {
					t.Errorf("%d %q spans, want %d (spans: %v)", names[name], name, n, names)
				}
			}
			if len(names) != len(want) {
				t.Errorf("span names %v, want exactly %v", names, want)
			}
		})
	}
}

func retained(c *trace.Collector) []*trace.Trace {
	var all []*trace.Trace
	all = append(all, c.Errors()...)
	all = append(all, c.Slowest()...)
	all = append(all, c.Sampled()...)
	return all
}
