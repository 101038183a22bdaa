package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

const (
	shards = 4
	conns  = 2 // client connections, one generator goroutine each

	// fleetSyncEvery moves the fleet's periodic anti-drift full sync (30s
	// by default) past the end of a run. At the default cadence it lands
	// at the same point of every run, inside a measured phase, and charges
	// a whole full-state transfer per member to one 10s window; it is
	// maintenance, not per-lifecycle work. The controller still polls and
	// remediates as under -fleet.
	fleetSyncEvery = time.Hour

	// estimationWindow is phi.Server's utilization window, the default
	// of phi-cluster -window; each measured phase warms up for one.
	estimationWindow = 10 * time.Second
)

// stack is the serving path under test, wired like `phi-cluster
// -metrics-addr` (telemetry registry, quality tracker, wire counters and
// resource sampler attached; report replication on; tracing off) and,
// for fleet workloads, like `-fleet` as well (controller started, health
// monitor attached).
//
// It runs one phiwire.Server per client connection, all over the shared
// Frontend. A server's per-connection handling does not depend on its
// other connections, so this serves exactly what one server would, and
// it ties every server-side span to the connection that caused it.
type stack struct {
	fe      *cluster.Frontend
	cl      *cluster.Cluster // plain workloads
	fl      *fleet.Fleet     // fleet workloads
	reg     *telemetry.Registry
	servers []*phiwire.Server
	clients []*phiwire.Client
	stops   []func()
	serving sync.WaitGroup
	closing sync.Once
}

// stackOptions carries the benchmark-side wrappers threaded through the
// public constructors.
type stackOptions struct {
	rec         *recorder     // nil: no tracing wrappers
	lookupDelay time.Duration // > 0: delay every Lookup (gate self-test)
}

func buildStack(w workload, opt stackOptions) (*stack, error) {
	clock := func() sim.Time { return sim.Time(time.Now().UnixNano()) }
	serverCfg := phi.ServerConfig{Window: sim.Time(estimationWindow.Nanoseconds())}
	feCfg := cluster.FrontendConfig{ReplicateReports: true}
	ring := cluster.NewRing(shards, cluster.DefaultVNodes)
	s := &stack{reg: telemetry.NewRegistry()}
	qt := quality.New(quality.Config{Registry: s.reg})
	var mon *health.Monitor

	if w.fleet {
		members := make([]*fleet.Member, shards)
		cc := make([]cluster.Conn, shards)
		for i := range members {
			members[i] = fleet.NewMember(i, clock, serverCfg, 0)
			cc[i] = opt.rec.wrapConn(i, members[i])
		}
		fe := cluster.NewFrontend(ring, cc, feCfg)
		s.fl = &fleet.Fleet{
			Ring:       ring,
			Members:    members,
			Frontend:   fe,
			Controller: fleet.NewController(members, fe, nil, fleet.ControllerConfig{SyncEvery: fleetSyncEvery}),
		}
		s.fe = fe
		s.fl.Instrument(s.reg)
		s.fl.Quality(qt)
		mon = health.NewMonitor(health.Config{BucketDur: time.Second, Shards: shards})
		mon.SetMetrics(health.NewMetrics(s.reg))
		s.fl.Health(mon)
		mon.SetQualitySource(qt.HealthCheck)
		s.stops = append(s.stops, mon.Start(), s.fl.Start())
	} else {
		sh := make([]*cluster.Shard, shards)
		cc := make([]cluster.Conn, shards)
		for i := range sh {
			sh[i] = cluster.NewShard(i, clock, serverCfg)
			cc[i] = opt.rec.wrapConn(i, sh[i])
		}
		s.cl = &cluster.Cluster{Ring: ring, Shards: sh, Frontend: cluster.NewFrontend(ring, cc, feCfg)}
		s.fe = s.cl.Frontend
		s.cl.Instrument(s.reg)
		s.cl.Quality(qt)
	}

	wire := obs.NewWireCounters()
	sampler := obs.NewSampler(obs.SamplerConfig{Registry: s.reg})
	sampler.SetWire("server", wire)
	sampler.AddCollect(wire.Publish(s.reg, "phiwire_server_wire"))
	s.stops = append(s.stops, sampler.Start())
	srvMetrics := phiwire.NewServerMetrics(s.reg)
	policy := phi.DefaultPolicy()

	for c := 0; c < conns; c++ {
		var backend phiwire.Backend = s.fe
		if opt.lookupDelay > 0 {
			backend = delayedLookup{Backend: backend, d: opt.lookupDelay}
		}
		backend = opt.rec.wrapBackend(c, backend)
		srv := phiwire.NewServer(backend, nil)
		srv.SetMetrics(srvMetrics)
		srv.SetHealth(mon)
		srv.SetWire(wire)
		if err := srv.SetPolicy(policy); err != nil {
			s.close()
			return nil, fmt.Errorf("publish policy: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		s.servers = append(s.servers, srv)
		s.serving.Add(1)
		go func() {
			defer s.serving.Done()
			_ = srv.Serve(opt.rec.wrapListener(ln)) // returns net.ErrClosed after close
		}()
		s.clients = append(s.clients, phiwire.Dial(ln.Addr().String(), 0))
	}
	// One round trip per connection: the stack is serving once both
	// clients have dialed and heard back.
	for _, cl := range s.clients {
		if _, err := cl.FetchPolicy(); err != nil {
			s.close()
			return nil, fmt.Errorf("first round trip: %w", err)
		}
	}
	return s, nil
}

// close stops every goroutine the stack started and waits for them. It
// is safe to call more than once.
func (s *stack) close() {
	s.closing.Do(func() {
		for _, cl := range s.clients {
			cl.Close()
		}
		for _, srv := range s.servers {
			srv.Close()
		}
		s.serving.Wait()
		for i := len(s.stops) - 1; i >= 0; i-- {
			s.stops[i]()
		}
	})
}

// exports returns the path state held by each shard of a plain cluster,
// or by each member's primary in a fleet.
func (s *stack) exports() [][]phi.PathSnapshot {
	var out [][]phi.PathSnapshot
	if s.fl != nil {
		for _, m := range s.fl.Members {
			out = append(out, m.Primary().Export())
		}
		return out
	}
	for _, sh := range s.cl.Shards {
		out = append(out, sh.Export())
	}
	return out
}

// delayedLookup adds a fixed busy delay to every Lookup. It exists to
// prove the benchmark's gate can fail: a known slowdown at one layer must
// push lookup_p50_us past its bound.
type delayedLookup struct {
	phiwire.Backend
	d time.Duration
}

func (b delayedLookup) Lookup(path phi.PathKey) (phi.Context, error) {
	// Spin rather than sleep: timer wake-ups are far coarser than d.
	for t0 := time.Now(); time.Since(t0) < b.d; {
	}
	return b.Backend.Lookup(path)
}
