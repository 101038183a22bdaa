// Command phi-cluster runs a sharded Phi context server: N phi.Server
// shards behind a consistent-hash ring, fronted by a failover-aware
// router, served over the phiwire protocol on one address. Each shard
// periodically snapshots its path state to disk and is rehydrated from
// its snapshot on startup, so a restart does not zero out the domain's
// u/q/n estimates.
//
// Usage:
//
//	phi-cluster -listen :7731 -shards 4 -snapshot-dir /var/lib/phi \
//	    -snapshot-interval 30s -path bottleneck=15000000
//
// Flags:
//
//	-listen addr              frontend listen address (default 127.0.0.1:7731)
//	-shards n                 shard count (default 4)
//	-vnodes n                 virtual nodes per shard on the ring (default 128)
//	-window d                 utilization estimation window (default 10s)
//	-timeout d                per-shard call timeout at the router (default 0:
//	                          in-process shards cannot hang, so no timeout)
//	-down-after n             consecutive failures before a shard is routed
//	                          around (default 3)
//	-cooldown d               how long a down shard is skipped before being
//	                          probed again (default 5s)
//	-replicate                mirror reports to each path's fallback shard so
//	                          failover lands on warm state (default true)
//	-fleet                    run in fleet mode: every shard becomes a
//	                          primary/backup pair kept in sync by report
//	                          mirroring and periodic snapshot transfer, and
//	                          an autonomous remediation controller promotes
//	                          backups over dead primaries, reseeds stale
//	                          backups, and restarts dead members — no
//	                          operator in the loop. Fleet state and chaos
//	                          ops at /debug/fleet (on -metrics-addr and
//	                          -fleet-addr)
//	-fleet-addr addr          also serve /debug/fleet on a dedicated
//	                          address (implies -fleet)
//	-fleet-poll d             remediation controller poll interval
//	                          (default 1s)
//	-fleet-sync d             periodic backup full-sync interval
//	                          (default 30s)
//	-snapshot-dir dir         snapshot directory; empty disables snapshots
//	-snapshot-interval d      time between snapshots (default 30s)
//	-path name=bitsPerSecond  register a path capacity (repeatable)
//	-policy file              publish this JSON policy (default: built-in)
//	-metrics-addr addr        serve Prometheus metrics at /metrics on this
//	                          address (empty = telemetry off). Covers the
//	                          frontend's routing counters, per-shard call
//	                          latency and breaker state, per-shard server
//	                          metrics, snapshot cycles, and the wire layer.
//	                          Also serves /debug/traces (with -trace),
//	                          /debug/exemplars, /debug/pprof/, and
//	                          /debug/shard?id=N&op=crash|restart|status
//	                          for fault injection.
//	-trace                    record request traces end to end (client
//	                          trace headers are joined; routing, retry,
//	                          failover, and degrade decisions land on
//	                          spans at /debug/traces)
//	-stages                   aggregate every span into per-stage latency
//	                          histograms (server decode/handle, frontend
//	                          routing, shard handle, response write) at
//	                          /debug/stages — "where did the microseconds
//	                          go", live, at any load level. Implies -trace
//	                          A /debug/ index on -metrics-addr lists every
//	                          mounted debug endpoint.
//	-health                   run the live health monitor: streaming
//	                          volume-dip detection and localization over
//	                          the serving path, surfaced at /debug/health
//	                          (JSON; ?format=text for a summary)
//	-health-addr addr         also serve /debug/health on a dedicated
//	                          address (implies -health)
//	-health-bucket d          health rollup bucket width (default 1s)
//	-prof-ring-dir dir        rolling CPU/heap profile ring directory
//	                          (default <tmp>/phi-cluster-profring). With
//	                          -metrics-addr the ring is browsable at
//	                          /debug/prof/ring, captures on demand
//	                          (?op=capture), and health anomalies trigger
//	                          captures automatically; /debug/resources
//	                          snapshots the runtime sampler and wire-level
//	                          syscall/byte attribution
//	-ipfix-addr addr          receive IPFIX exports on this UDP address and
//	                          fold passively reconstructed context (RTT,
//	                          loss, throughput per path) into the cluster
//	                          through the frontend, exactly as cooperative
//	                          reports arrive; state at /debug/ingest on
//	                          -metrics-addr (empty = off)
//	-ipfix-sample n           exporter packet sampling rate, 1-in-N (default 1)
//	-ipfix-window d           per-path aggregation window, stream time
//	                          (default 5s)
//	-passive-weight w         weight of passive reports relative to
//	                          cooperative ones (0 = server default of 1)
//	-max-paths n              bound each shard's per-path state table;
//	                          idle paths are evicted when it fills
//	                          (0 = unbounded)
//	-fresh-ttl d              evidence age beyond which a served lookup
//	                          counts as stale in /debug/context coverage
//	                          (default: the estimation window). The
//	                          context-quality layer — per-source freshness
//	                          histograms, fresh/stale/fallback coverage,
//	                          paired RTT/loss prediction accuracy, and
//	                          passive-vs-active drift — runs whenever
//	                          -metrics-addr is set and serves
//	                          /debug/context there
//	-log-level level          minimum log level: debug|info|warn|error
//	-log-json                 emit logs as JSON lines (default logfmt)
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/ingest"
	"repro/internal/ipfix"
	"repro/internal/obs"
	"repro/internal/phi"
	"repro/internal/phiwire"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	tlog "repro/internal/trace/log"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7731", "listen address")
		shards      = flag.Int("shards", 4, "shard count")
		vnodes      = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per shard")
		window      = flag.Duration("window", 10*time.Second, "utilization estimation window")
		timeout     = flag.Duration("timeout", 0, "per-shard call timeout (0 = none)")
		downAfter   = flag.Int("down-after", 3, "consecutive failures before a shard is routed around")
		cooldown    = flag.Duration("cooldown", 5*time.Second, "down-shard reprobe cooldown")
		replicate   = flag.Bool("replicate", true, "mirror reports to the fallback shard")
		fleetOn     = flag.Bool("fleet", false, "run replicated shards with the autonomous remediation controller")
		fleetAddr   = flag.String("fleet-addr", "", "serve /debug/fleet on a dedicated address (implies -fleet)")
		fleetPoll   = flag.Duration("fleet-poll", time.Second, "fleet: remediation controller poll interval")
		fleetSync   = flag.Duration("fleet-sync", 30*time.Second, "fleet: periodic backup full-sync interval")
		snapDir     = flag.String("snapshot-dir", "", "snapshot directory (empty = snapshots off)")
		snapEvery   = flag.Duration("snapshot-interval", 30*time.Second, "time between snapshots")
		policyPath  = flag.String("policy", "", "publish this JSON policy file to clients (default: the built-in policy)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (empty = telemetry off)")
		traceOn     = flag.Bool("trace", false, "record request traces (view at /debug/traces on -metrics-addr)")
		stagesOn    = flag.Bool("stages", false, "aggregate per-stage latency histograms from the span stream (view at /debug/stages on -metrics-addr; implies -trace)")
		healthOn    = flag.Bool("health", false, "run the live health monitor (view at /debug/health on -metrics-addr or -health-addr)")
		healthAddr  = flag.String("health-addr", "", "serve /debug/health on a dedicated address (implies -health)")
		healthWin   = flag.Duration("health-bucket", time.Second, "health monitor rollup bucket width")
		profRing    = flag.String("prof-ring-dir", "", "rolling CPU/heap profile ring directory (default: <tmp>/phi-cluster-profring; requires -metrics-addr)")
		ipfixAddr   = flag.String("ipfix-addr", "", "receive IPFIX exports on this UDP address and ingest passive context (empty = off)")
		ipfixSample = flag.Int("ipfix-sample", 1, "ipfix: exporter packet sampling rate (1-in-N)")
		ipfixWindow = flag.Duration("ipfix-window", 5*time.Second, "ipfix: per-path aggregation window (stream time)")
		passiveWt   = flag.Float64("passive-weight", 0, "weight of passive (IPFIX-inferred) reports relative to cooperative ones (0 = server default of 1)")
		maxPaths    = flag.Int("max-paths", 0, "bound each shard's per-path state table, evicting idle paths (0 = unbounded)")
		freshTTL    = flag.Duration("fresh-ttl", 0, "age beyond which context evidence counts as stale at lookup (0 = the estimation window)")
		logLevel    = flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON lines (default logfmt)")
		paths       pathFlags
	)
	flag.Var(&paths, "path", "register a path capacity as name=bitsPerSecond (repeatable)")
	flag.Parse()

	lvl, err := tlog.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var lopts []tlog.Option
	if *logJSON {
		lopts = append(lopts, tlog.WithJSON())
	}
	logger := tlog.New(os.Stderr, lvl, lopts...).Component("phi-cluster")

	if *shards < 1 {
		logger.Fatal("-shards must be >= 1", "got", *shards)
	}
	if *fleetAddr != "" {
		*fleetOn = true
	}

	clock := func() sim.Time { return sim.Time(time.Now().UnixNano()) }
	serverCfg := phi.ServerConfig{
		Window:        sim.Time(window.Nanoseconds()),
		PassiveWeight: *passiveWt,
		MaxPaths:      *maxPaths,
		FreshTTL:      sim.Time(freshTTL.Nanoseconds()),
	}
	frontendCfg := cluster.FrontendConfig{
		Timeout:          *timeout,
		DownAfter:        *downAfter,
		Cooldown:         *cooldown,
		ReplicateReports: *replicate,
	}

	// Fleet mode wraps every shard in a primary/backup pair with the
	// remediation controller on top; plain mode is the bare cluster. Both
	// expose the same frontend, so everything downstream (wire server,
	// ingest, telemetry) is mode-agnostic.
	var (
		cl *cluster.Cluster
		fl *fleet.Fleet
		fe *cluster.Frontend
	)
	if *fleetOn {
		fl = fleet.New(fleet.Config{
			Shards:   *shards,
			VNodes:   *vnodes,
			Clock:    clock,
			Server:   serverCfg,
			Frontend: frontendCfg,
			Controller: fleet.ControllerConfig{
				Poll:        *fleetPoll,
				SyncEvery:   *fleetSync,
				SnapshotDir: *snapDir,
			},
		})
		fe = fl.Frontend
	} else {
		cl = cluster.New(cluster.Config{
			Shards:   *shards,
			VNodes:   *vnodes,
			Clock:    clock,
			Server:   serverCfg,
			Frontend: frontendCfg,
		})
		fe = cl.Frontend
	}

	var reg *telemetry.Registry // nil keeps every hot path uninstrumented
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		if fl != nil {
			fl.Instrument(reg)
		} else {
			cl.Instrument(reg)
		}
	}
	if *stagesOn {
		*traceOn = true // stages aggregate the span stream
	}
	var tracer *trace.Tracer // nil likewise keeps tracing a no-op
	if *traceOn {
		tracer = trace.NewTracer(trace.Config{})
		fe.SetTracer(tracer)
		if *stagesOn {
			tracer.Collector().AttachStages(trace.NewStageAggregator())
		}
	}
	// Context-quality layer: one process-wide tracker woven through every
	// shard's lookup/report path (and the frontend's degraded fallbacks),
	// so coverage and accuracy aggregate cluster-wide and survive crash,
	// restore, and promotion. Served at /debug/context; instrumented runs
	// only, like tracing and health.
	var qtrack *quality.Tracker
	if reg != nil {
		qtrack = quality.New(quality.Config{Registry: reg})
		if fl != nil {
			fl.Quality(qtrack)
		} else {
			cl.Quality(qtrack)
		}
	}
	var monitor *health.Monitor // nil likewise keeps health hooks no-ops
	if *healthOn || *healthAddr != "" || fl != nil {
		monitor = health.NewMonitor(health.Config{BucketDur: *healthWin, Shards: *shards})
		monitor.SetLogger(logger.Component("health"))
		monitor.SetTracer(tracer)
		monitor.SetMetrics(health.NewMetrics(reg))
		// Frontend feeds ops, shard calls, routing, breakers; in fleet
		// mode the controller also reads the monitor's global status.
		if fl != nil {
			fl.Health(monitor)
		} else {
			cl.Health(monitor)
		}
		if qtrack != nil {
			// Coverage collapse / accuracy blowout becomes a first-class
			// anomaly with full evidence retention.
			monitor.SetQualitySource(qtrack.HealthCheck)
		}
		stop := monitor.Start()
		defer stop()
	}

	stopSnapshots := func() {}
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			logger.Fatal("snapshot dir", "err", err)
		}
		var restored int
		if fl != nil {
			restored, err = fl.LoadSnapshots(*snapDir)
		} else {
			restored, err = cl.LoadSnapshots(*snapDir)
		}
		if err != nil {
			logger.Fatal("restore snapshots", "err", err)
		}
		if restored > 0 {
			logger.Info("rehydrated shards from snapshots", "restored", restored, "shards", *shards, "dir", *snapDir)
		}
		if fl != nil {
			stopSnapshots = fl.StartSnapshotters(*snapDir, *snapEvery, logger.Component("snapshot").Printf)
		} else {
			stopSnapshots = cl.StartSnapshotters(*snapDir, *snapEvery, logger.Component("snapshot").Printf)
		}
		logger.Info("snapshotting", "interval", *snapEvery, "dir", *snapDir)
	}

	if fl != nil {
		fl.SetLogger(logger)
		stopFleet := fl.Start()
		defer stopFleet()
		logger.Info("fleet controller up", "poll", *fleetPoll, "sync", *fleetSync, "members", *shards)
	}

	for _, p := range paths {
		fe.RegisterPath(phi.PathKey(p.name), p.capacity)
		logger.Info("registered path", "path", p.name, "capacity_bps", p.capacity)
	}

	// Passive ingest: an IPFIX collector feeding reconstructed context
	// through the frontend, so passive reports shard, replicate, and
	// fail over exactly like cooperative ones.
	var (
		ingestPipe *ingest.Pipeline
		ingestCol  *ipfix.Collector
	)
	if *ipfixAddr != "" {
		p, err := ingest.New(ingest.Config{
			Sink:         fe,
			SampleN:      *ipfixSample,
			WindowMillis: uint64(ipfixWindow.Milliseconds()),
			Metrics:      ingest.NewMetrics(reg, nil),
		})
		if err != nil {
			logger.Fatal("ipfix ingest", "err", err)
		}
		col, err := ipfix.NewRawCollector(*ipfixAddr, p.Datagram)
		if err != nil {
			logger.Fatal("ipfix collector", "addr", *ipfixAddr, "err", err)
		}
		ingestPipe, ingestCol = p, col
		// Close the socket before stopping the pipeline: Datagram must
		// not be called after Stop.
		defer func() {
			col.Close()
			p.Stop()
		}()
		logger.Info("ipfix ingest up", "addr", col.Addr(),
			"sample", *ipfixSample, "window", ipfixWindow.String())
	}

	srv := phiwire.NewServer(fe, logger.Component("phiwire").Printf)
	srv.SetMetrics(phiwire.NewServerMetrics(reg))
	srv.SetTracer(tracer)
	srv.SetHealth(monitor)
	if *metricsAddr != "" {
		// Resource observatory: wire-level syscall/byte attribution on the
		// serving path, a runtime sampler snapshotting it at
		// /debug/resources, and a rolling profile ring that health
		// anomalies trigger into.
		wire := obs.NewWireCounters()
		srv.SetWire(wire)
		sampler := obs.NewSampler(obs.SamplerConfig{Registry: reg})
		sampler.SetWire("server", wire)
		sampler.AddCollect(wire.Publish(reg, "phiwire_server_wire"))
		defer sampler.Start()()
		ringDir := *profRing
		if ringDir == "" {
			ringDir = filepath.Join(os.TempDir(), "phi-cluster-profring")
		}
		ring, err := obs.NewProfileRing(obs.RingConfig{Dir: ringDir, Logf: logger.Component("profring").Printf})
		if err != nil {
			logger.Fatal("profile ring", "dir", ringDir, "err", err)
		}
		monitor.SetProfileTrigger(ring.TriggerAsync)
		endpoints := []telemetry.Endpoint{
			{Path: "/debug/resources", Handler: sampler.Handler(),
				Desc: "runtime + wire resource attribution snapshot"},
			{Path: "/debug/prof/ring", Handler: ring.Handler(),
				Desc: "rolling CPU/heap profile ring (?op=capture to trigger)"},
			{Path: "/debug/traces", Handler: tracer.Collector().Handler(),
				Desc: "retained request traces: slowest, errors, sampled (-trace)"},
			{Path: "/debug/stages", Handler: tracer.Stages().Handler(),
				Desc: "per-stage latency decomposition of the serving path (-stages)"},
			{Path: "/debug/shard", Handler: shardDebugHandler(cl, fl, logger),
				Desc: "shard fault injection: ?id=N&op=crash|restart|status"},
			{Path: "/debug/health", Handler: monitor.Handler(),
				Desc: "live health monitor: status, anomalies, localization (-health)"},
			{Path: "/debug/context", Handler: qtrack.Handler(),
				Desc: "context quality: freshness, coverage, predictive accuracy"},
		}
		if fl != nil {
			endpoints = append(endpoints,
				telemetry.Endpoint{Path: "/debug/fleet", Handler: fl.Handler(),
					Desc: "fleet members, remediation audit, chaos ops (-fleet)"})
		}
		if ingestPipe != nil {
			endpoints = append(endpoints,
				telemetry.Endpoint{Path: "/debug/ingest", Handler: ingest.Handler(ingestPipe, ingestCol),
					Desc: "passive IPFIX ingest: per-path reconstructed state (-ipfix-addr)"})
		}
		ms, err := telemetry.Serve(*metricsAddr, reg, endpoints...)
		if err != nil {
			logger.Fatal("metrics server", "err", err)
		}
		defer ms.Close()
		logger.Info("metrics server up", "addr", ms.Addr().String(), "tracing", *traceOn, "health", monitor != nil)
	}
	if *healthAddr != "" {
		hs, err := telemetry.Serve(*healthAddr, nil,
			telemetry.Endpoint{Path: "/debug/health", Handler: monitor.Handler()})
		if err != nil {
			logger.Fatal("health server", "err", err)
		}
		defer hs.Close()
		logger.Info("health server up", "addr", hs.Addr().String())
	}
	if *fleetAddr != "" {
		fs, err := telemetry.Serve(*fleetAddr, nil,
			telemetry.Endpoint{Path: "/debug/fleet", Handler: fl.Handler()})
		if err != nil {
			logger.Fatal("fleet server", "err", err)
		}
		defer fs.Close()
		logger.Info("fleet server up", "addr", fs.Addr().String())
	}
	policy := phi.DefaultPolicy()
	if *policyPath != "" {
		f, err := os.Open(*policyPath)
		if err != nil {
			logger.Fatal("open policy", "path", *policyPath, "err", err)
		}
		policy, err = phi.LoadPolicy(f)
		f.Close()
		if err != nil {
			logger.Fatal("load policy", "path", *policyPath, "err", err)
		}
		logger.Info("publishing policy", "path", *policyPath, "rules", len(policy.Rules))
	} else {
		logger.Info("publishing the built-in policy", "rules", len(policy.Rules))
	}
	if err := srv.SetPolicy(policy); err != nil {
		logger.Fatal("publish policy", "err", err)
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *listen, "shards", *shards, "vnodes", *vnodes)
		errc <- srv.ListenAndServe(*listen)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		srv.Close()
	case err := <-errc:
		stopSnapshots()
		logger.Fatal("serve", "err", err)
	}
	stopSnapshots() // takes a final snapshot per shard
	handled, rejected := srv.Stats()
	fs := fe.Stats()
	logger.Info("served", "requests", handled, "rejected", rejected,
		"lookups", fs.Lookups, "reports", fs.Reports, "failovers", fs.Failovers, "degraded", fs.Degraded)
}

// shardDebugHandler serves /debug/shard?id=N&op=crash|restart|status —
// runtime fault injection for failover drills: crash a shard mid-load,
// watch traces at /debug/traces pick up retry/failover notes, restart
// it, watch the breaker close. In fleet mode the ops target the member's
// current primary (crash = KillPrimary, restart = RestartPrimary), so
// the same drill exercises the remediation controller instead of the
// bare breaker; richer fleet ops live at /debug/fleet.
func shardDebugHandler(cl *cluster.Cluster, fl *fleet.Fleet, logger *tlog.Logger) http.Handler {
	n := func() int {
		if fl != nil {
			return len(fl.Members)
		}
		return len(cl.Shards)
	}()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.URL.Query().Get("id"))
		if err != nil || id < 0 || id >= n {
			http.Error(w, fmt.Sprintf("bad shard id (want 0..%d)", n-1), http.StatusBadRequest)
			return
		}
		switch op := r.URL.Query().Get("op"); op {
		case "crash":
			if fl != nil {
				fl.Members[id].KillPrimary()
			} else {
				cl.Shards[id].Crash()
			}
			logger.Warn("shard crashed by debug request", "shard", id)
		case "restart":
			if fl != nil {
				if _, err := fl.Members[id].RestartPrimary(""); err != nil {
					logger.Warn("debug restart", "shard", id, "err", err)
				}
			} else {
				cl.Shards[id].Restart()
			}
			logger.Info("shard restarted by debug request", "shard", id)
		case "", "status":
		default:
			http.Error(w, "op must be crash, restart, or status", http.StatusBadRequest)
			return
		}
		down := false
		if fl != nil {
			down = fl.Members[id].Primary().Down()
		} else {
			down = cl.Shards[id].Down()
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"shard\":%d,\"down\":%v}\n", id, down)
	})
}

// pathFlags collects repeated -path name=capacity flags.
type pathFlags []struct {
	name     string
	capacity int64
}

func (p *pathFlags) String() string {
	var parts []string
	for _, e := range *p {
		parts = append(parts, fmt.Sprintf("%s=%d", e.name, e.capacity))
	}
	return strings.Join(parts, ",")
}

func (p *pathFlags) Set(v string) error {
	name, capStr, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=bitsPerSecond, got %q", v)
	}
	c, err := strconv.ParseInt(capStr, 10, 64)
	if err != nil || c <= 0 {
		return fmt.Errorf("bad capacity in %q", v)
	}
	*p = append(*p, struct {
		name     string
		capacity int64
	}{name, c})
	return nil
}
