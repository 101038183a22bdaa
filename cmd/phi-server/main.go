// Command phi-server runs a standalone Phi context server over TCP: the
// per-domain repository of shared network state of Section 2.2.2. Senders
// (via internal/phiwire.Client) look up the congestion context at
// connection start and report their experience at connection end.
//
// Usage:
//
//	phi-server -listen :7731 -path bottleneck=15000000 \
//	    -metrics-addr 127.0.0.1:7732
//
// With -metrics-addr set, the server exposes Prometheus-text-format
// telemetry (lookup/report counts and latency histograms, wire-level
// request counters, open connections) at /metrics on that address,
// plus /debug/traces (with -trace), /debug/stages (with -stages, the
// per-stage latency decomposition), /debug/exemplars, the standard
// pprof profiles under /debug/pprof/, /debug/resources (runtime sampler
// + wire-level syscall/byte attribution), /debug/prof/ring (a rolling
// on-disk CPU/heap profile ring; ?op=capture to trigger, and health
// anomalies capture automatically), /debug/context (context quality:
// per-source freshness, fresh/stale/fallback coverage, paired RTT/loss
// prediction accuracy, passive-vs-active drift), and a /debug/ index
// listing every mounted endpoint.
//
// With -ipfix-addr set, the server also runs the passive-ingest
// pipeline: IPFIX exports received on that UDP address are decoded,
// per-flow TCP state is reconstructed (RTT from sequence/ack matching,
// loss from retransmissions, throughput from octet deltas), and the
// inferred per-path context is folded into the same server the
// cooperative protocol fills — no sender cooperation required.
// Pipeline state is served at /debug/ingest on -metrics-addr.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

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
		window      = flag.Duration("window", 10*time.Second, "utilization estimation window")
		policyPath  = flag.String("policy", "", "publish this JSON policy file to clients (default: the built-in policy)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics on this address (empty = telemetry off)")
		traceOn     = flag.Bool("trace", false, "record request traces (view at /debug/traces on -metrics-addr)")
		stagesOn    = flag.Bool("stages", false, "aggregate per-stage latency histograms from the span stream (view at /debug/stages on -metrics-addr; implies -trace)")
		healthOn    = flag.Bool("health", false, "run the live health monitor (view at /debug/health on -metrics-addr or -health-addr)")
		healthAddr  = flag.String("health-addr", "", "serve /debug/health on a dedicated address (implies -health)")
		healthWin   = flag.Duration("health-bucket", time.Second, "health monitor rollup bucket width")
		profRing    = flag.String("prof-ring-dir", "", "rolling CPU/heap profile ring directory (default: <tmp>/phi-server-profring; requires -metrics-addr)")
		ipfixAddr   = flag.String("ipfix-addr", "", "receive IPFIX exports on this UDP address and ingest passive context (empty = off)")
		ipfixSample = flag.Int("ipfix-sample", 1, "ipfix: exporter packet sampling rate (1-in-N)")
		ipfixWindow = flag.Duration("ipfix-window", 5*time.Second, "ipfix: per-path aggregation window (stream time)")
		passiveWt   = flag.Float64("passive-weight", 0, "weight of passive (IPFIX-inferred) reports relative to cooperative ones (0 = server default of 1)")
		maxPaths    = flag.Int("max-paths", 0, "bound the per-path state table, evicting idle paths (0 = unbounded)")
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
	logger := tlog.New(os.Stderr, lvl, lopts...).Component("phi-server")

	var reg *telemetry.Registry // nil keeps every hot path uninstrumented
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if *stagesOn {
		*traceOn = true // stages aggregate the span stream
	}
	var tracer *trace.Tracer // nil likewise keeps tracing a no-op
	if *traceOn {
		tracer = trace.NewTracer(trace.Config{})
		if *stagesOn {
			tracer.Collector().AttachStages(trace.NewStageAggregator())
		}
	}
	var monitor *health.Monitor // nil likewise keeps health hooks no-ops
	if *healthOn || *healthAddr != "" {
		monitor = health.NewMonitor(health.Config{BucketDur: *healthWin})
		monitor.SetLogger(logger.Component("health"))
		monitor.SetTracer(tracer)
		monitor.SetMetrics(health.NewMetrics(reg))
		stop := monitor.Start()
		defer stop()
	}

	backend := phi.NewServer(
		func() sim.Time { return sim.Time(time.Now().UnixNano()) },
		phi.ServerConfig{
			Window:        sim.Time(window.Nanoseconds()),
			PassiveWeight: *passiveWt,
			MaxPaths:      *maxPaths,
			FreshTTL:      sim.Time(freshTTL.Nanoseconds()),
		},
	)
	backend.SetMetrics(phi.NewServerMetrics(reg, nil))
	backend.SetHealth(monitor)
	// Context-quality layer: freshness, coverage, and predictive-accuracy
	// accounting on the lookup/report path, served at /debug/context.
	// Like the other observability layers it only runs instrumented.
	var qtrack *quality.Tracker
	if reg != nil {
		qtrack = quality.New(quality.Config{Registry: reg})
		backend.SetQuality(qtrack)
		qtrack.AddPathSource(backend.Freshness)
		monitor.SetQualitySource(qtrack.HealthCheck)
	}
	for _, p := range paths {
		backend.RegisterPath(phi.PathKey(p.name), p.capacity)
		logger.Info("registered path", "path", p.name, "capacity_bps", p.capacity)
	}

	// Passive ingest: an IPFIX collector feeding the same backend the
	// cooperative wire protocol reports into.
	var (
		ingestPipe *ingest.Pipeline
		ingestCol  *ipfix.Collector
	)
	if *ipfixAddr != "" {
		p, err := ingest.New(ingest.Config{
			Sink:         backend,
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

	srv := phiwire.NewServer(backend, logger.Component("phiwire").Printf)
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
			ringDir = filepath.Join(os.TempDir(), "phi-server-profring")
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
			{Path: "/debug/health", Handler: monitor.Handler(),
				Desc: "live health monitor: status, anomalies, localization (-health)"},
			{Path: "/debug/context", Handler: qtrack.Handler(),
				Desc: "context quality: freshness, coverage, predictive accuracy"},
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
		logger.Info("listening", "addr", *listen)
		errc <- srv.ListenAndServe(*listen)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
		srv.Close()
	case err := <-errc:
		logger.Fatal("serve", "err", err)
	}
	handled, rejected := srv.Stats()
	logger.Info("served", "requests", handled, "rejected", rejected)
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
