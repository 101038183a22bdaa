package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	healthmon "repro/internal/health"
	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/trace"
)

// Frontend span names and decision notes. The notes mark the routing
// decisions worth keeping a trace for: the tail-based collector retains
// every trace that failed over, degraded, or hit an open breaker.
var (
	opFrontLookup   = trace.Name("frontend.lookup")
	opFrontStart    = trace.Name("frontend.report_start")
	opFrontEnd      = trace.Name("frontend.report_end")
	opFrontProgress = trace.Name("frontend.report_progress")
	opShardCall     = trace.Name("shard.call")

	noteRetry       = trace.Name("retry")
	noteFailover    = trace.Name("failover")
	noteBreakerOpen = trace.Name("breaker-open")
)

// degradedNotes caches the per-(owner,fallback) degraded notes so the
// (rare) degraded path interns each distinct pair once. The note names
// the shard indices that were tried and failed, letting fleet audit
// logs correlate client-visible degradation with controller actions.
var degradedNotes sync.Map // uint64(owner)<<32|uint32(fallback) -> trace.Ref

// degradedTriedNote returns the interned note "degraded tried=[o f]"
// (or "degraded tried=[o]" with no fallback). The intern table bounds
// total entries, so even a pathological shard count degrades to the
// overflow ref rather than growing without bound.
func degradedTriedNote(owner, fallback int) trace.Ref {
	key := uint64(owner)<<32 | uint64(uint32(fallback))
	if r, ok := degradedNotes.Load(key); ok {
		return r.(trace.Ref)
	}
	var r trace.Ref
	if fallback < 0 {
		r = trace.Name(fmt.Sprintf("degraded tried=[%d]", owner))
	} else {
		r = trace.Name(fmt.Sprintf("degraded tried=[%d %d]", owner, fallback))
	}
	degradedNotes.Store(key, r)
	return r
}

// Errors surfaced by the frontend. A caller that sees ErrAllReplicasDown
// should degrade to its policy defaults — exactly the ContextSource
// contract, which phi.Client already honors.
var (
	ErrAllReplicasDown = errors.New("cluster: owner and fallback shard both unavailable")
	ErrShardTimeout    = errors.New("cluster: shard call timed out")
)

// FrontendConfig tunes routing and failure handling.
type FrontendConfig struct {
	// Timeout bounds each shard call. Zero calls synchronously with no
	// timeout — right for in-process shards, which cannot hang; set it
	// when shards are remote.
	Timeout time.Duration
	// DownAfter marks a shard down after this many consecutive failures
	// (default 3). While down it is skipped without being called.
	DownAfter int
	// Cooldown is how long a down shard is skipped before the next call
	// probes it again (default 5s). Uses the wall clock: shard health is
	// an operational property, not simulated state.
	Cooldown time.Duration
	// ReplicateReports mirrors every report to the path's fallback shard
	// so failover lands on warm state instead of empty estimates, at the
	// cost of doubling report writes. Lookups still read only the owner,
	// so estimates are unchanged while the owner is healthy.
	ReplicateReports bool
}

func (c FrontendConfig) withDefaults() FrontendConfig {
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

// shardHealth is the frontend's per-shard circuit breaker.
type shardHealth struct {
	mu          sync.Mutex
	consecFails int
	downUntil   time.Time
}

// FrontendStats counts routing outcomes.
type FrontendStats struct {
	// Lookups and Reports are operations accepted by the frontend.
	Lookups uint64
	Reports uint64
	// Failovers are operations the owner failed and the fallback served.
	Failovers uint64
	// Degraded are operations where owner and fallback both failed and
	// the caller was told to fall back to policy defaults.
	Degraded uint64
	// Mirrored counts successful report replications to fallbacks.
	Mirrored uint64
	// Retries are fallback attempts after an owner failure (successful
	// or not; the successful ones are Failovers).
	Retries uint64
}

// Frontend routes context-server operations to the owning shard, with
// per-shard health tracking, a single retry against the path's fallback
// replica, and graceful degradation (an error, which phi.Client turns
// into policy defaults) when both are unavailable.
//
// It implements phi.ContextSource, phi.Reporter, and ReportProgress, so
// it drops in anywhere a *phi.Server does — including behind
// phiwire.Server.
type Frontend struct {
	ring   *Ring
	shards []Conn
	cfg    FrontendConfig
	health []shardHealth
	now    func() time.Time // wall clock, swappable in tests

	lookups   atomic.Uint64
	reports   atomic.Uint64
	failovers atomic.Uint64
	degraded  atomic.Uint64
	mirrored  atomic.Uint64
	retries   atomic.Uint64

	// metrics is the optional telemetry surface (nil = uninstrumented).
	// Set before serving: the field is read without synchronization.
	metrics *FrontendMetrics

	// tracer records routing spans (nil = untraced). Set before serving:
	// the field is read without synchronization.
	tracer *trace.Tracer

	// hmon feeds the live health monitor (nil = unmonitored; Record
	// methods are nil-safe). Set before serving.
	hmon *healthmon.Monitor

	// quality records degraded lookups as fallback coverage — the one
	// outcome no shard-level hook can see, because no shard was reached
	// (nil = unmeasured). Set before serving.
	quality *quality.Tracker
}

// SetMetrics attaches (or detaches, with nil) the telemetry surface.
// The metric set's per-shard slices must cover every shard id. Call
// before the frontend starts serving.
func (f *Frontend) SetMetrics(m *FrontendMetrics) { f.metrics = m }

// SetTracer attaches (or detaches, with nil) the span tracer. Call
// before the frontend starts serving.
func (f *Frontend) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetHealth attaches (or detaches, with nil) the live health monitor
// and installs the frontend's breaker view as its shard-status source.
// Call before the frontend starts serving.
func (f *Frontend) SetHealth(m *healthmon.Monitor) {
	f.hmon = m
	if m == nil {
		return
	}
	m.SetShardStatus(func() []bool {
		down := make([]bool, len(f.shards))
		for i := range down {
			down[i] = f.ShardDown(i)
		}
		return down
	})
}

// SetQuality attaches (or detaches, with nil) the context-quality
// tracker. Only lookups that degrade (owner and fallback both
// unavailable) are recorded here — every served lookup is classified by
// the shard's own phi.Server, so the frontend adds exactly the outcomes
// the shards cannot observe. Call before the frontend starts serving.
func (f *Frontend) SetQuality(q *quality.Tracker) { f.quality = q }

// NewFrontend builds a frontend over the given shard connections; the
// ring must have exactly len(shards) shards.
func NewFrontend(ring *Ring, shards []Conn, cfg FrontendConfig) *Frontend {
	if ring.Shards() != len(shards) {
		panic("cluster: ring size does not match shard count")
	}
	return &Frontend{
		ring:   ring,
		shards: shards,
		cfg:    cfg.withDefaults(),
		health: make([]shardHealth, len(shards)),
		now:    time.Now,
	}
}

// Ring exposes the routing ring (read-only by construction).
func (f *Frontend) Ring() *Ring { return f.ring }

// Stats returns a snapshot of the routing counters.
func (f *Frontend) Stats() FrontendStats {
	return FrontendStats{
		Lookups:   f.lookups.Load(),
		Reports:   f.reports.Load(),
		Failovers: f.failovers.Load(),
		Degraded:  f.degraded.Load(),
		Mirrored:  f.mirrored.Load(),
		Retries:   f.retries.Load(),
	}
}

// markResult updates shard i's breaker after a call.
func (f *Frontend) markResult(i int, err error) {
	m := f.metrics
	h := &f.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	if err == nil {
		h.consecFails = 0
		h.downUntil = time.Time{}
		if m != nil {
			m.Down[i].Set(0)
		}
		return
	}
	h.consecFails++
	if h.consecFails >= f.cfg.DownAfter {
		h.downUntil = f.now().Add(f.cfg.Cooldown)
		if m != nil {
			m.Down[i].Set(1)
		}
	}
}

// skippable reports whether shard i is marked down and still cooling off.
func (f *Frontend) skippable(i int) bool {
	h := &f.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.downUntil.IsZero() && f.now().Before(h.downUntil)
}

// ShardDown reports whether the frontend currently routes around shard i.
func (f *Frontend) ShardDown(i int) bool { return f.skippable(i) }

// Quarantine routes around shard i for d, regardless of its breaker
// history — the drain half of a remediation: while a controller is
// repairing a shard, traffic goes straight to fallbacks instead of
// paying a failed owner call first. A successful probe after the window
// (or ResetShard) returns the shard to service.
func (f *Frontend) Quarantine(i int, d time.Duration) {
	h := &f.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = f.cfg.DownAfter
	h.downUntil = f.now().Add(d)
	if m := f.metrics; m != nil {
		m.Down[i].Set(1)
	}
}

// ResetShard clears shard i's breaker so the next operation calls it
// immediately — promotion awareness: after a fleet controller promotes
// a backup or restarts a shard, the replica behind index i is healthy
// and traffic should return now, not after the cooldown expires.
func (f *Frontend) ResetShard(i int) {
	h := &f.health[i]
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
	h.downUntil = time.Time{}
	if m := f.metrics; m != nil {
		m.Down[i].Set(0)
	}
}

// call runs op against shard i under the configured timeout, updating
// the shard's breaker and recording a shard.call span under parent. That
// span is the innermost one a traced request gets: the trace context
// stops here, and the shard's own phi.Server time is reported by its
// phi_server_* histograms. A shard in cooldown is skipped outright
// (noted as breaker-open on the span).
func (f *Frontend) call(i int, parent trace.SpanContext, op func(c Conn) (phi.Context, error)) (phi.Context, error) {
	csp := f.tracer.Start(parent, opShardCall)
	csp.SetShard(i)
	if f.skippable(i) {
		csp.Note(noteBreakerOpen)
		csp.End(ErrShardDown)
		f.hmon.RecordRouting(healthmon.RouteBreakerOpen)
		return phi.Context{}, ErrShardDown
	}
	m := f.metrics
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	var ctx phi.Context
	var err error
	if f.cfg.Timeout <= 0 {
		ctx, err = op(f.shards[i])
	} else {
		// A timed-out call keeps running, so its goroutine hands the
		// result back over done and never writes ctx or err itself.
		type result struct {
			ctx phi.Context
			err error
		}
		done := make(chan result, 1)
		go func(c Conn) {
			var r result
			r.ctx, r.err = op(c)
			done <- r
		}(f.shards[i])
		select {
		case r := <-done:
			ctx, err = r.ctx, r.err
		case <-time.After(f.cfg.Timeout):
			err = ErrShardTimeout
		}
	}
	f.markResult(i, err)
	f.hmon.RecordShardCall(i, err != nil)
	if m != nil {
		m.CallSeconds[i].Observe(time.Since(start))
		if err != nil {
			m.CallErrors[i].Inc()
		}
	}
	csp.End(err)
	return ctx, err
}

// Lookup implements phi.ContextSource: owner first, one retry on the
// fallback replica, then degrade.
func (f *Frontend) Lookup(path phi.PathKey) (phi.Context, error) {
	return f.LookupSpan(trace.SpanContext{}, path)
}

// LookupSpan is Lookup joined to a caller's trace: the routing span it
// records (and every shard-call span under it) becomes a child of
// parent, so a wire request traced at the client shows owner attempts,
// retries, and failovers as nested spans.
func (f *Frontend) LookupSpan(parent trace.SpanContext, path phi.PathKey) (phi.Context, error) {
	m := f.metrics
	f.lookups.Add(1)
	if m != nil {
		m.Lookups.Inc()
	}
	f.hmon.RecordLookup(string(path))
	f.hmon.RecordTrace(string(path), uint64(parent.Trace))
	sp := f.tracer.Start(parent, opFrontLookup)
	sc := sp.Context()
	owner, fb := f.ring.OwnerAndFallback(path)
	get := func(c Conn) (phi.Context, error) { return c.Lookup(path) }
	if ctx, err := f.call(owner, sc, get); err == nil {
		sp.End(nil)
		return ctx, nil
	}
	if fb >= 0 {
		f.retries.Add(1)
		if m != nil {
			m.Retries.Inc()
		}
		f.hmon.RecordRouting(healthmon.RouteRetry)
		sp.Note(noteRetry)
		if ctx, err := f.call(fb, sc, get); err == nil {
			f.failovers.Add(1)
			if m != nil {
				m.Failovers.Inc()
			}
			f.hmon.RecordRouting(healthmon.RouteFailover)
			sp.Note(noteFailover)
			sp.End(nil)
			return ctx, nil
		}
	}
	f.degraded.Add(1)
	if m != nil {
		m.Degraded.Inc()
	}
	f.hmon.RecordRouting(healthmon.RouteDegraded)
	f.quality.ObserveFallback(string(path))
	sp.Note(degradedTriedNote(owner, fb))
	sp.End(ErrAllReplicasDown)
	return phi.Context{}, ErrAllReplicasDown
}

// ReportStart implements phi.Reporter.
func (f *Frontend) ReportStart(path phi.PathKey) error {
	return f.ReportStartSpan(trace.SpanContext{}, path)
}

// ReportStartSpan is ReportStart joined to a caller's trace.
func (f *Frontend) ReportStartSpan(parent trace.SpanContext, path phi.PathKey) error {
	return f.deliverReport(parent, opFrontStart, path, func(c Conn) (phi.Context, error) {
		return phi.Context{}, c.ReportStart(path)
	})
}

// ReportEnd implements phi.Reporter.
func (f *Frontend) ReportEnd(path phi.PathKey, r phi.Report) error {
	return f.ReportEndSpan(trace.SpanContext{}, path, r)
}

// ReportEndSpan is ReportEnd joined to a caller's trace.
func (f *Frontend) ReportEndSpan(parent trace.SpanContext, path phi.PathKey, r phi.Report) error {
	return f.deliverReport(parent, opFrontEnd, path, func(c Conn) (phi.Context, error) {
		return phi.Context{}, c.ReportEnd(path, r)
	})
}

// ReportProgress forwards a mid-connection report.
func (f *Frontend) ReportProgress(path phi.PathKey, r phi.Report) error {
	return f.ReportProgressSpan(trace.SpanContext{}, path, r)
}

// ReportProgressSpan is ReportProgress joined to a caller's trace.
func (f *Frontend) ReportProgressSpan(parent trace.SpanContext, path phi.PathKey, r phi.Report) error {
	return f.deliverReport(parent, opFrontProgress, path, func(c Conn) (phi.Context, error) {
		return phi.Context{}, c.ReportProgress(path, r)
	})
}

// deliverReport routes a report to the owner (failing over once to the
// fallback) and, when replication is on, mirrors it to the fallback so a
// later failover finds warm state. Mirror failures are best-effort: they
// feed the breaker but never fail the report. Routing decisions are
// recorded on a span under parent (mirrors are deliberately not noted —
// replication is routine, not interesting).
func (f *Frontend) deliverReport(parent trace.SpanContext, name trace.Ref, path phi.PathKey, op func(c Conn) (phi.Context, error)) error {
	m := f.metrics
	f.reports.Add(1)
	if m != nil {
		m.Reports.Inc()
	}
	f.hmon.RecordReport(string(path))
	f.hmon.RecordTrace(string(path), uint64(parent.Trace))
	sp := f.tracer.Start(parent, name)
	sc := sp.Context()
	owner, fb := f.ring.OwnerAndFallback(path)
	_, err := f.call(owner, sc, op)
	switch {
	case err == nil:
		if f.cfg.ReplicateReports && fb >= 0 {
			if _, err := f.call(fb, sc, op); err == nil {
				f.mirrored.Add(1)
				if m != nil {
					m.Mirrored.Inc()
				}
			}
		}
		sp.End(nil)
		return nil
	case fb >= 0:
		f.retries.Add(1)
		if m != nil {
			m.Retries.Inc()
		}
		f.hmon.RecordRouting(healthmon.RouteRetry)
		sp.Note(noteRetry)
		if _, err := f.call(fb, sc, op); err == nil {
			f.failovers.Add(1)
			if m != nil {
				m.Failovers.Inc()
			}
			f.hmon.RecordRouting(healthmon.RouteFailover)
			sp.Note(noteFailover)
			sp.End(nil)
			return nil
		}
		f.degraded.Add(1)
		if m != nil {
			m.Degraded.Inc()
		}
		f.hmon.RecordRouting(healthmon.RouteDegraded)
		sp.Note(degradedTriedNote(owner, fb))
		sp.End(ErrAllReplicasDown)
		return ErrAllReplicasDown
	default:
		sp.End(err)
		return err
	}
}

// pathRegistrar is the optional capacity-registration facet of a shard
// connection. In-process shards implement it; wire-backed ones need not
// (capacities are then registered on the shard processes directly).
type pathRegistrar interface {
	RegisterPath(path phi.PathKey, capacityBps int64)
}

// RegisterPath declares a path capacity on its owner and fallback shards,
// mirroring phi.Server.RegisterPath for a sharded deployment.
func (f *Frontend) RegisterPath(path phi.PathKey, capacityBps int64) {
	owner, fb := f.ring.OwnerAndFallback(path)
	if s, ok := f.shards[owner].(pathRegistrar); ok {
		s.RegisterPath(path, capacityBps)
	}
	if fb >= 0 {
		if s, ok := f.shards[fb].(pathRegistrar); ok {
			s.RegisterPath(path, capacityBps)
		}
	}
}
