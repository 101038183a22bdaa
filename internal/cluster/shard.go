package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/sim"
)

// ErrShardDown is returned by every operation against a crashed shard.
var ErrShardDown = errors.New("cluster: shard down")

// Conn is what the frontend needs from one shard: the full station
// interface plus mid-connection progress reports. *Shard implements it
// in-process; a wire-backed client implementing the same methods can
// stand in for a remote shard process. The frontend calls only these
// plain methods: a request's trace ends at its shard.call span, and a
// shard's own time is reported by its phi_server_* histograms.
type Conn interface {
	Lookup(path phi.PathKey) (phi.Context, error)
	ReportStart(path phi.PathKey) error
	ReportEnd(path phi.PathKey, r phi.Report) error
	ReportProgress(path phi.PathKey, r phi.Report) error
}

// Shard is one partition of the context-server keyspace: a phi.Server of
// its own (and therefore a lock of its own — hot paths on different
// shards never contend), plus crash/restart/restore controls used by the
// failover machinery and by fault-injection tests.
type Shard struct {
	// ID is the shard's index in the ring, fixed at construction.
	ID int

	clock func() sim.Time
	cfg   phi.ServerConfig

	mu   sync.Mutex
	srv  *phi.Server // replaced wholesale on crash/restart
	down bool

	// srvMetrics is re-applied to every replacement phi.Server, so the
	// registry-level counters survive crash/restore cycles even though
	// the server instance (and its internal counters) does not.
	srvMetrics *phi.ServerMetrics
	// snapMetrics times the snapshot cycle (shared across shards).
	snapMetrics *SnapshotMetrics
	// quality is likewise re-applied, so context-quality measurement
	// survives crash/restore cycles (the tracker is process-wide and
	// outlives any single server instance).
	quality *quality.Tracker

	// lastSnap is the wall-clock time (unix nanos) of the last successful
	// SaveSnapshot, 0 if none yet. An atomic so health endpoints can read
	// staleness without contending with the snapshotter or the data path.
	lastSnap atomic.Int64
}

// NewShard creates shard id with its own backing phi.Server.
func NewShard(id int, clock func() sim.Time, cfg phi.ServerConfig) *Shard {
	return &Shard{ID: id, clock: clock, cfg: cfg, srv: phi.NewServer(clock, cfg)}
}

// server returns the live backend, or nil if the shard is down.
func (s *Shard) server() *phi.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil
	}
	return s.srv
}

// Lookup implements Conn.
func (s *Shard) Lookup(path phi.PathKey) (phi.Context, error) {
	srv := s.server()
	if srv == nil {
		return phi.Context{}, ErrShardDown
	}
	return srv.Lookup(path)
}

// ReportStart implements Conn.
func (s *Shard) ReportStart(path phi.PathKey) error {
	srv := s.server()
	if srv == nil {
		return ErrShardDown
	}
	return srv.ReportStart(path)
}

// ReportEnd implements Conn.
func (s *Shard) ReportEnd(path phi.PathKey, r phi.Report) error {
	srv := s.server()
	if srv == nil {
		return ErrShardDown
	}
	return srv.ReportEnd(path, r)
}

// ReportProgress implements Conn.
func (s *Shard) ReportProgress(path phi.PathKey, r phi.Report) error {
	srv := s.server()
	if srv == nil {
		return ErrShardDown
	}
	return srv.ReportProgress(path, r)
}

// RegisterPath forwards to the backing server (no-op while down).
func (s *Shard) RegisterPath(path phi.PathKey, capacityBps int64) {
	if srv := s.server(); srv != nil {
		srv.RegisterPath(path, capacityBps)
	}
}

// SetServerMetrics attaches the context-server metric set to the
// backing server, now and across every future crash/restore replacement.
// Call before the shard starts serving.
func (s *Shard) SetServerMetrics(m *phi.ServerMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srvMetrics = m
	s.srv.SetMetrics(m)
}

// SetSnapshotMetrics attaches snapshot-cycle telemetry. Call before the
// snapshotter starts.
func (s *Shard) SetSnapshotMetrics(m *SnapshotMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapMetrics = m
}

// SetQuality attaches (or detaches, with nil) the context-quality
// tracker to the backing server, now and across every future
// crash/restore replacement. Call before the shard starts serving.
func (s *Shard) SetQuality(q *quality.Tracker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quality = q
	s.srv.SetQuality(q)
}

// Freshness enumerates the shard's per-path evidence ages for the
// quality tracker's stalest-paths list (nil while down).
func (s *Shard) Freshness() []quality.PathFreshness {
	srv := s.server()
	if srv == nil {
		return nil
	}
	return srv.Freshness()
}

// Crash simulates process loss: the shard goes down and all in-memory
// path state is discarded. Only a Restart (empty) or RestoreSnapshot
// (rehydrated) brings it back.
func (s *Shard) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = true
	s.srv = phi.NewServer(s.clock, s.cfg)
	s.srv.SetMetrics(s.srvMetrics)
	s.srv.SetQuality(s.quality)
}

// Down reports whether the shard is crashed.
func (s *Shard) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Restart brings a crashed shard back with empty state.
func (s *Shard) Restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = false
}

// Export snapshots the shard's path state (see phi.Server.ExportState).
// A down shard exports nothing.
func (s *Shard) Export() []phi.PathSnapshot {
	srv := s.server()
	if srv == nil {
		return nil
	}
	return srv.ExportState()
}

// LastSnapshotAt returns the wall-clock time of the last successful
// SaveSnapshot; ok is false if no snapshot has succeeded yet. Exposed so
// /debug/health can surface snapshot staleness before a crash proves it.
func (s *Shard) LastSnapshotAt() (t time.Time, ok bool) {
	ns := s.lastSnap.Load()
	if ns == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Stats returns the backing server's lookup/report counters (zero while
// down — the counters died with the process).
func (s *Shard) Stats() (lookups, reports uint64) {
	srv := s.server()
	if srv == nil {
		return 0, 0
	}
	return srv.Stats()
}

// PathCount returns the number of paths with state on this shard.
func (s *Shard) PathCount() int {
	srv := s.server()
	if srv == nil {
		return 0
	}
	return srv.PathCount()
}
