// Package cluster scales the Phi context server horizontally: a
// consistent-hash ring shards path keys across N independent phi.Server
// partitions, a failover-aware frontend routes lookups and reports to
// the owning shard (retrying once against the path's fallback replica),
// and a versioned snapshot/restore cycle lets a crashed shard come back
// with its u/q/n estimates intact instead of zeroed.
//
// The paper's design is one context server per administrative domain —
// but the domain is a "mega-computer" sourcing traffic for millions of
// users, so the repository of shared state must itself be distributed
// and survive node loss. The sharding is exact, not approximate: all
// state for one path lives on one shard, so a sharded cluster computes
// bit-identical congestion contexts to the monolithic server on the
// same traffic (cluster_test.go proves it against the simulator).
//
// Degradation is layered, mirroring Section 2.2.3's incremental-
// deployability argument: owner down → the fallback replica answers
// (warm if report replication is on); both down → the frontend returns
// an error and phi.Client silently falls back to policy defaults. A Phi
// sender is never worse off because the control plane is sick.
package cluster

import (
	"time"

	healthmon "repro/internal/health"
	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/sim"
)

// Config assembles a cluster.
type Config struct {
	// Shards is the partition count (default 4).
	Shards int
	// VNodes is the virtual-node count per shard (default
	// DefaultVNodes).
	VNodes int
	// Clock feeds every shard's estimators; defaults to the wall clock.
	// All shards must share one clock or cross-shard estimates skew.
	Clock func() sim.Time
	// Server configures each shard's phi.Server.
	Server phi.ServerConfig
	// Frontend configures routing and failure handling.
	Frontend FrontendConfig
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Clock == nil {
		c.Clock = func() sim.Time { return sim.Time(time.Now().UnixNano()) }
	}
	return c
}

// Cluster is an assembled sharded context server: ring, shards, and the
// frontend that clients actually talk to.
type Cluster struct {
	Ring     *Ring
	Shards   []*Shard
	Frontend *Frontend
}

// New builds a cluster of in-process shards per cfg.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	ring := NewRing(cfg.Shards, cfg.VNodes)
	shards := make([]*Shard, cfg.Shards)
	conns := make([]Conn, cfg.Shards)
	for i := range shards {
		shards[i] = NewShard(i, cfg.Clock, cfg.Server)
		conns[i] = shards[i]
	}
	return &Cluster{
		Ring:     ring,
		Shards:   shards,
		Frontend: NewFrontend(ring, conns, cfg.Frontend),
	}
}

// Health attaches the live health monitor to the frontend, which feeds
// it accepted operations, per-shard call results, routing decisions,
// and its breaker view. The monitor attaches at the frontend only —
// shard-level phi.Servers see the same operations and would double
// count. Call before the cluster starts serving.
func (c *Cluster) Health(m *healthmon.Monitor) {
	c.Frontend.SetHealth(m)
}

// Quality attaches one context-quality tracker to the frontend (which
// records degraded lookups as fallback coverage) and to every shard
// (which classify served lookups and pair predictions against reports),
// and registers each shard's path table as a freshness source for the
// stalest-paths list. Coverage therefore aggregates across the whole
// cluster. Call before the cluster starts serving.
func (c *Cluster) Quality(q *quality.Tracker) {
	c.Frontend.SetQuality(q)
	for _, s := range c.Shards {
		s.SetQuality(q)
		q.AddPathSource(s.Freshness)
	}
}

// SaveSnapshots writes every shard's snapshot under dir; the first error
// aborts (remaining shards keep their previous snapshots).
func (c *Cluster) SaveSnapshots(dir string) error {
	for _, s := range c.Shards {
		if err := s.SaveSnapshot(dir); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshots rehydrates every shard that has a snapshot file under
// dir, returning how many were restored.
func (c *Cluster) LoadSnapshots(dir string) (restored int, err error) {
	for _, s := range c.Shards {
		ok, err := s.LoadSnapshot(dir)
		if err != nil {
			return restored, err
		}
		if ok {
			restored++
		}
	}
	return restored, nil
}

// StartSnapshotters starts a periodic snapshotter per shard; the
// returned stop function stops them all, each taking a final snapshot.
func (c *Cluster) StartSnapshotters(dir string, interval time.Duration, logf func(string, ...any)) (stop func()) {
	stops := make([]func(), len(c.Shards))
	for i, s := range c.Shards {
		stops[i] = s.StartSnapshotter(dir, interval, logf)
	}
	return func() {
		for _, st := range stops {
			st()
		}
	}
}

// SnapshotAges returns, per shard, the seconds since the last successful
// SaveSnapshot, or -1 for shards that have never snapshotted. The health
// monitor surfaces these at /debug/health so snapshot staleness is
// visible before a crash proves it.
func (c *Cluster) SnapshotAges() []float64 {
	ages := make([]float64, len(c.Shards))
	now := time.Now()
	for i, s := range c.Shards {
		at, ok := s.LastSnapshotAt()
		if !ok {
			ages[i] = -1
			continue
		}
		ages[i] = now.Sub(at).Seconds()
	}
	return ages
}

// Stats sums shard-level operation counters (lookups, reports) across
// live shards.
func (c *Cluster) Stats() (lookups, reports uint64) {
	for _, s := range c.Shards {
		l, r := s.Stats()
		lookups += l
		reports += r
	}
	return lookups, reports
}
