// Package fleet runs the sharded context server as a replicated,
// self-healing fleet: every ring shard becomes a primary/backup pair
// (Member) fed by synchronous report mirroring and periodic full-state
// snapshot sync, and an autonomous remediation controller polls health,
// classifies members, and repairs failures — promoting live backups over
// dead primaries, reseeding stale backups, and restarting members with
// no replica left.
//
// The paper's control plane serves one administrative domain's worth of
// shared congestion context, so losing it degrades every sender in the
// domain at once. cluster gives the data path layered degradation
// (fallback replicas, breakers, policy defaults); fleet closes the loop
// by making the degraded state transient without an operator: the same
// signals /debug/health exposes to humans drive the controller's
// promote/resync/restart decisions, rate-limited and audited.
package fleet

import (
	"strconv"
	"time"

	"repro/internal/cluster"
	healthmon "repro/internal/health"
	"repro/internal/phi"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/telemetry"
	tlog "repro/internal/trace/log"
)

// Config assembles a fleet. The embedded cluster knobs mean a fleet is
// configured exactly like a cluster plus a Controller section.
type Config struct {
	// Shards is the member count (default 4).
	Shards int
	// VNodes is the virtual-node count per member (default
	// cluster.DefaultVNodes).
	VNodes int
	// Clock feeds every replica's estimators; defaults to the wall clock.
	Clock func() sim.Time
	// Server configures each replica's phi.Server. Primary and backup use
	// the same config — they must, or mirrored reports would produce
	// different estimates.
	Server phi.ServerConfig
	// Frontend configures routing and failure handling, unchanged from
	// plain clusters. ReplicateReports still works and layers under the
	// member-level backup: ring-fallback mirroring warms a *different*
	// member for the both-replicas-down case.
	Frontend cluster.FrontendConfig
	// Controller tunes the remediation loop.
	Controller ControllerConfig
	// ReplayBuffer bounds each member's mirrored-report catch-up buffer
	// (default DefaultReplayBuffer).
	ReplayBuffer int
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

// Fleet is the assembled replicated cluster: ring, members, the frontend
// clients talk to, and the remediation controller.
type Fleet struct {
	Ring       *cluster.Ring
	Members    []*Member
	Frontend   *cluster.Frontend
	Controller *Controller
}

// New builds a fleet per cfg. Backups start live (empty mirrors of empty
// primaries), so replication is in force from the first report. The
// controller is constructed but not started — call Start.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	ring := cluster.NewRing(cfg.Shards, cfg.VNodes)
	members := make([]*Member, cfg.Shards)
	conns := make([]cluster.Conn, cfg.Shards)
	for i := range members {
		members[i] = NewMember(i, cfg.Clock, cfg.Server, cfg.ReplayBuffer)
		conns[i] = members[i]
	}
	fe := cluster.NewFrontend(ring, conns, cfg.Frontend)
	f := &Fleet{
		Ring:       ring,
		Members:    members,
		Frontend:   fe,
		Controller: NewController(members, fe, nil, cfg.Controller),
	}
	return f
}

// Start launches the remediation controller; the returned stop function
// halts it.
func (f *Fleet) Start() (stop func()) { return f.Controller.Start() }

// Instrument wires the fleet into reg: the frontend's routing metrics,
// per-replica context-server metrics, the shared snapshot metrics, and
// the phi_fleet_* set. Replicas are labelled {shard=i, replica=a|b} by
// physical object — the labels are stable across promotions, so a
// promotion shows as traffic moving from one replica series to the
// other, which is exactly what happened. A nil registry is a no-op.
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	f.Frontend.SetMetrics(cluster.NewFrontendMetrics(reg, len(f.Members)))
	fm := NewMetrics(reg, len(f.Members))
	snap := cluster.NewSnapshotMetrics(reg)
	f.Controller.SetMetrics(fm)
	for i, m := range f.Members {
		m.metrics = fm
		// Primary() is replica "a" only at construction; the label
		// follows the object, not the role.
		a, b := m.Primary(), m.Backup()
		a.SetServerMetrics(phi.NewServerMetrics(reg,
			telemetry.Labels{"shard": strconv.Itoa(i), "replica": "a"}))
		a.SetSnapshotMetrics(snap)
		b.SetServerMetrics(phi.NewServerMetrics(reg,
			telemetry.Labels{"shard": strconv.Itoa(i), "replica": "b"}))
		b.SetSnapshotMetrics(snap)
	}
}

// Quality attaches one context-quality tracker across the fleet: the
// frontend records degraded lookups, each member's serving replica
// classifies lookups and pairs predictions, and each member's current
// primary is a freshness source for the stalest-paths list. Member
// wiring follows the role, not the object — a promotion moves the
// hooks to the new primary — so quality measurement survives failover.
// Call before the fleet starts serving.
func (f *Fleet) Quality(q *quality.Tracker) {
	f.Frontend.SetQuality(q)
	for _, m := range f.Members {
		m.SetQuality(q)
		m := m
		q.AddPathSource(func() []quality.PathFreshness { return m.Primary().Freshness() })
	}
}

// Health attaches the live health monitor: the frontend feeds it
// operations and breaker state (as in plain clusters), the fleet feeds
// it per-member snapshot ages, and the controller reads it for global
// context in /debug/fleet.
func (f *Fleet) Health(m *healthmon.Monitor) {
	f.Frontend.SetHealth(m)
	if m != nil {
		m.SetSnapshotAges(f.SnapshotAges)
	}
	f.Controller.monitor = m
}

// SetLogger attaches structured logging to the controller.
func (f *Fleet) SetLogger(l *tlog.Logger) { f.Controller.SetLogger(l) }

// SaveSnapshots writes every member's primary snapshot under dir (same
// file layout as a plain cluster, so fleet and non-fleet deployments
// share snapshot dirs).
func (f *Fleet) SaveSnapshots(dir string) error {
	for _, m := range f.Members {
		if err := m.SaveSnapshot(dir); err != nil {
			return err
		}
	}
	return nil
}

// LoadSnapshots rehydrates every member that has a snapshot file under
// dir (primary restored, backup reseeded), returning how many restored.
func (f *Fleet) LoadSnapshots(dir string) (restored int, err error) {
	for _, m := range f.Members {
		ok, err := m.LoadSnapshot(dir)
		if err != nil {
			return restored, err
		}
		if ok {
			restored++
		}
	}
	return restored, nil
}

// StartSnapshotters starts one periodic snapshotter goroutine per member.
// Unlike cluster's per-shard snapshotters this runs at the member level:
// the primary identity changes on promotion, so the ticker must resolve
// which replica to persist at each cycle, not bind one at start.
func (f *Fleet) StartSnapshotters(dir string, interval time.Duration, logf func(string, ...any)) (stop func()) {
	done := make(chan struct{})
	stops := make([]func(), 0, len(f.Members))
	for _, m := range f.Members {
		m := m
		ticker := time.NewTicker(interval)
		go func() {
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					if err := m.SaveSnapshot(dir); err != nil && logf != nil {
						logf("fleet: snapshot member %d: %v", m.Index, err)
					}
				}
			}
		}()
		stops = append(stops, ticker.Stop)
	}
	return func() {
		close(done)
		for _, s := range stops {
			s()
		}
		// Final snapshot on the way out, mirroring cluster's snapshotter.
		for _, m := range f.Members {
			if err := m.SaveSnapshot(dir); err != nil && logf != nil {
				logf("fleet: final snapshot member %d: %v", m.Index, err)
			}
		}
	}
}

// SnapshotAges returns, per member, the seconds since the last
// successful primary snapshot (-1 if never) — the fleet analogue of
// Cluster.SnapshotAges, feeding the same /debug/health field.
func (f *Fleet) SnapshotAges() []float64 {
	ages := make([]float64, len(f.Members))
	now := time.Now()
	for i, m := range f.Members {
		// Either replica may have taken the slot's newest snapshot (roles
		// swap on promotion); report the fresher of the two.
		at, ok := m.Primary().LastSnapshotAt()
		if bt, bok := m.Backup().LastSnapshotAt(); bok && (!ok || bt.After(at)) {
			at, ok = bt, true
		}
		if !ok {
			ages[i] = -1
			continue
		}
		ages[i] = now.Sub(at).Seconds()
	}
	return ages
}

// Stats sums lookup/report counters across member primaries.
func (f *Fleet) Stats() (lookups, reports uint64) {
	for _, m := range f.Members {
		l, r := m.Primary().Stats()
		lookups += l
		reports += r
	}
	return lookups, reports
}
