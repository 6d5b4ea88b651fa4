package idaax

import (
	"fmt"
	"sync"

	"idaax/internal/accel"
	"idaax/internal/analytics"
	"idaax/internal/catalog"
	"idaax/internal/federation"
	"idaax/internal/shard"
	"idaax/internal/types"
)

// System is a complete instance of the extended accelerator architecture: the
// DB2-style host engine, one (or more) attached accelerators, the federation
// layer, replication, the AOT manager and the analytics procedure framework.
type System struct {
	cfg   Config
	coord *federation.Coordinator

	// opsMu guards the server lists below (Close shuts them down).
	opsMu sync.Mutex
	// opsSrvs are the operations HTTP servers started by ServeOps.
	opsSrvs []*OpsServer
	// wireSrvs are the wire-protocol servers started by ServeWire.
	wireSrvs []*WireServer
}

// federationConfig maps the public config onto the federation layer's.
func (cfg Config) federationConfig() federation.Config {
	specs := make([]federation.AcceleratorSpec, len(cfg.Accelerators))
	for i, a := range cfg.Accelerators {
		specs[i] = federation.AcceleratorSpec{Name: a.Name, Slices: a.Slices}
	}
	return federation.Config{
		AcceleratorName: cfg.AcceleratorName,
		Slices:          cfg.AcceleratorSlices,
		Accelerators:    specs,
		ShardGroup:      cfg.ShardGroupName,
		LockTimeout:     cfg.LockTimeout,

		QueryHistorySize:   cfg.QueryHistorySize,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		EventLogSize:       cfg.EventLogSize,
		WatchdogInterval:   cfg.WatchdogInterval,
		CDCLagThreshold:    cfg.CDCLagThreshold,

		DataDir:             cfg.DataDir,
		FS:                  cfg.fs,
		FsyncPolicy:         cfg.FsyncPolicy,
		GroupCommitInterval: cfg.GroupCommitInterval,
		CheckpointWALBytes:  cfg.CheckpointWALBytes,
		RecoveryParallelism: cfg.RecoveryParallelism,
	}
}

// New creates a system with the given configuration. With DataDir set the
// system is durable and New recovers the previous state, panicking if the
// store cannot be opened — use OpenDurable to handle that error instead.
func New(cfg Config) *System {
	sys, err := OpenDurable(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// OpenDurable creates a system like New but returns store open/recovery
// errors instead of panicking. It is the constructor durable deployments use:
// with cfg.DataDir set, the previous committed state — DB2 heap tables,
// accelerator shadow and accelerator-only tables, catalog, in-flight CDC —
// is recovered from the checkpoint plus WAL replay before the call returns.
func OpenDurable(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	coord, err := federation.OpenCoordinator(cfg.federationConfig())
	if err != nil {
		return nil, err
	}
	if !cfg.DisableAnalytics {
		analytics.RegisterAll(coord.Procs, cfg.AnalyticsPublic)
	}
	return &System{cfg: cfg, coord: coord}, nil
}

// Open creates a system with default configuration and publicly callable
// analytics procedures; it is the one-liner used by the examples.
func Open() *System {
	return New(Config{AnalyticsPublic: true})
}

// Checkpoint forces a checkpoint on a durable system: the WAL is rotated,
// every table is written as segment files and the manifest is atomically
// replaced, after which recovery starts from the new image. On an in-memory
// system it is a no-op. Checkpoints also happen automatically when the WAL
// grows past Config.CheckpointWALBytes, and on Close.
func (s *System) Checkpoint() error { return s.coord.Checkpoint() }

// Durable reports whether the system runs on a durable store.
func (s *System) Durable() bool { return s.coord.Durable() }

// Close releases the system in dependency order: first every wire-protocol
// server drains — in-flight statements finish and their commits reach the
// WAL, new requests get 503 — then the ops HTTP servers and the health
// watchdog stop, and only then does a durable system flush its final
// checkpoint and close the WAL. Draining before the checkpoint is what makes
// a SIGTERM mid-query safe: a commit acknowledged over the wire is always
// part of the durable image a clean shutdown leaves behind. Close is
// idempotent.
func (s *System) Close() error {
	s.opsMu.Lock()
	wireSrvs := s.wireSrvs
	s.wireSrvs = nil
	opsSrvs := s.opsSrvs
	s.opsSrvs = nil
	s.opsMu.Unlock()
	var firstErr error
	for _, w := range wireSrvs {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, o := range opsSrvs {
		if err := o.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.coord.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Coordinator exposes the underlying federation coordinator for advanced use
// (benchmark harness, custom tooling). Most applications only need Session.
func (s *System) Coordinator() *federation.Coordinator { return s.coord }

// Session opens a session for the given authorization id.
func (s *System) Session(user string) *Session {
	return &Session{sys: s, fed: s.coord.Session(user)}
}

// AdminSession opens a session as SYSADM, the one authorization id with
// implicit authority on every object.
func (s *System) AdminSession() *Session { return s.Session(catalog.AdminUser) }

// AddAccelerator pairs an additional accelerator.
func (s *System) AddAccelerator(name string, slices int) {
	s.coord.AddAccelerator(name, slices)
}

// AddShardGroup registers a sharded virtual accelerator spanning the named,
// already-paired accelerators. Tables created IN ACCELERATOR <name> are
// partitioned across every member.
func (s *System) AddShardGroup(name string, members ...string) error {
	_, err := s.coord.AddShardGroup(name, members...)
	return err
}

// Metrics summarises cross-system data movement and routing since start (or
// the last ResetMetrics call; ReplicationRowsCopied is never reset).
type Metrics = federation.Metrics

// Metrics returns the current movement/routing counters.
func (s *System) Metrics() Metrics { return s.coord.Metrics() }

// ResetMetrics zeroes the statement-level movement counters.
func (s *System) ResetMetrics() { s.coord.ResetMetrics() }

// AcceleratorStats describes one accelerator's activity; a shard group
// reports the sum over its members.
type AcceleratorStats = accel.Stats

// AcceleratorStats returns activity counters for the named accelerator (empty
// name = default accelerator).
func (s *System) AcceleratorStats(name string) (AcceleratorStats, error) {
	a, err := s.coord.Accelerator(name)
	if err != nil {
		return AcceleratorStats{}, err
	}
	return a.Stats(), nil
}

// ShardGroupStats describes a sharded backend: the fleet-wide aggregate,
// every shard's own counters (in shard order), and the router-level routing
// decisions.
type ShardGroupStats = shard.GroupStats

// ShardGroupStats returns per-shard and aggregate activity counters for the
// named shard group (empty name = the configured default group).
func (s *System) ShardGroupStats(name string) (ShardGroupStats, error) {
	if name == "" {
		name = s.cfg.ShardGroupName
	}
	router, err := s.coord.ShardGroup(name)
	if err != nil {
		return ShardGroupStats{}, err
	}
	return router.GroupStats(), nil
}

// SetVectorizedExecution enables or disables the vectorized batch execution
// engine on every paired backend — single accelerators and shard groups alike
// (shard groups fan the setting to their members, including members added
// later). Enabled by default; the row-at-a-time engine it falls back to is
// the differential oracle the vectorized suites compare against, and bench
// E13 uses it to measure the batch engine. Both engines return identical
// results.
func (s *System) SetVectorizedExecution(enabled bool) {
	for _, name := range s.coord.Accelerators() {
		if a, err := s.coord.Accelerator(name); err == nil {
			a.SetVectorizedExecution(enabled)
		}
	}
}

// ColumnStatistics describes one column's planner statistics.
type ColumnStatistics struct {
	Name         string
	Type         string
	NonNull      int64
	Nulls        int64
	DistinctEst  float64
	Min          string
	Max          string
	HasHistogram bool
}

// TableStatistics describes a table's planner statistics (merged across
// shards for sharded tables). Counters are maintained incrementally on every
// insert/delete and rebuilt exactly by AnalyzeTable / ANALYZE TABLE.
type TableStatistics struct {
	Rows     int64
	Analyzed bool
	Columns  []ColumnStatistics
}

// TableStatistics returns the planner statistics of an accelerated table.
func (s *System) TableStatistics(table string) (TableStatistics, error) {
	meta, err := s.coord.Catalog().Table(table)
	if err != nil {
		return TableStatistics{}, err
	}
	a, err := s.coord.Accelerator(meta.Accelerator)
	if err != nil {
		return TableStatistics{}, err
	}
	snap, err := a.TableStatistics(meta.Name)
	if err != nil {
		return TableStatistics{}, err
	}
	out := TableStatistics{Rows: snap.Rows, Analyzed: snap.Analyzed}
	for _, c := range snap.Cols {
		out.Columns = append(out.Columns, ColumnStatistics{
			Name:         c.Name,
			Type:         c.Kind.String(),
			NonNull:      c.NonNull,
			Nulls:        c.Nulls,
			DistinctEst:  c.NDV,
			Min:          c.Min.String(),
			Max:          c.Max.String(),
			HasHistogram: c.Hist != nil,
		})
	}
	return out, nil
}

// AnalyzeTable rebuilds a table's planner statistics exactly (the API twin of
// ANALYZE TABLE / SYSPROC.ACCEL_ANALYZE) and returns the rows analyzed.
func (s *System) AnalyzeTable(table string) (int, error) {
	_, n, err := s.coord.AnalyzeTable(table)
	return n, err
}

// TableInfo describes a table's acceleration state.
type TableInfo struct {
	Name            string
	Kind            string
	Accelerator     string
	DB2Rows         int
	AcceleratorRows int
	PendingChanges  int
}

// TableInfo returns the acceleration state of a table.
func (s *System) TableInfo(name string) (TableInfo, error) {
	meta, err := s.coord.Catalog().Table(name)
	if err != nil {
		return TableInfo{}, err
	}
	info := TableInfo{
		Name:        meta.Name,
		Kind:        meta.Kind.String(),
		Accelerator: meta.Accelerator,
		DB2Rows:     -1, AcceleratorRows: -1,
	}
	if st, err := s.coord.DB2.Storage(meta.Name); err == nil {
		info.DB2Rows = st.RowCount()
	}
	if meta.Accelerator != "" {
		if a, err := s.coord.Accelerator(meta.Accelerator); err == nil {
			if n, err := a.RowCount(0, meta.Name); err == nil {
				info.AcceleratorRows = n
			}
		}
	}
	info.PendingChanges = s.coord.Repl.PendingChanges(meta.Name)
	return info, nil
}

// Tables lists all tables in the catalog.
func (s *System) Tables() []TableInfo {
	var out []TableInfo
	for _, meta := range s.coord.Catalog().Tables() {
		if info, err := s.TableInfo(meta.Name); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// normalize is a tiny helper shared by the facade files.
func normalize(name string) string { return types.NormalizeName(name) }

var _ = fmt.Sprintf
