// Package federation is the glue between DB2 and the attached accelerators:
// it owns statement routing (query offload and DML delegation), propagation of
// the DB2 transaction context to the accelerator, the commit handshake across
// both systems, privilege enforcement before any delegation, and the
// data-movement accounting the evaluation reports.
package federation

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"idaax/internal/accel"
	"idaax/internal/catalog"
	"idaax/internal/core"
	"idaax/internal/db2"
	"idaax/internal/durable"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
	"idaax/internal/obs/health"
	"idaax/internal/replication"
	"idaax/internal/shard"
	"idaax/internal/types"
	"idaax/internal/vfs"
)

// AcceleratorSpec describes one accelerator of a multi-accelerator fleet.
type AcceleratorSpec struct {
	// Name is the accelerator's pairing name.
	Name string
	// Slices is the accelerator's scan parallelism (default: number of CPUs).
	Slices int
}

// Config configures a coordinator and its accelerator fleet.
type Config struct {
	// AcceleratorName is the name of the default accelerator (default "IDAA1").
	// Ignored when Accelerators is set (the first spec becomes the default).
	AcceleratorName string
	// Slices is the default accelerator's scan parallelism (default: number of
	// CPUs).
	Slices int
	// Accelerators, when non-empty, pairs a fleet of accelerators instead of
	// the single default one. With two or more entries a shard group named
	// ShardGroup is registered over the whole fleet, so tables created IN
	// ACCELERATOR <ShardGroup> are hash- or round-robin-partitioned across
	// every member.
	Accelerators []AcceleratorSpec
	// ShardGroup names the sharded virtual accelerator (default "SHARDS").
	ShardGroup string
	// LockTimeout bounds DB2 lock waits.
	LockTimeout time.Duration
	// QueryHistorySize caps the in-memory query history ring buffer
	// (default 256 statements; the slow-query log keeps the last 64).
	QueryHistorySize int
	// SlowQueryThreshold is the statement latency at or above which the full
	// trace is captured into the slow-query log (default 100ms; a negative
	// value disables the slow log).
	SlowQueryThreshold time.Duration
	// EventLogSize caps the structured event journal ring (default 1024
	// events; the oldest are overwritten).
	EventLogSize int
	// WatchdogInterval is the health watchdog's evaluation period (default
	// 1s). The watchdog is created armed but not started; the ops server (or
	// an explicit Watchdog.Start) runs it.
	WatchdogInterval time.Duration
	// CDCLagThreshold is the replication apply lag at which the watchdog
	// degrades the replication component and journals a cdc_lag_high event
	// (default 5s).
	CDCLagThreshold time.Duration

	// DataDir, when non-empty, makes the system durable: a write-ahead log
	// and checkpoint segments live under this directory, and OpenCoordinator
	// recovers from them. Empty (and FS nil) means purely in-memory.
	DataDir string
	// FS overrides the filesystem the durable store writes through (tests
	// inject a crash-simulating filesystem). When set, DataDir may be empty.
	FS vfs.FS
	// FsyncPolicy is "always" (default; fsync before a commit returns),
	// "grouped" (background fsync every GroupCommitInterval) or "never"
	// (fsync only on rotate/close).
	FsyncPolicy string
	// GroupCommitInterval is the background fsync period for the "grouped"
	// policy (default 2ms).
	GroupCommitInterval time.Duration
	// CheckpointWALBytes triggers an automatic checkpoint when the WAL grows
	// past this many bytes (default 64 MiB; negative disables the trigger).
	CheckpointWALBytes int64
	// RecoveryParallelism bounds how many tables recovery loads concurrently
	// (default: number of CPUs).
	RecoveryParallelism int

	// fleetConfigured records that the user listed more than one accelerator,
	// before duplicate names were folded away (set by withDefaults).
	fleetConfigured bool
}

func (c Config) withDefaults() Config {
	if len(c.Accelerators) > 0 {
		// Normalise the fleet: fold names like the catalog does, give unnamed
		// entries positional defaults, and drop duplicates (the first entry
		// with a name wins) so a sloppy config cannot register the same
		// accelerator as two shards. The pre-dedup length still decides
		// whether a shard group is registered (see NewCoordinator), so a
		// duplicated name cannot silently turn the fleet config into a
		// groupless single accelerator.
		fleet := len(c.Accelerators) > 1
		seen := make(map[string]bool, len(c.Accelerators))
		specs := make([]AcceleratorSpec, 0, len(c.Accelerators))
		for i, spec := range c.Accelerators {
			name := types.NormalizeName(spec.Name)
			if name == "" {
				name = fmt.Sprintf("IDAA%d", i+1)
			}
			if seen[name] {
				continue
			}
			seen[name] = true
			specs = append(specs, AcceleratorSpec{Name: name, Slices: spec.Slices})
		}
		c.Accelerators = specs
		c.AcceleratorName = specs[0].Name
		c.fleetConfigured = fleet
	}
	if c.AcceleratorName == "" {
		c.AcceleratorName = "IDAA1"
	}
	if c.ShardGroup == "" {
		c.ShardGroup = "SHARDS"
	}
	if c.QueryHistorySize <= 0 {
		c.QueryHistorySize = 256
	}
	if c.SlowQueryThreshold == 0 {
		c.SlowQueryThreshold = 100 * time.Millisecond
	}
	if c.EventLogSize <= 0 {
		c.EventLogSize = 1024
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = time.Second
	}
	if c.CDCLagThreshold <= 0 {
		c.CDCLagThreshold = 5 * time.Second
	}
	return c
}

// Metrics counts cross-system data movement and routing decisions. They are
// the quantities experiment E1/E3/E5 report.
type Metrics struct {
	RowsMovedToAccelerator int64 // rows shipped DB2 -> accelerator by statements
	RowsMovedToDB2         int64 // rows shipped accelerator -> DB2 by statements
	RowsReturnedToClient   int64
	StatementsOffloaded    int64
	StatementsLocal        int64
	ProcedureCalls         int64
	// ReplicationRowsCopied is the replicator's full-load plus incremental
	// row count; ResetMetrics leaves it alone.
	ReplicationRowsCopied int64
}

// Coordinator wires the DB2 engine, the accelerators, replication, the AOT
// manager and the procedure framework together.
type Coordinator struct {
	cfg Config

	DB2 *db2.Engine
	cat *catalog.Catalog

	// accelMu guards accels: the fleet is elastic (ALTER ACCELERATOR ... ADD
	// MEMBER pairs accelerators at runtime), so lookups and registrations can
	// race.
	accelMu sync.RWMutex
	accels  map[string]accel.Backend

	AOTs  *core.AOTManager
	Procs *core.Framework
	Repl  *replication.Replicator

	// Obs is the metrics registry: statement latency histograms and error
	// counters land here, and the long-standing movement/routing/accelerator/
	// rebalance/replication counters are mirrored in as callback gauges so one
	// snapshot (or the Prometheus-style text endpoint) covers everything.
	Obs *obs.Registry
	// History is the query history ring buffer plus the slow-query log
	// (statements at or above the threshold, with their full trace).
	History *obs.History
	// Events is the fleet's structured event journal: membership changes,
	// rebalance lifecycle, CDC lag crossings, slow queries, scatter and scan
	// failures, transaction aborts and watchdog verdict flips all land here
	// (SQL surface: CALL SYSPROC.ACCEL_EVENTS; HTTP surface: /events).
	Events *eventlog.Log
	// Health aggregates per-component health checks into the fleet verdict
	// served by the ops server's /healthz and /readyz endpoints.
	Health *health.Tracker
	// Watchdog evaluates temporal degradation rules (rebalance no-progress,
	// CDC lag, slow-query spikes, scan-error streaks) against Health. It is
	// created armed but not started; the ops server starts it.
	Watchdog *health.Watchdog

	metrics Metrics

	// store is the durability engine (nil for an in-memory coordinator). It
	// is set once during OpenCoordinator, before any traffic.
	store    *durable.Store
	recovery RecoveryStats
	// recentMu guards recentCommits, the bounded ring of recently committed
	// DB2 transaction ids each checkpoint carries for in-doubt resolution.
	recentMu      sync.Mutex
	recentCommits []int64
	closeOnce     sync.Once

	// Failpoint, when non-nil, is invoked at named stages of the commit
	// handshake ("after-prepare", "after-db2-commit") and lets tests inject
	// coordinator failures between the two systems.
	Failpoint func(stage string) error
}

// NewCoordinator builds a complete system: catalog, DB2 engine, one paired
// accelerator, replication, AOT manager, procedure framework and the built-in
// SYSPROC.ACCEL_* procedures.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	cat := catalog.New()
	engine := db2.New(cat)
	if cfg.LockTimeout > 0 {
		engine.Locks.Timeout = cfg.LockTimeout
	}
	c := &Coordinator{
		cfg:    cfg,
		DB2:    engine,
		cat:    cat,
		accels: make(map[string]accel.Backend),
	}
	c.Obs = obs.NewRegistry()
	c.Events = eventlog.New(cfg.EventLogSize)
	c.Health = health.NewTracker()
	c.History = obs.NewHistory(cfg.QueryHistorySize, 64)
	c.History.SetSlowThreshold(cfg.SlowQueryThreshold)
	c.AOTs = core.NewAOTManager(cat, c)
	c.Procs = core.NewFramework(cat)
	c.Repl = replication.New(engine, c)
	if len(cfg.Accelerators) == 0 {
		c.AddAccelerator(cfg.AcceleratorName, cfg.Slices)
	} else {
		names := make([]string, len(cfg.Accelerators))
		for i, spec := range cfg.Accelerators {
			c.AddAccelerator(spec.Name, spec.Slices)
			names[i] = spec.Name
		}
		// The fleet is also addressable as one sharded backend — unless a
		// member explicitly claimed the group's name, in which case the name
		// keeps referring to that accelerator. The group is registered
		// whenever more than one accelerator was configured, even if
		// duplicate names folded the fleet down to one member, so
		// IN ACCELERATOR <group> keeps working instead of failing with a
		// misleading not-paired error.
		if _, taken := c.accels[types.NormalizeName(cfg.ShardGroup)]; cfg.fleetConfigured && !taken {
			if _, err := c.AddShardGroup(cfg.ShardGroup, names...); err != nil {
				panic(err) // unreachable: members exist and the group name is free
			}
		}
	}
	c.registerBuiltinProcedures()
	c.registerObsGauges()
	c.registerOps()
	return c
}

// Close stops the coordinator's background machinery (the health watchdog)
// and, for a durable coordinator, flushes a final checkpoint and closes the
// WAL so a clean shutdown recovers instantly and loses nothing. An active
// rebalance worker drains on its own.
func (c *Coordinator) Close() error {
	c.Watchdog.Stop()
	var err error
	c.closeOnce.Do(func() { err = c.closeDurability() })
	return err
}

// Catalog returns the shared DB2 catalog.
func (c *Coordinator) Catalog() *catalog.Catalog { return c.cat }

// AddAccelerator pairs an additional accelerator with the DB2 subsystem. It
// is idempotent for an already-paired accelerator of the same name and
// returns nil (without touching the registration) when the name belongs to a
// shard group.
func (c *Coordinator) AddAccelerator(name string, slices int) *accel.Accelerator {
	name = types.NormalizeName(name)
	c.accelMu.Lock()
	defer c.accelMu.Unlock()
	if existing, ok := c.accels[name]; ok {
		a, _ := existing.(*accel.Accelerator)
		return a // nil when the name is a shard group; never clobber it
	}
	a := accel.New(name, slices)
	if c.store != nil {
		a.SetJournal(&memberJournal{c: c, scope: name})
	}
	c.accels[name] = a
	c.cat.AddAccelerator(name)
	return a
}

// AddShardGroup registers a sharded virtual accelerator spanning the named,
// already-paired member accelerators. Tables created IN ACCELERATOR <name>
// are partitioned across every member (DISTRIBUTE BY HASH for key placement,
// round robin otherwise), queries scatter-gather over the fleet, and
// replication fans captured changes out to the owning shard.
func (c *Coordinator) AddShardGroup(name string, memberNames ...string) (*shard.Router, error) {
	name = types.NormalizeName(name)
	c.accelMu.Lock()
	defer c.accelMu.Unlock()
	if _, ok := c.accels[name]; ok {
		return nil, fmt.Errorf("federation: %s is already paired", name)
	}
	members := make([]*accel.Accelerator, len(memberNames))
	seen := make(map[string]bool, len(memberNames))
	for i, mn := range memberNames {
		mname := types.NormalizeName(mn)
		if seen[mname] {
			return nil, fmt.Errorf("federation: accelerator %s listed twice in shard group %s", mname, name)
		}
		seen[mname] = true
		b, ok := c.accels[mname]
		if !ok {
			return nil, fmt.Errorf("federation: shard group member %s is not paired", mname)
		}
		a, ok := b.(*accel.Accelerator)
		if !ok {
			return nil, fmt.Errorf("federation: shard group member %s is itself a shard group", mname)
		}
		members[i] = a
	}
	router, err := shard.NewRouter(name, members)
	if err != nil {
		return nil, err
	}
	router.SetEventLog(c.Events)
	if c.store != nil {
		router.SetJournal(multiJournal{c})
	}
	c.accels[name] = router
	c.cat.AddAccelerator(name)
	return router, nil
}

// AddShardMember grows a shard group at runtime: the named accelerator is
// paired first if unknown (with the given scan parallelism), joins the group,
// and a background rebalance starts migrating the rows it now owns. Queries
// and replication keep running throughout; callers that need the fleet to
// have converged wait with WaitRebalance on the group's router (or
// System.WaitForRebalance).
func (c *Coordinator) AddShardMember(group, member string, slices int) error {
	router, err := c.ShardGroup(group)
	if err != nil {
		return err
	}
	member = types.NormalizeName(member)
	c.accelMu.RLock()
	existing, paired := c.accels[member]
	c.accelMu.RUnlock()
	var a *accel.Accelerator
	if paired {
		var ok bool
		a, ok = existing.(*accel.Accelerator)
		if !ok {
			return fmt.Errorf("federation: %s is a shard group, not an accelerator", member)
		}
	} else {
		a = c.AddAccelerator(member, slices)
		if a == nil {
			return fmt.Errorf("federation: cannot pair %s", member)
		}
	}
	return router.AddMember(a)
}

// RemoveShardMember shrinks a shard group at runtime: the member's rows are
// drained onto the remaining shards and the member is detached from the
// group (it stays paired as a standalone accelerator). The call blocks until
// the drain completes. Shrinking a two-member group is refused — a group
// needs at least two members to shard over.
func (c *Coordinator) RemoveShardMember(group, member string) error {
	router, err := c.ShardGroup(group)
	if err != nil {
		return err
	}
	return router.RemoveMember(member)
}

// Accelerator implements core.AcceleratorProvider and
// replication.AcceleratorProvider. The returned backend is either a single
// accelerator or a shard router; callers cannot (and need not) distinguish.
func (c *Coordinator) Accelerator(name string) (accel.Backend, error) {
	if name == "" {
		name = c.cfg.AcceleratorName
	}
	c.accelMu.RLock()
	a, ok := c.accels[types.NormalizeName(name)]
	c.accelMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("federation: accelerator %s is not paired", types.NormalizeName(name))
	}
	return a, nil
}

// ShardGroup returns the shard router registered under name.
func (c *Coordinator) ShardGroup(name string) (*shard.Router, error) {
	b, err := c.Accelerator(name)
	if err != nil {
		return nil, err
	}
	router, ok := b.(*shard.Router)
	if !ok {
		return nil, fmt.Errorf("federation: %s is a single accelerator, not a shard group", b.Name())
	}
	return router, nil
}

// AnalyzeTable rebuilds a table's planner statistics on its accelerator
// (every shard of a sharded table) and returns its catalog entry and the
// rows analyzed. It is the one body of ANALYZE TABLE, SYSPROC.ACCEL_ANALYZE
// and System.AnalyzeTable; the SQL surfaces check SELECT first.
func (c *Coordinator) AnalyzeTable(table string) (*catalog.Table, int, error) {
	meta, err := c.cat.Table(table)
	if err != nil {
		return nil, 0, err
	}
	if meta.Kind == catalog.KindRegular {
		return nil, 0, fmt.Errorf("federation: cannot analyze %s: the table has no accelerator copy (planner statistics live on the accelerators)", meta.Name)
	}
	a, err := c.Accelerator(meta.Accelerator)
	if err != nil {
		return nil, 0, err
	}
	n, err := a.Analyze(meta.Name)
	return meta, n, err
}

// DefaultAccelerator implements core.AcceleratorProvider.
func (c *Coordinator) DefaultAccelerator() string { return types.NormalizeName(c.cfg.AcceleratorName) }

// Accelerators returns the paired accelerator names.
func (c *Coordinator) Accelerators() []string { return c.cat.Accelerators() }

// Metrics returns a snapshot of the movement/routing counters.
func (c *Coordinator) Metrics() Metrics {
	r := c.Repl.Stats()
	return Metrics{
		RowsMovedToAccelerator: atomic.LoadInt64(&c.metrics.RowsMovedToAccelerator),
		RowsMovedToDB2:         atomic.LoadInt64(&c.metrics.RowsMovedToDB2),
		RowsReturnedToClient:   atomic.LoadInt64(&c.metrics.RowsReturnedToClient),
		StatementsOffloaded:    atomic.LoadInt64(&c.metrics.StatementsOffloaded),
		StatementsLocal:        atomic.LoadInt64(&c.metrics.StatementsLocal),
		ProcedureCalls:         atomic.LoadInt64(&c.metrics.ProcedureCalls),
		ReplicationRowsCopied:  r.RowsFullLoaded + r.RowsIncremental,
	}
}

// ResetMetrics zeroes the movement/routing counters (benchmark harness use).
func (c *Coordinator) ResetMetrics() {
	atomic.StoreInt64(&c.metrics.RowsMovedToAccelerator, 0)
	atomic.StoreInt64(&c.metrics.RowsMovedToDB2, 0)
	atomic.StoreInt64(&c.metrics.RowsReturnedToClient, 0)
	atomic.StoreInt64(&c.metrics.StatementsOffloaded, 0)
	atomic.StoreInt64(&c.metrics.StatementsLocal, 0)
	atomic.StoreInt64(&c.metrics.ProcedureCalls, 0)
}

func (c *Coordinator) addMoved(toAccel bool, n int) {
	if n <= 0 {
		return
	}
	if toAccel {
		atomic.AddInt64(&c.metrics.RowsMovedToAccelerator, int64(n))
	} else {
		atomic.AddInt64(&c.metrics.RowsMovedToDB2, int64(n))
	}
}

func (c *Coordinator) noteRouting(offloaded bool) {
	if offloaded {
		atomic.AddInt64(&c.metrics.StatementsOffloaded, 1)
	} else {
		atomic.AddInt64(&c.metrics.StatementsLocal, 1)
	}
}

// Session opens a new session for the given authorization id. Sessions are not
// safe for concurrent use; open one per goroutine (like one DB2 thread per
// connection).
func (c *Coordinator) Session(user string) *Session {
	return &Session{
		coord:        c,
		user:         types.NormalizeName(user),
		mode:         AccelerationEnable,
		participants: make(map[string]accel.Backend),
	}
}

func (c *Coordinator) failpoint(stage string) error {
	if c.Failpoint == nil {
		return nil
	}
	return c.Failpoint(stage)
}

// BulkInsert writes already-materialised rows into a table on behalf of a user
// under an auto-commit transaction, with the usual privilege checks and AOT
// delegation. The loader and the benchmark harness use it as their row sink;
// rows targeting an accelerator-only table go straight to the accelerator
// (the loader's "bypass DB2" path), rows targeting DB2 tables take the normal
// insert path including change capture.
func (c *Coordinator) BulkInsert(user, table string, rows []types.Row) (int, error) {
	s := c.Session(user)
	tx, done := s.stmtTxn()
	n, err := s.insertMaterialized(tx, table, rows)
	if ferr := done(err); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}
