package accel

import (
	"idaax/internal/obs"
	"idaax/internal/planner"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/stats"
	"idaax/internal/types"
)

// Backend is the surface the rest of the system (federation routing, the AOT
// manager, replication, the procedure framework) programs against when it
// talks to "an accelerator". It is implemented by a single *Accelerator and by
// shard.Router, which spreads a table over a fleet of accelerators — callers
// cannot tell the difference, which is what makes the accelerator set a clean
// boundary to scale behind.
type Backend interface {
	// Name returns the backend's pairing name (an accelerator name or the name
	// of a shard group).
	Name() string
	// Slices returns the total scan parallelism of the backend.
	Slices() int
	// Stats returns activity counters, aggregated over all shards for a
	// sharded backend.
	Stats() Stats
	// Resources reports the backend's storage footprint (per-table/per-column
	// bytes, block and zone-map counts) for the ops plane's resource
	// accounting; a sharded backend aggregates over its members (per-member
	// detail stays on shard.Router.FleetResources).
	Resources() obs.StoreResources

	// DDL.
	CreateTable(name string, schema types.Schema, distKey string) error
	DropTable(name string) error
	HasTable(name string) bool
	TableNames() []string

	// Transaction coordination for DB2 transactions (the commit handshake).
	Prepare(txnID int64) error
	CommitTxn(txnID int64)
	AbortTxn(txnID int64)

	// Statistics: ANALYZE TABLE rebuilds exact statistics (returning the rows
	// analyzed), TableStatistics snapshots the current ones (merged across
	// shards for a sharded backend), and Explain plans a SELECT without
	// running it (nil plan for statements with nothing to plan).
	Analyze(table string) (int, error)
	TableStatistics(table string) (stats.Snapshot, error)
	Explain(sel *sqlparse.SelectStmt) (*planner.Plan, error)

	// SetVectorizedExecution toggles the vectorized batch engine (on by
	// default; a sharded backend fans the setting to every member, including
	// ones added later). VectorizedEnabled reports the current state. The
	// switch exists for A/B measurement and keeps the row engine reachable as
	// the differential oracle; both engines return identical results.
	SetVectorizedExecution(enabled bool)
	VectorizedEnabled() bool

	// Query and DML under a DB2 transaction id. QueryTraced attaches the
	// backend's execution tree (plan, per-shard scans, gather/merge) as
	// children of sp, which crosses this seam so a statement's trace nests
	// identically whether the backend is one accelerator or a sharded fleet;
	// a nil sp turns tracing off and returns identical results.
	QueryTraced(txnID int64, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error)
	Insert(txnID int64, table string, rows []types.Row) (int, error)
	Update(txnID int64, table string, assignments []sqlparse.Assignment, where sqlparse.Expr) (int, error)
	Delete(txnID int64, table string, where sqlparse.Expr) (int, error)
	Truncate(txnID int64, table string) (int, error)
	RowCount(txnID int64, table string) (int, error)

	// Replication applies (internal, immediately committed transactions).
	InsertReplicated(table string, rows []types.Row, srcIDs []int64) (int, error)
	ApplyReplicatedDelete(table string, srcID int64) (bool, error)
	ApplyReplicatedUpdate(table string, srcID int64, row types.Row) error
	TruncateReplicated(table string) (int, error)
}

var _ Backend = (*Accelerator)(nil)
