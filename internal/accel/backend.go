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
	// default). VectorizedEnabled reports the current state. The state lives
	// on each Accelerator; a sharded backend keeps none of its own: it fans
	// the setting out to its members, reads it back from one, and a member
	// added later copies it from the others. The switch exists for A/B
	// measurement and keeps the row engine reachable as the differential
	// oracle; both engines return identical results.
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

	// ApplyReplicated applies a replication batch to a shadow table, in order,
	// as one internal transaction: queries see the whole batch or none of it,
	// and an error aborts all of it. It returns the number of shadow rows the
	// batch inserted, updated or deleted.
	ApplyReplicated(table string, changes []ReplChange) (int, error)
}

var _ Backend = (*Accelerator)(nil)

// ReplOp is the kind of one replication change.
type ReplOp uint8

const (
	// ReplInsert mirrors a new DB2 row. It is skipped when a live shadow row
	// already mirrors SrcID, so a batch re-sent after a crash converges.
	ReplInsert ReplOp = iota
	// ReplUpdate replaces the shadow row of SrcID with Row (inserting it when
	// there is none).
	ReplUpdate
	// ReplDelete removes the shadow row of SrcID, if there is one.
	ReplDelete
	// ReplTruncate removes every shadow row.
	ReplTruncate
)

// ReplChange is one change of a replication batch. SrcID is the DB2 row id a
// shadow row mirrors; an inserted row with a negative SrcID mirrors none.
type ReplChange struct {
	Op    ReplOp
	SrcID int64
	Row   types.Row
}
