package accel

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"idaax/internal/colstore"
	"idaax/internal/expr"
	"idaax/internal/obs"
	"idaax/internal/sqlparse"
	"idaax/internal/stats"
	"idaax/internal/types"
)

// Accelerator is one attached accelerator instance ("IDAA server" plus its
// Netezza backend in the paper's architecture).
type Accelerator struct {
	name   string
	slices int

	mu      sync.RWMutex
	tables  map[string]*colstore.Table
	journal MemberJournal

	Registry *Registry

	// internalTxn issues transaction ids for work that originates on the
	// accelerator itself (replication applies, loader ingestion) rather than
	// from a DB2 transaction. They are negative so they can never collide with
	// DB2 transaction ids.
	internalTxn int64

	// deleters records transactions that set delete markers on this
	// accelerator, so AbortTxn pays the physical undo sweep only for
	// transactions that actually deleted something.
	deleteMu sync.Mutex
	deleters map[int64]bool

	// vectorizedOff disables the vectorized batch engine (A/B switch; the
	// engine is on by default). Atomic, like the router's planning switch.
	vectorizedOff int64

	queriesRun        int64
	queryErrors       int64
	rowsScanned       int64
	blocksPruned      int64
	rowsIngested      int64
	rowsReturned      int64
	dmlStatements     int64
	vectorizedQueries int64
	vectorizedJoins   int64
	vexecFallbacks    int64
}

// Stats is a snapshot of accelerator activity counters. A sharded backend
// reports the sum of its members' snapshots (see Add) under the group name.
type Stats struct {
	Name       string
	QueriesRun int64
	// QueryErrors counts statements that failed on this accelerator (scan or
	// execution errors); the ops watchdog's error-streak rule watches its
	// growth.
	QueryErrors   int64
	RowsScanned   int64
	BlocksPruned  int64
	RowsIngested  int64
	RowsReturned  int64
	DMLStatements int64
	// VectorizedQueries counts statements the vectorized batch engine executed
	// end to end (scan+filter, with or without vectorized aggregation).
	VectorizedQueries int64
	// VectorizedJoins counts the subset of VectorizedQueries that ran a batch
	// hash join (two-table statements executed build/probe over column
	// batches).
	VectorizedJoins int64
	// VexecFallbacks counts in-scope statements (single or two plain tables,
	// engine on) the vectorized engine declined, falling back to the row
	// path — the numerator of the fallback-rate metric.
	VexecFallbacks int64
	Tables         int
	Slices         int
}

// Add folds o's counters into s. Tables is left alone: a sharded table lives
// on every member, so the group's table count is not the members' sum.
func (s *Stats) Add(o Stats) {
	s.QueriesRun += o.QueriesRun
	s.QueryErrors += o.QueryErrors
	s.RowsScanned += o.RowsScanned
	s.BlocksPruned += o.BlocksPruned
	s.RowsIngested += o.RowsIngested
	s.RowsReturned += o.RowsReturned
	s.DMLStatements += o.DMLStatements
	s.VectorizedQueries += o.VectorizedQueries
	s.VectorizedJoins += o.VectorizedJoins
	s.VexecFallbacks += o.VexecFallbacks
	s.Slices += o.Slices
}

// New creates an accelerator with the given number of worker slices
// (the software stand-in for S-blades / snippet processors).
func New(name string, slices int) *Accelerator {
	if slices < 1 {
		slices = runtime.NumCPU()
	}
	return &Accelerator{
		name:     types.NormalizeName(name),
		slices:   slices,
		tables:   make(map[string]*colstore.Table),
		Registry: NewRegistry(),
		deleters: make(map[int64]bool),
	}
}

// Name returns the accelerator's name.
func (a *Accelerator) Name() string { return a.name }

// Slices returns the configured degree of scan parallelism.
func (a *Accelerator) Slices() int { return a.slices }

// Stats returns activity counters.
func (a *Accelerator) Stats() Stats {
	a.mu.RLock()
	tables := len(a.tables)
	a.mu.RUnlock()
	return Stats{
		Name:              a.name,
		QueriesRun:        atomic.LoadInt64(&a.queriesRun),
		QueryErrors:       atomic.LoadInt64(&a.queryErrors),
		RowsScanned:       atomic.LoadInt64(&a.rowsScanned),
		BlocksPruned:      atomic.LoadInt64(&a.blocksPruned),
		RowsIngested:      atomic.LoadInt64(&a.rowsIngested),
		RowsReturned:      atomic.LoadInt64(&a.rowsReturned),
		DMLStatements:     atomic.LoadInt64(&a.dmlStatements),
		VectorizedQueries: atomic.LoadInt64(&a.vectorizedQueries),
		VectorizedJoins:   atomic.LoadInt64(&a.vectorizedJoins),
		VexecFallbacks:    atomic.LoadInt64(&a.vexecFallbacks),
		Tables:            tables,
		Slices:            a.slices,
	}
}

// SetVectorizedExecution enables or disables the vectorized batch engine
// (enabled by default). With it off, every statement takes the row-at-a-time
// path: ParallelScan materialises rows and the relational operators tree-walk
// them — the A/B baseline bench E13 measures against.
func (a *Accelerator) SetVectorizedExecution(enabled bool) {
	v := int64(1)
	if enabled {
		v = 0
	}
	atomic.StoreInt64(&a.vectorizedOff, v)
}

// VectorizedEnabled reports whether the vectorized batch engine is active.
func (a *Accelerator) VectorizedEnabled() bool { return atomic.LoadInt64(&a.vectorizedOff) == 0 }

// NoteQuery adds one executed statement to the QueriesRun counter. The shard
// router calls it for every member a scatter-gather statement gathers base
// rows from (via ScanVisible, which bypasses Query), so QueriesRun means
// "statements that did work on this shard" under every routing plan.
func (a *Accelerator) NoteQuery() { atomic.AddInt64(&a.queriesRun, 1) }

// NextInternalTxn returns a fresh internal (negative) transaction id and
// registers it as active. Replication and the loader use it for their applies.
func (a *Accelerator) NextInternalTxn() int64 {
	id := atomic.AddInt64(&a.internalTxn, 1)
	txn := -id
	a.Registry.Ensure(txn)
	return txn
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// CreateTable creates a columnar table on the accelerator. It backs both
// accelerator-only tables and the shadow copies of accelerated DB2 tables.
func (a *Accelerator) CreateTable(name string, schema types.Schema, distKey string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	name = types.NormalizeName(name)
	if _, ok := a.tables[name]; ok {
		return fmt.Errorf("accel: table %s already exists on accelerator %s", name, a.name)
	}
	if key := types.NormalizeName(distKey); key != "" && schema.IndexOf(key) < 0 {
		return fmt.Errorf("accel: distribution key %s is not a column of %s", key, name)
	}
	t := colstore.NewTable(name, schema, distKey)
	if a.journal != nil {
		a.journal.LogCreateTable(name, t.Schema(), t.DistKey())
		t.SetJournal(a.journal)
	}
	a.tables[name] = t
	return nil
}

// DropTable removes a table from the accelerator.
func (a *Accelerator) DropTable(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	name = types.NormalizeName(name)
	if _, ok := a.tables[name]; !ok {
		return fmt.Errorf("accel: table %s does not exist on accelerator %s", name, a.name)
	}
	delete(a.tables, name)
	if a.journal != nil {
		a.journal.LogDropTable(name)
	}
	return nil
}

// HasTable reports whether the table exists on this accelerator.
func (a *Accelerator) HasTable(name string) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.tables[types.NormalizeName(name)]
	return ok
}

// Table returns the columnar table.
func (a *Accelerator) Table(name string) (*colstore.Table, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	t, ok := a.tables[types.NormalizeName(name)]
	if !ok {
		return nil, fmt.Errorf("accel: table %s does not exist on accelerator %s", types.NormalizeName(name), a.name)
	}
	return t, nil
}

// TableNames returns all table names on the accelerator, sorted.
func (a *Accelerator) TableNames() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.tables))
	for name := range a.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resources reports the accelerator's storage footprint in per-table,
// per-column detail for the ops plane's resource accounting.
func (a *Accelerator) Resources() obs.StoreResources {
	a.mu.RLock()
	tables := make([]*colstore.Table, 0, len(a.tables))
	for _, t := range a.tables {
		tables = append(tables, t)
	}
	a.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name() < tables[j].Name() })
	res := obs.StoreResources{Member: a.name}
	for _, t := range tables {
		res.AddTable(t.Resources())
	}
	return res
}

// ---------------------------------------------------------------------------
// Statistics (the planner's input)
// ---------------------------------------------------------------------------

// Analyze rebuilds the planner statistics of a table exactly from the
// committed rows, including equi-depth histograms, and returns the number of
// rows analyzed. It implements ANALYZE TABLE / SYSPROC.ACCEL_ANALYZE for a
// single accelerator.
func (a *Accelerator) Analyze(table string) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	snap := a.Registry.Snapshot(0)
	return t.Analyze(snap.Visible), nil
}

// TableStatistics returns the current statistics snapshot of a table.
func (a *Accelerator) TableStatistics(table string) (stats.Snapshot, error) {
	t, err := a.Table(table)
	if err != nil {
		return stats.Snapshot{}, err
	}
	return t.Statistics(), nil
}

// ---------------------------------------------------------------------------
// Transaction coordination (called by the federation layer)
// ---------------------------------------------------------------------------

// Prepare is phase one of the commit handshake for a DB2 transaction.
func (a *Accelerator) Prepare(txnID int64) error { return a.Registry.Prepare(txnID) }

// CommitTxn makes a DB2 transaction's accelerator changes durable/visible.
func (a *Accelerator) CommitTxn(txnID int64) {
	a.Registry.Commit(txnID)
	a.deleteMu.Lock()
	delete(a.deleters, txnID)
	a.deleteMu.Unlock()
}

// noteDeleter records that txnID set delete markers (see deleters).
func (a *Accelerator) noteDeleter(txnID int64) {
	a.deleteMu.Lock()
	a.deleters[txnID] = true
	a.deleteMu.Unlock()
}

// AbortTxn discards a DB2 transaction's accelerator changes. Row versions the
// transaction created become permanently invisible through the registry;
// deletion markers it set are physically undone so the victim rows stay
// deletable by later transactions (and movable by the shard rebalancer). The
// undo sweep runs only for transactions that actually deleted something.
func (a *Accelerator) AbortTxn(txnID int64) {
	a.Registry.Abort(txnID)
	a.deleteMu.Lock()
	deleted := a.deleters[txnID]
	delete(a.deleters, txnID)
	a.deleteMu.Unlock()
	if !deleted {
		return
	}
	a.mu.RLock()
	tables := make([]*colstore.Table, 0, len(a.tables))
	for _, t := range a.tables {
		tables = append(tables, t)
	}
	a.mu.RUnlock()
	for _, t := range tables {
		t.UndoDeletesBy(txnID)
	}
}

// ---------------------------------------------------------------------------
// DML (always executed in the context of a DB2 transaction id)
// ---------------------------------------------------------------------------

// Insert appends rows to a table under the DB2 transaction txnID.
func (a *Accelerator) Insert(txnID int64, table string, rows []types.Row) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	a.Registry.Ensure(txnID)
	n, err := t.Insert(txnID, rows)
	atomic.AddInt64(&a.rowsIngested, int64(n))
	atomic.AddInt64(&a.dmlStatements, 1)
	return n, err
}

// InsertReplicated appends rows mirroring DB2 rows under an internal,
// immediately committed transaction (the replication apply path). Source ids
// that already have a live shadow row are skipped, which makes re-applying a
// CDC batch after a crash (the replicator's applied position is only durable
// as of the last checkpoint) converge instead of duplicating rows.
func (a *Accelerator) InsertReplicated(table string, rows []types.Row, srcIDs []int64) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	if len(srcIDs) == len(rows) {
		keptRows := rows[:0:0]
		keptIDs := srcIDs[:0:0]
		for i, src := range srcIDs {
			if src >= 0 && t.HasSource(src) {
				continue
			}
			keptRows = append(keptRows, rows[i])
			keptIDs = append(keptIDs, src)
		}
		if len(keptRows) == 0 {
			return 0, nil
		}
		rows, srcIDs = keptRows, keptIDs
	}
	txnID := a.NextInternalTxn()
	n, err := t.InsertWithSource(txnID, rows, srcIDs)
	if err != nil {
		a.Registry.Abort(txnID)
		return n, err
	}
	a.Registry.Commit(txnID)
	atomic.AddInt64(&a.rowsIngested, int64(n))
	return n, nil
}

// ApplyReplicatedDelete removes the shadow row mirroring a DB2 row id.
func (a *Accelerator) ApplyReplicatedDelete(table string, srcID int64) (bool, error) {
	t, err := a.Table(table)
	if err != nil {
		return false, err
	}
	txnID := a.NextInternalTxn()
	ok := t.DeleteBySource(txnID, srcID)
	a.Registry.Commit(txnID)
	return ok, nil
}

// TruncateReplicated removes all committed rows of a table under an internal,
// immediately committed transaction (the replication full-load/truncate path).
func (a *Accelerator) TruncateReplicated(table string) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	txnID := a.NextInternalTxn()
	snap := a.Registry.Snapshot(txnID)
	n := t.TruncateVisible(txnID, snap.Visible)
	a.Registry.Commit(txnID)
	return n, nil
}

// ImportRows bulk-appends rows under an internal, immediately committed
// transaction; shard-local analytics write their output tables through it
// (ShardPartition.WriteLocal). srcIDs may be nil (no row mirrors a DB2 row)
// or align with rows, with -1 marking native rows.
func (a *Accelerator) ImportRows(table string, rows []types.Row, srcIDs []int64) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	txnID := a.NextInternalTxn()
	var n int
	if srcIDs == nil {
		n, err = t.Insert(txnID, rows)
	} else {
		n, err = t.InsertWithSource(txnID, rows, srcIDs)
	}
	if err != nil {
		a.Registry.Abort(txnID)
		return n, err
	}
	a.Registry.Commit(txnID)
	atomic.AddInt64(&a.rowsIngested, int64(n))
	return n, nil
}

// HasReplicatedSource reports whether a live shadow row mirrors the DB2 row id.
func (a *Accelerator) HasReplicatedSource(table string, srcID int64) bool {
	t, err := a.Table(table)
	if err != nil {
		return false
	}
	return t.HasSource(srcID)
}

// ApplyReplicatedUpdate replaces the shadow row mirroring a DB2 row id.
func (a *Accelerator) ApplyReplicatedUpdate(table string, srcID int64, row types.Row) error {
	t, err := a.Table(table)
	if err != nil {
		return err
	}
	txnID := a.NextInternalTxn()
	a.noteDeleter(txnID)
	if err := t.UpdateBySource(txnID, srcID, row); err != nil {
		// AbortTxn (not a bare registry abort) so the delete marker the
		// failed update already set is physically undone.
		a.AbortTxn(txnID)
		return err
	}
	a.CommitTxn(txnID)
	return nil
}

// Update modifies rows matching where under the DB2 transaction txnID using
// delete-and-reinsert versioning. It returns the number of rows updated.
func (a *Accelerator) Update(txnID int64, table string, assignments []sqlparse.Assignment, where sqlparse.Expr) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	a.Registry.Ensure(txnID)
	atomic.AddInt64(&a.dmlStatements, 1)
	snap := a.Registry.Snapshot(txnID)
	schema := t.Schema()
	env := expr.NewEnv(qualifiedColumns(table, schema))

	type change struct {
		idx    int
		newRow types.Row
	}
	var changes []change
	for _, idx := range t.VisibleIndices(snap.Visible) {
		row := t.ReadRow(idx)
		ok, err := env.EvalBool(where, row)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		updated := row.Clone()
		for _, as := range assignments {
			ci := schema.IndexOf(as.Column)
			if ci < 0 {
				return 0, fmt.Errorf("accel: UPDATE references unknown column %s", as.Column)
			}
			v, err := env.Eval(as.Value, row)
			if err != nil {
				return 0, err
			}
			updated[ci] = v
		}
		changes = append(changes, change{idx: idx, newRow: updated})
	}
	if len(changes) > 0 {
		a.noteDeleter(txnID)
	}
	for _, ch := range changes {
		if !t.MarkDeleted(ch.idx, txnID) {
			continue
		}
		if _, err := t.Insert(txnID, []types.Row{ch.newRow}); err != nil {
			return 0, err
		}
	}
	return len(changes), nil
}

// Delete removes rows matching where under the DB2 transaction txnID.
func (a *Accelerator) Delete(txnID int64, table string, where sqlparse.Expr) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	a.Registry.Ensure(txnID)
	atomic.AddInt64(&a.dmlStatements, 1)
	a.noteDeleter(txnID)
	snap := a.Registry.Snapshot(txnID)
	schema := t.Schema()
	env := expr.NewEnv(qualifiedColumns(table, schema))
	count := 0
	for _, idx := range t.VisibleIndices(snap.Visible) {
		row := t.ReadRow(idx)
		ok := true
		if where != nil {
			ok, err = env.EvalBool(where, row)
			if err != nil {
				return 0, err
			}
		}
		if !ok {
			continue
		}
		if t.MarkDeleted(idx, txnID) {
			count++
		}
	}
	return count, nil
}

// Truncate removes all rows visible to the transaction.
func (a *Accelerator) Truncate(txnID int64, table string) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	a.Registry.Ensure(txnID)
	atomic.AddInt64(&a.dmlStatements, 1)
	a.noteDeleter(txnID)
	snap := a.Registry.Snapshot(txnID)
	return t.TruncateVisible(txnID, snap.Visible), nil
}

// RowCount returns the number of rows visible to the DB2 transaction (0 for
// an anonymous snapshot of committed data).
func (a *Accelerator) RowCount(txnID int64, table string) (int, error) {
	t, err := a.Table(table)
	if err != nil {
		return 0, err
	}
	snap := a.Registry.Snapshot(txnID)
	return t.VisibleRowCount(snap.Visible), nil
}

func qualifiedColumns(qualifier string, schema types.Schema) []expr.InputColumn {
	cols := make([]expr.InputColumn, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = expr.InputColumn{Qualifier: types.NormalizeName(qualifier), Name: c.Name, Kind: c.Kind}
	}
	return cols
}
