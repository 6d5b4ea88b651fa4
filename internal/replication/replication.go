// Package replication copies data of accelerated DB2 tables to their columnar
// shadow copies on an accelerator: an initial full load plus incremental
// application of captured changes (CDC). This is the data path the paper's
// introduction identifies as the bottleneck for multi-stage workloads — every
// stage that materialises its result in DB2 must flow through here before the
// accelerator can use it — and the data path accelerator-only tables avoid.
package replication

import (
	"fmt"
	"sync"
	"time"

	"idaax/internal/accel"
	"idaax/internal/catalog"
	"idaax/internal/db2"
	"idaax/internal/rowstore"
	"idaax/internal/types"
)

// AcceleratorProvider resolves accelerator names (implemented by the
// federation coordinator).
type AcceleratorProvider interface {
	Accelerator(name string) (accel.Backend, error)
}

// TableState tracks replication progress for one accelerated table.
type TableState struct {
	Table           string
	Accelerator     string
	AppliedSeq      int64
	RowsFullLoaded  int64
	RowsIncremental int64
	FullLoads       int64
	LastSync        time.Time
}

// Stats aggregates replication activity.
type Stats struct {
	RowsFullLoaded  int64
	RowsIncremental int64
	FullLoads       int64
	IncrementalRuns int64
}

// Replicator owns the DB2 -> accelerator copy process.
type Replicator struct {
	engine *db2.Engine
	cat    *catalog.Catalog
	accels AcceleratorProvider

	mu      sync.Mutex
	states  map[string]*TableState
	stats   Stats
	journal Journal
}

// New creates a replicator.
func New(engine *db2.Engine, accels AcceleratorProvider) *Replicator {
	return &Replicator{engine: engine, cat: engine.Catalog(), accels: accels, states: make(map[string]*TableState)}
}

// Stats returns aggregate counters.
func (r *Replicator) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// State returns a copy of the per-table replication state.
func (r *Replicator) State(table string) (TableState, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.states[types.NormalizeName(table)]
	if !ok {
		return TableState{}, false
	}
	return *st, true
}

// AddTable turns a regular DB2 table into an accelerated table: it creates the
// shadow columnar table on the accelerator and updates the catalog. Data is
// not copied yet; call FullLoad (the equivalent of ACCEL_LOAD_TABLES).
func (r *Replicator) AddTable(table, acceleratorName, distKey string) error {
	table = types.NormalizeName(table)
	meta, err := r.cat.Table(table)
	if err != nil {
		return err
	}
	if meta.Kind == catalog.KindAcceleratorOnly {
		return fmt.Errorf("replication: %s is accelerator-only and needs no replication", table)
	}
	if !r.engine.HasStorage(table) {
		return fmt.Errorf("replication: %s has no DB2 storage", table)
	}
	acc, err := r.accels.Accelerator(acceleratorName)
	if err != nil {
		return err
	}
	if !acc.HasTable(table) {
		if err := acc.CreateTable(table, meta.Schema, distKey); err != nil {
			return err
		}
	}
	if err := r.cat.SetKind(table, catalog.KindAccelerated, acceleratorName); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.states[table]; !ok {
		r.states[table] = &TableState{Table: table, Accelerator: types.NormalizeName(acceleratorName)}
	}
	return nil
}

// RemoveTable detaches a table from the accelerator: the shadow copy is
// dropped and the catalog entry reverts to a regular table.
func (r *Replicator) RemoveTable(table string) error {
	table = types.NormalizeName(table)
	meta, err := r.cat.Table(table)
	if err != nil {
		return err
	}
	if meta.Kind != catalog.KindAccelerated {
		return fmt.Errorf("replication: %s is not an accelerated table", table)
	}
	acc, err := r.accels.Accelerator(meta.Accelerator)
	if err != nil {
		return err
	}
	if acc.HasTable(table) {
		if err := acc.DropTable(table); err != nil {
			return err
		}
	}
	if err := r.cat.SetKind(table, catalog.KindRegular, ""); err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.states, table)
	r.mu.Unlock()
	return nil
}

// FullLoad (re)copies the complete DB2 table into its shadow copy, replacing
// previous contents, and fast-forwards the applied change sequence. It returns
// the number of rows copied.
func (r *Replicator) FullLoad(table string) (int, error) {
	table = types.NormalizeName(table)
	meta, err := r.cat.Table(table)
	if err != nil {
		return 0, err
	}
	if meta.Kind != catalog.KindAccelerated {
		return 0, fmt.Errorf("replication: %s is not an accelerated table", table)
	}
	acc, err := r.accels.Accelerator(meta.Accelerator)
	if err != nil {
		return 0, err
	}
	st, err := r.engine.Storage(table)
	if err != nil {
		return 0, err
	}

	// Replace the shadow contents with one batch — a truncate, then every row
	// with its DB2 row id so later incremental updates and deletes can be
	// applied by source id — which the accelerator applies atomically: a
	// concurrent query counts the old contents or the new ones.
	batch := []accel.ReplChange{{Op: accel.ReplTruncate}}
	if err := st.Scan(func(id rowstore.RowID, row types.Row) error {
		batch = append(batch, accel.ReplChange{Op: accel.ReplInsert, SrcID: int64(id), Row: row.Clone()})
		return nil
	}); err != nil {
		return 0, err
	}
	latestSeq := r.engine.Changes.LatestSeq()
	if _, err := acc.ApplyReplicated(table, batch); err != nil {
		return 0, err
	}
	n := len(batch) - 1

	r.mu.Lock()
	state, ok := r.states[table]
	if !ok {
		state = &TableState{Table: table, Accelerator: meta.Accelerator}
		r.states[table] = state
	}
	state.AppliedSeq = latestSeq
	state.RowsFullLoaded += int64(n)
	state.FullLoads++
	state.LastSync = time.Now()
	r.stats.RowsFullLoaded += int64(n)
	r.stats.FullLoads++
	r.journalState(table, latestSeq)
	r.mu.Unlock()

	// Changes up to the snapshot point are subsumed by the full load.
	r.engine.Changes.Discard(table, latestSeq)
	return n, nil
}

// EnableReplication turns on incremental change capture for the table.
func (r *Replicator) EnableReplication(table string) error {
	return r.cat.SetReplication(table, true)
}

// DisableReplication turns incremental change capture off.
func (r *Replicator) DisableReplication(table string) error {
	return r.cat.SetReplication(table, false)
}

// ApplyLag reports the table's CDC backlog: how many captured changes have
// not been applied to the shadow copy yet, and the age of the oldest of them
// (0 when nothing is pending).
func (r *Replicator) ApplyLag(table string) (pending int, lag time.Duration) {
	table = types.NormalizeName(table)
	r.mu.Lock()
	applied := int64(0)
	if st, ok := r.states[table]; ok {
		applied = st.AppliedSeq
	}
	r.mu.Unlock()
	pending = r.engine.Changes.PendingCount(table, applied)
	if pending > 0 {
		if oldest, ok := r.engine.Changes.OldestPending(table, applied); ok {
			lag = time.Since(oldest)
		}
	}
	return pending, lag
}

// LagReport aggregates the CDC backlog across every replicated table: the
// total pending change count and the worst apply lag. It feeds the
// repl_pending_changes / repl_apply_lag_ms gauges.
func (r *Replicator) LagReport() (pending int, maxLag time.Duration) {
	r.mu.Lock()
	tables := make([]string, 0, len(r.states))
	for t := range r.states {
		tables = append(tables, t)
	}
	r.mu.Unlock()
	for _, t := range tables {
		p, lag := r.ApplyLag(t)
		pending += p
		if lag > maxLag {
			maxLag = lag
		}
	}
	return pending, maxLag
}

// PendingChanges returns how many captured changes have not been applied yet.
func (r *Replicator) PendingChanges(table string) int {
	r.mu.Lock()
	applied := int64(0)
	if st, ok := r.states[types.NormalizeName(table)]; ok {
		applied = st.AppliedSeq
	}
	r.mu.Unlock()
	return r.engine.Changes.PendingCount(table, applied)
}

// replOps maps each captured DB2 change to the replication change that
// mirrors it.
var replOps = map[db2.ChangeOp]accel.ReplOp{
	db2.ChangeInsert:   accel.ReplInsert,
	db2.ChangeUpdate:   accel.ReplUpdate,
	db2.ChangeDelete:   accel.ReplDelete,
	db2.ChangeTruncate: accel.ReplTruncate,
}

// ApplyPending applies all captured changes of the table to its shadow copy as
// one batch, atomically, and returns the number of change records applied.
func (r *Replicator) ApplyPending(table string) (int, error) {
	table = types.NormalizeName(table)
	meta, err := r.cat.Table(table)
	if err != nil {
		return 0, err
	}
	if meta.Kind != catalog.KindAccelerated {
		return 0, fmt.Errorf("replication: %s is not an accelerated table", table)
	}
	acc, err := r.accels.Accelerator(meta.Accelerator)
	if err != nil {
		return 0, err
	}

	r.mu.Lock()
	state, ok := r.states[table]
	if !ok {
		state = &TableState{Table: table, Accelerator: meta.Accelerator}
		r.states[table] = state
	}
	applied := state.AppliedSeq
	r.mu.Unlock()

	changes := r.engine.Changes.Since(table, applied)
	if len(changes) == 0 {
		return 0, nil
	}
	batch := make([]accel.ReplChange, len(changes))
	for i, ch := range changes {
		batch[i] = accel.ReplChange{Op: replOps[ch.Op], SrcID: int64(ch.RowID), Row: ch.Row}
	}
	if _, err := acc.ApplyReplicated(table, batch); err != nil {
		return 0, err
	}
	count := len(changes)
	lastSeq := changes[count-1].Seq

	r.mu.Lock()
	state.AppliedSeq = lastSeq
	state.RowsIncremental += int64(count)
	state.LastSync = time.Now()
	r.stats.RowsIncremental += int64(count)
	r.stats.IncrementalRuns++
	r.journalState(table, lastSeq)
	r.mu.Unlock()

	r.engine.Changes.Discard(table, lastSeq)
	return count, nil
}

// SyncAll applies pending changes for every accelerated table with replication
// enabled and returns the total number of change records applied.
func (r *Replicator) SyncAll() (int, error) {
	total := 0
	for _, meta := range r.cat.Tables() {
		if meta.Kind != catalog.KindAccelerated || !meta.ReplicationEnabled {
			continue
		}
		n, err := r.ApplyPending(meta.Name)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
