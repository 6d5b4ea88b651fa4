package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"idaax/internal/accel"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
	"idaax/internal/planner"
	"idaax/internal/sqlparse"
	"idaax/internal/stats"
	"idaax/internal/types"
)

// tableMeta is the router-side description of a sharded table. Its placement
// is versioned: part is the live (target) map every write routes by, and
// prevs holds the maps superseded since the last completed rebalance — while
// prevs is non-empty the table is migrating, pruning is restricted to keys
// whose owner every active map agrees on, and co-located join planning is
// suspended.
type tableMeta struct {
	schema  types.Schema
	distKey string
	keyIdx  int // index of the distribution key column, -1 for round robin

	// pm guards part and prevs (membership changes swap them).
	pm    sync.RWMutex
	part  Partitioner
	prevs []Partitioner

	// migMu fences writes against migration batches: every router write path
	// (DML, replication applies, bulk import) holds it shared for the duration
	// of the operation, the rebalancer holds it exclusively around each
	// bounded batch move and around migration finalisation. Queries never take
	// it — reads are kept correct by the atomic batch commits under the
	// router's commit fence, so there is no stop-the-world window.
	migMu sync.RWMutex
}

// partitioner returns the live placement map.
func (m *tableMeta) partitioner() Partitioner {
	m.pm.RLock()
	defer m.pm.RUnlock()
	return m.part
}

// migrating reports whether rows of the table may still be placed by a
// superseded map.
func (m *tableMeta) migrating() bool {
	m.pm.RLock()
	defer m.pm.RUnlock()
	return len(m.prevs) > 0
}

// routedPlaceKey implements double-routing for pruning: the returned function
// gives the single shard that can answer queries for a key, with ok=false
// while any superseded map places the key on a *different, still-attached*
// member (its rows may be mid-migration, so the statement must scan all
// candidate shards instead). Owners are compared by member name — superseded
// maps keep their pre-change ordinals, so ordinals from different epochs
// never meet — and a superseded owner that has since been detached counts as
// agreement: its rows were drained onto the live owners before it left.
func (r *Router) routedPlaceKey(meta *tableMeta) func(types.Value) (int, bool) {
	attached := r.memberNameSet()
	return func(v types.Value) (int, bool) {
		meta.pm.RLock()
		part := meta.part
		prevs := meta.prevs
		meta.pm.RUnlock()
		ord, owner, ok := part.PlaceKeyOwner(v)
		if !ok {
			return 0, false
		}
		for _, prev := range prevs {
			_, prevOwner, ok := prev.PlaceKeyOwner(v)
			if !ok {
				return 0, false
			}
			if prevOwner != owner && attached[prevOwner] {
				return 0, false
			}
		}
		return ord, true
	}
}

// memberNameSet returns the names of every attached member (draining members
// included — their rows have not fully left yet).
func (r *Router) memberNameSet() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.members))
	for _, m := range r.members {
		out[m.Name()] = true
	}
	return out
}

// Stats counts router-level routing decisions; the per-shard scan counters
// live on the member accelerators and are aggregated by Router.Stats.
type Stats struct {
	// QueriesRouted counts SELECTs executed through the router.
	QueriesRouted int64
	// QueriesPruned counts SELECTs answered by a single shard because
	// distribution-key predicates (equality, IN list, bounded range) covered
	// the distribution key.
	QueriesPruned int64
	// TwoPhaseAggregates counts SELECTs executed as partial aggregation on the
	// shards with finalization at the coordinator.
	TwoPhaseAggregates int64
	// TwoPhaseFrames counts the partial results two-phase statements handed
	// to the coordinator: one typed relation per participating shard.
	TwoPhaseFrames int64
	// RowsGathered counts base-table rows shipped from shards to the
	// coordinator by scatter-gather queries.
	RowsGathered int64
	// ColocatedJoins counts multi-table SELECTs whose joins executed entirely
	// shard-local (co-located or broadcast placement).
	ColocatedJoins int64
	// BroadcastJoins counts the subset of ColocatedJoins that replicated at
	// least one table to the participating shards.
	BroadcastJoins int64
	// ShardScansAvoided counts per-table shard scans eliminated by
	// distribution-key pruning (summed over the statements' base tables).
	ShardScansAvoided int64
	// AnalyticsScatters counts shard-local scatters (CallShardLocal) issued by
	// analytics procedures instead of gathering the table. One CALL usually
	// issues one scatter, but may issue more (KMEANS with an assignment
	// output scatters once to train and once to write).
	AnalyticsScatters int64
	// AnalyticsPartials counts per-shard partial computations produced by
	// scattered procedure calls (one per shard per scatter).
	AnalyticsPartials int64
	// AnalyticsRowsWrittenLocal counts derived rows (predictions, cluster
	// assignments) written shard-local without passing the coordinator.
	AnalyticsRowsWrittenLocal int64
	// RowsMigrated counts rows moved between shards by the rebalancer
	// (AddShardMember / RemoveShardMember / ACCEL_REBALANCE).
	RowsMigrated int64
	// RebalanceBatches counts committed migration batches.
	RebalanceBatches int64
	// RebalancesCompleted counts rebalance runs that drove every table back to
	// a single placement map.
	RebalancesCompleted int64
	// Epoch is bumped on every membership change (member added, member
	// draining, member detached); queries use it to detect a fleet view that
	// changed under them.
	Epoch int64
}

// GroupStats is one snapshot of a shard group, the observability surface the
// sharded-scan benchmark and capacity planning read. Every member is read
// once, so Group is exactly the sum of Shards.
type GroupStats struct {
	// Group aggregates the counters of every shard (accel.Stats.Add).
	Group accel.Stats
	// Shards holds each member accelerator's own counters, in shard order,
	// including members that are still draining.
	Shards []accel.Stats
	// Stats holds the router-level routing and rebalance counters.
	Stats
	// TwoPhaseFrameBytes is always 0: partials reach the coordinator as typed
	// relations, not encoded bytes. The field stays for readers of the byte
	// counter, such as the benchmark's route oracle.
	TwoPhaseFrameBytes int64
	// DistributedProcCalls breaks AnalyticsScatters down by procedure name
	// (e.g. "IDAX.LINEAR_REGRESSION").
	DistributedProcCalls map[string]int64
}

// Router spreads tables over a fleet of accelerators and implements
// accel.MultiShard, so the federation layer, the AOT manager and replication can
// treat the fleet exactly like one big accelerator. The fleet is elastic:
// AddMember and RemoveMember (rebalance.go) change the member set at runtime
// and the rebalancer live-migrates rows to match.
type Router struct {
	name string

	// mu guards members, leaving and the tables map. members is treated as
	// copy-on-write: mutations install a fresh slice, so a reader that copied
	// the header under mu can keep using its snapshot lock-free.
	mu      sync.RWMutex
	members []*accel.Accelerator
	leaving map[string]bool
	tables  map[string]*tableMeta

	// journal records cross-member rebalance commits (durable.go); nil while
	// durability is off.
	journal MultiCommitJournal

	// epoch counts membership changes (atomic).
	epoch int64

	// commitMu fences transaction visibility changes against snapshot
	// acquisition: CommitTxn/AbortTxn hold it exclusively while flipping every
	// member, queries hold it shared while collecting one snapshot per member.
	// A transaction committing across the fleet is therefore visible on every
	// shard of a statement's snapshot set or on none — the cross-shard
	// equivalent of the single accelerator's atomic registry commit. The
	// rebalancer commits each batch's source-delete and destination-insert
	// under the same exclusive fence, which is what keeps every row visible on
	// exactly one shard throughout a migration.
	commitMu sync.RWMutex

	stats Stats

	// rebal is the single-flight state of the background rebalancer.
	rebal rebalanceState

	// procMu guards procCalls, the per-procedure scatter counters surfaced by
	// DistributedProcCalls.
	procMu    sync.Mutex
	procCalls map[string]int64

	// events is the ops-plane journal (nil until SetEventLog wires one; every
	// eventlog method is nil-safe, so emission points need no guards).
	events atomic.Pointer[eventlog.Log]
}

// NewRouter creates a router over the given member accelerators. At least one
// member is required; two or more make sharding meaningful.
func NewRouter(name string, members []*accel.Accelerator) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("shard: router %s needs at least one member accelerator", types.NormalizeName(name))
	}
	return &Router{
		name:      types.NormalizeName(name),
		members:   append([]*accel.Accelerator(nil), members...),
		leaving:   make(map[string]bool),
		tables:    make(map[string]*tableMeta),
		procCalls: make(map[string]int64),
	}, nil
}

// Name returns the router's pairing name.
func (r *Router) Name() string { return r.name }

// Members returns the member accelerators in shard order, including members
// that are still draining before removal.
func (r *Router) Members() []*accel.Accelerator {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members
}

// Epoch returns the membership epoch: it advances whenever a member is added,
// starts draining, or is detached.
func (r *Router) Epoch() int64 { return atomic.LoadInt64(&r.epoch) }

// ownersLocked returns the names and router ordinals of the members rows may
// be placed on (everyone except draining members). Callers hold r.mu.
func (r *Router) ownersLocked() (names []string, ords []int) {
	for i, m := range r.members {
		if r.leaving[m.Name()] {
			continue
		}
		names = append(names, m.Name())
		ords = append(ords, i)
	}
	return names, ords
}

// newPartitionerLocked builds a placement map of meta's table for the current
// owner set.
func (r *Router) newPartitionerLocked(meta *tableMeta) Partitioner {
	names, ords := r.ownersLocked()
	if meta.keyIdx >= 0 {
		return NewHashPartitionerOrdinals(meta.keyIdx, meta.schema.Columns[meta.keyIdx].Kind, names, ords)
	}
	return NewRoundRobinPartitionerOrdinals(names, ords)
}

// newTableMetaLocked describes a new table, name normalized, distributed by
// hash of distKey or, when distKey is empty, round robin, and places it on
// the current owner set. It fails when distKey is not a column or the table
// already exists. Callers hold r.mu exclusively.
func (r *Router) newTableMetaLocked(name string, schema types.Schema, distKey string) (*tableMeta, error) {
	if _, ok := r.tables[name]; ok {
		return nil, fmt.Errorf("shard: table %s already exists on %s", name, r.name)
	}
	meta := &tableMeta{schema: schema, distKey: types.NormalizeName(distKey), keyIdx: -1}
	if meta.distKey != "" {
		if meta.keyIdx = schema.IndexOf(meta.distKey); meta.keyIdx < 0 {
			return nil, fmt.Errorf("shard: distribution key %s is not a column of %s", meta.distKey, name)
		}
	}
	meta.part = r.newPartitionerLocked(meta)
	return meta, nil
}

// Slices returns the fleet's total scan parallelism.
func (r *Router) Slices() int {
	total := 0
	for _, m := range r.Members() {
		total += m.Slices()
	}
	return total
}

// Stats aggregates the activity counters of every shard (GroupStats.Group).
func (r *Router) Stats() accel.Stats { return r.GroupStats().Group }

// GroupStats snapshots every member once, in shard order, and sums those
// snapshots into Group. Group is named after the router and its Tables is the
// number of sharded tables (each is present on every member).
func (r *Router) GroupStats() GroupStats {
	r.mu.RLock()
	group := accel.Stats{Name: r.name, Tables: len(r.tables)}
	members := r.members
	r.mu.RUnlock()
	shards := make([]accel.Stats, len(members))
	for i, m := range members {
		shards[i] = m.Stats()
		group.Add(shards[i])
	}
	return GroupStats{
		Group:                group,
		Shards:               shards,
		Stats:                r.ShardingStats(),
		DistributedProcCalls: r.DistributedProcCalls(),
	}
}

// Resources aggregates the members' storage footprints into one store view
// labelled with the group name (the accel.Backend form — callers that cannot
// tell a fleet from a single accelerator). Per-member detail, which is what
// makes capacity skew visible, stays on FleetResources.
func (r *Router) Resources() obs.StoreResources {
	fleet := r.FleetResources()
	out := obs.StoreResources{Member: r.name}
	perTable := make(map[string]*obs.TableResources)
	var order []string
	for _, m := range fleet.Members {
		for _, t := range m.TableDetail {
			agg := perTable[t.Table]
			if agg == nil {
				agg = &obs.TableResources{Table: t.Table}
				perTable[t.Table] = agg
				order = append(order, t.Table)
			}
			agg.Rows += t.Rows
			agg.Bytes += t.Bytes
			agg.Blocks += t.Blocks
			agg.ZoneMapEntries += t.ZoneMapEntries
		}
	}
	sort.Strings(order)
	for _, name := range order {
		out.AddTable(*perTable[name])
	}
	return out
}

// FleetResources reports every member's storage footprint (per-table,
// per-column) plus the fleet totals and skew summary the capacity gauges
// export.
func (r *Router) FleetResources() obs.FleetResources {
	ms := r.Members()
	members := make([]obs.StoreResources, len(ms))
	for i, m := range ms {
		members[i] = m.Resources()
	}
	return obs.AggregateFleet(members)
}

// ShardingStats returns the router-level routing counters.
func (r *Router) ShardingStats() Stats {
	return Stats{
		QueriesRouted:             atomic.LoadInt64(&r.stats.QueriesRouted),
		QueriesPruned:             atomic.LoadInt64(&r.stats.QueriesPruned),
		TwoPhaseAggregates:        atomic.LoadInt64(&r.stats.TwoPhaseAggregates),
		TwoPhaseFrames:            atomic.LoadInt64(&r.stats.TwoPhaseFrames),
		RowsGathered:              atomic.LoadInt64(&r.stats.RowsGathered),
		ColocatedJoins:            atomic.LoadInt64(&r.stats.ColocatedJoins),
		BroadcastJoins:            atomic.LoadInt64(&r.stats.BroadcastJoins),
		ShardScansAvoided:         atomic.LoadInt64(&r.stats.ShardScansAvoided),
		AnalyticsScatters:         atomic.LoadInt64(&r.stats.AnalyticsScatters),
		AnalyticsPartials:         atomic.LoadInt64(&r.stats.AnalyticsPartials),
		AnalyticsRowsWrittenLocal: atomic.LoadInt64(&r.stats.AnalyticsRowsWrittenLocal),
		RowsMigrated:              atomic.LoadInt64(&r.stats.RowsMigrated),
		RebalanceBatches:          atomic.LoadInt64(&r.stats.RebalanceBatches),
		RebalancesCompleted:       atomic.LoadInt64(&r.stats.RebalancesCompleted),
		Epoch:                     r.Epoch(),
	}
}

// SetVectorizedExecution toggles the vectorized batch engine on every member.
// The switch's state lives on the members: VectorizedEnabled reads one, and
// AddMember copies it to a joining member. Holding the membership lock keeps
// a concurrent AddMember from copying a stale setting.
func (r *Router) SetVectorizedExecution(enabled bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, m := range r.members {
		m.SetVectorizedExecution(enabled)
	}
}

// VectorizedEnabled reports whether the members run the vectorized batch
// engine (the first member's switch; SetVectorizedExecution sets them all).
func (r *Router) VectorizedEnabled() bool { return r.Members()[0].VectorizedEnabled() }

func (r *Router) meta(table string) (*tableMeta, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.tables[types.NormalizeName(table)]
	if !ok {
		return nil, fmt.Errorf("shard: table %s is not sharded on %s", types.NormalizeName(table), r.name)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// CreateTable creates the table on every shard. A non-empty distKey selects
// hash distribution on that column; an empty one selects round robin.
func (r *Router) CreateTable(name string, schema types.Schema, distKey string) error {
	name = types.NormalizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	meta, err := r.newTableMetaLocked(name, schema, distKey)
	if err != nil {
		return err
	}
	for i, m := range r.members {
		if err := m.CreateTable(name, schema, meta.distKey); err != nil {
			// Undo the members that already created the table so the fleet
			// stays consistent.
			for _, prev := range r.members[:i] {
				_ = prev.DropTable(name)
			}
			return err
		}
	}
	r.tables[name] = meta
	return nil
}

// DropTable removes the table from every shard.
func (r *Router) DropTable(name string) error {
	name = types.NormalizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tables[name]; !ok {
		return fmt.Errorf("shard: table %s is not sharded on %s", name, r.name)
	}
	var firstErr error
	for _, m := range r.members {
		if err := m.DropTable(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	delete(r.tables, name)
	return firstErr
}

// HasTable reports whether the table is sharded on this router.
func (r *Router) HasTable(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.tables[types.NormalizeName(name)]
	return ok
}

// TableNames returns the sharded table names, sorted.
func (r *Router) TableNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tables))
	for name := range r.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Statistics and planning
// ---------------------------------------------------------------------------

// Analyze rebuilds the planner statistics of a sharded table on every member
// and returns the total number of rows analyzed.
func (r *Router) Analyze(table string) (int, error) {
	if _, err := r.meta(table); err != nil {
		return 0, err
	}
	total := 0
	for _, m := range r.Members() {
		n, err := m.Analyze(table)
		total += n
		if err != nil {
			return total, fmt.Errorf("shard %s: %w", m.Name(), err)
		}
	}
	return total, nil
}

// TableStatistics merges the per-shard statistics of a sharded table into a
// fleet-wide snapshot (row counts add, min/max widen, NDV sums capped; see
// stats.Merge).
func (r *Router) TableStatistics(table string) (stats.Snapshot, error) {
	if _, err := r.meta(table); err != nil {
		return stats.Snapshot{}, err
	}
	ms := r.Members()
	snaps := make([]stats.Snapshot, 0, len(ms))
	for _, m := range ms {
		s, err := m.TableStatistics(table)
		if err != nil {
			return stats.Snapshot{}, fmt.Errorf("shard %s: %w", m.Name(), err)
		}
		snaps = append(snaps, s)
	}
	return stats.Merge(snaps), nil
}

// PlannerCatalog exposes the sharded tables, their merged statistics and
// their partitioners to the cost-based planner. While a table is migrating,
// the catalog marks it so: the planner then suspends co-located join
// placement for it and prunes only on keys whose owner every active placement
// map agrees on (double-routing).
func (r *Router) PlannerCatalog() planner.Catalog {
	return func(table string) (planner.TableInfo, bool) {
		meta, err := r.meta(table)
		if err != nil {
			return planner.TableInfo{}, false
		}
		snap, err := r.TableStatistics(table)
		if err != nil {
			snap = stats.Snapshot{}
		}
		ms := r.Members()
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.Name()
		}
		info := planner.TableInfo{
			Name:      types.NormalizeName(table),
			Schema:    meta.schema,
			Stats:     snap,
			DistKey:   meta.distKey,
			Shards:    len(ms),
			Migrating: meta.migrating(),
			Members:   names,
		}
		if meta.keyIdx >= 0 {
			info.PlaceKey = r.routedPlaceKey(meta)
		}
		return info, true
	}
}

// Explain plans a SELECT against the shard fleet without executing it. The
// member that runs the statement annotates the plan with its own batch-plan
// decision, for the statement executeShardLocal hands it (localRoute): the
// whole statement on a single remaining shard, the partial aggregate of a
// two-phase plan, or otherwise the FROM and WHERE clauses, which every
// co-located member reads exactly (BuildFromRelationTraced). Broadcast and
// gather placements substitute or move relations, so the members scan in
// batches but run no batch plan.
func (r *Router) Explain(sel *sqlparse.SelectStmt) (*planner.Plan, error) {
	pl := planner.PlanSelect(sel, r.PlannerCatalog())
	if pl == nil {
		return nil, nil
	}
	ms := r.Members()
	m, run, whole := ms[0], pl.Sel, false
	switch fast, twoPhase := localRoute(sel, pl, len(ms)); {
	case fast >= 0:
		m, run, whole = ms[fast], sel, true
	case twoPhase != nil:
		run, whole = twoPhase.shardSel, true
	case pl.Placement != planner.PlacementColocated:
		run = nil
	}
	m.AnnotateMemberPlan(pl, run, whole)
	return pl, nil
}

// ---------------------------------------------------------------------------
// Transaction coordination: every shard participates in the DB2 handshake.
// ---------------------------------------------------------------------------

// Prepare runs phase one of the commit handshake on every shard.
func (r *Router) Prepare(txnID int64) error {
	for _, m := range r.Members() {
		if err := m.Prepare(txnID); err != nil {
			return fmt.Errorf("shard %s: %w", m.Name(), err)
		}
	}
	return nil
}

// CommitTxn commits the DB2 transaction on every shard, atomically with
// respect to snapshot sets taken by concurrent queries.
func (r *Router) CommitTxn(txnID int64) {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	for _, m := range r.Members() {
		m.CommitTxn(txnID)
	}
}

// AbortTxn aborts the DB2 transaction on every shard.
func (r *Router) AbortTxn(txnID int64) {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	for _, m := range r.Members() {
		m.AbortTxn(txnID)
	}
}

// snapshotAll captures the member list and one snapshot per member atomically
// under the commit fence, giving a statement a consistent cross-shard view:
// no fleet-wide transaction commit and no migration batch commit can fall
// between two of the snapshots.
func (r *Router) snapshotAll(txnID int64) ([]*accel.Accelerator, []*accel.Snapshot) {
	r.commitMu.RLock()
	defer r.commitMu.RUnlock()
	ms := r.Members()
	snaps := make([]*accel.Snapshot, len(ms))
	for i, m := range ms {
		snaps[i] = m.Registry.Snapshot(txnID)
	}
	return ms, snaps
}

// ---------------------------------------------------------------------------
// DML. Every write path captures the member view and the live partitioner
// after taking the table's migration fence (shared), so it can never
// interleave with a batch move or a member detach on the same table.
// ---------------------------------------------------------------------------

// Insert partitions the rows by the table's distribution strategy and inserts
// each batch on its owning shard.
func (r *Router) Insert(txnID int64, table string, rows []types.Row) (int, error) {
	meta, err := r.meta(table)
	if err != nil {
		return 0, err
	}
	meta.migMu.RLock()
	defer meta.migMu.RUnlock()
	ms := r.Members()
	return placeAndApply(meta.partitioner(), len(ms), rows, func(row types.Row) types.Row { return row },
		func(i int, batch []types.Row) (int, error) { return ms[i].Insert(txnID, table, batch) })
}

// Update broadcasts the update to every shard; only shards owning matching
// rows change anything. Assigning to the hash distribution key is rejected —
// the row would have to migrate between shards mid-transaction and key-based
// shard pruning would silently miss it afterwards; the real MPP products
// restrict distribution-key updates the same way.
func (r *Router) Update(txnID int64, table string, assignments []sqlparse.Assignment, where sqlparse.Expr) (int, error) {
	meta, err := r.meta(table)
	if err != nil {
		return 0, err
	}
	if meta.keyIdx >= 0 {
		for _, as := range assignments {
			if types.NormalizeName(as.Column) == meta.distKey {
				return 0, fmt.Errorf("shard: cannot UPDATE distribution key %s of %s (delete and re-insert, or re-load to redistribute)", meta.distKey, types.NormalizeName(table))
			}
		}
	}
	return r.broadcast(table, func(m *accel.Accelerator) (int, error) { return m.Update(txnID, table, assignments, where) })
}

// Delete broadcasts the delete to every shard.
func (r *Router) Delete(txnID int64, table string, where sqlparse.Expr) (int, error) {
	return r.broadcast(table, func(m *accel.Accelerator) (int, error) { return m.Delete(txnID, table, where) })
}

// Truncate truncates the table on every shard.
func (r *Router) Truncate(txnID int64, table string) (int, error) {
	return r.broadcast(table, func(m *accel.Accelerator) (int, error) { return m.Truncate(txnID, table) })
}

// broadcast runs write on every member under the table's migration fence and
// sums the counts, stopping at the first error.
func (r *Router) broadcast(table string, write func(*accel.Accelerator) (int, error)) (int, error) {
	meta, err := r.meta(table)
	if err != nil {
		return 0, err
	}
	meta.migMu.RLock()
	defer meta.migMu.RUnlock()
	total := 0
	for _, m := range r.Members() {
		n, err := write(m)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// RowCount sums the visible row counts of every shard under one fenced
// snapshot set, so a concurrently committing transaction (or a migration
// batch) is counted on all shards or on none.
func (r *Router) RowCount(txnID int64, table string) (int, error) {
	if _, err := r.meta(table); err != nil {
		return 0, err
	}
	ms, snaps := r.snapshotAll(txnID)
	total := 0
	for i, m := range ms {
		t, err := m.Table(table)
		if err != nil {
			return total, err
		}
		total += t.VisibleRowCount(snaps[i].Visible)
	}
	return total, nil
}

// ---------------------------------------------------------------------------
// Replication fan-out: CDC batches land on the owning shard under the live
// placement map, so replication follows a rebalance as it happens.
// ---------------------------------------------------------------------------

// ApplyReplicated applies a replication batch across the fleet as one unit,
// routing each change in order by the live placement map: inserts go to their
// owner, deletes and round-robin updates to the member holding the row, and
// an update that moves a hash key becomes a delete at the holder plus an
// update at the new owner, so every DB2 row keeps exactly one shadow copy.
// Each touched member applies its share under one internal transaction of a
// fleetTxn, and all of them commit (or, on error, abort) together.
func (r *Router) ApplyReplicated(table string, changes []accel.ReplChange) (int, error) {
	meta, err := r.meta(table)
	if err != nil {
		return 0, err
	}
	meta.migMu.RLock()
	defer meta.migMu.RUnlock()
	ms := r.Members()
	part := meta.partitioner()
	ft := r.beginFleetTxn(ms)
	apply := func(i int, share []accel.ReplChange) (int, error) {
		return ms[i].ApplyReplicatedIn(ft.txn(i), table, share)
	}
	holder := func(src int64) int {
		for i, m := range ms {
			if m.HasReplicatedSource(table, src) {
				return i
			}
		}
		return -1
	}
	total := 0
	for len(changes) > 0 && err == nil {
		ch, n := changes[0], 0
		switch ch.Op {
		case accel.ReplInsert:
			run := 1
			for run < len(changes) && changes[run].Op == accel.ReplInsert {
				run++
			}
			n, err = placeAndApply(part, len(ms), changes[:run], func(c accel.ReplChange) types.Row { return c.Row }, apply)
			total += n
			changes = changes[run:]
			continue
		case accel.ReplTruncate:
			for i := 0; i < len(ms) && err == nil; i++ {
				var k int
				k, err = apply(i, changes[:1])
				n += k
			}
		case accel.ReplDelete:
			if h := holder(ch.SrcID); h >= 0 {
				n, err = apply(h, changes[:1])
			}
		case accel.ReplUpdate:
			// A round-robin row is updated where it lives. A hash key places
			// the new image, and so does an unseen round-robin row.
			h := holder(ch.SrcID)
			dest := h
			if meta.keyIdx >= 0 || h < 0 {
				dest = placeOf(part, len(ms), ch.Row)
			}
			if h >= 0 && h != dest {
				_, err = apply(h, []accel.ReplChange{{Op: accel.ReplDelete, SrcID: ch.SrcID}})
			}
			if err == nil {
				n, err = apply(dest, changes[:1])
			}
		}
		total += n
		changes = changes[1:]
	}
	ft.end(err == nil)
	if err != nil {
		return 0, err
	}
	return total, nil
}

var _ accel.MultiShard = (*Router)(nil)
