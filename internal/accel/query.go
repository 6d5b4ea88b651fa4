package accel

import (
	"fmt"
	"strings"
	"sync/atomic"

	"idaax/internal/colstore"
	"idaax/internal/obs"
	"idaax/internal/planner"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
	"idaax/internal/vexec"
)

// Query executes a SELECT against accelerator-resident tables under a snapshot
// of the DB2 transaction txnID (0 for an anonymous committed-data snapshot).
// Simple "column <op> literal" conjuncts of the WHERE clause are pushed into
// the columnar scans where zone maps can prune blocks; the full predicate is
// then (re-)applied by the shared relational operators, so pushdown is purely
// a performance optimisation.
func (a *Accelerator) Query(txnID int64, sel *sqlparse.SelectStmt) (*relalg.Relation, error) {
	return a.QueryAtTraced(txnID, a.Registry.Snapshot(txnID), sel, nil)
}

// QueryTraced is Query with a trace span (see Backend.QueryTraced): the
// statement's scans and execution attach as children of sp. sp may be nil,
// which disables tracing at the cost of one nil check per span operation.
func (a *Accelerator) QueryTraced(txnID int64, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	return a.QueryAtTraced(txnID, a.Registry.Snapshot(txnID), sel, sp)
}

// QueryAtTraced is Query under a caller-provided snapshot, with a trace span
// (nil disables tracing). The shard router uses it to run one statement over
// many accelerators with snapshots taken together under its commit fence, so
// a transaction committing across the fleet is either visible on every shard
// or on none.
//
// Multi-table statements first pass through the cost-based planner, which may
// reorder the FROM clause and hoist WHERE equalities into join conditions;
// the rewritten statement returns exactly the same rows (the full WHERE
// clause is re-applied after the joins).
func (a *Accelerator) QueryAtTraced(txnID int64, snap *Snapshot, sel *sqlparse.SelectStmt, sp *obs.Span) (rel *relalg.Relation, err error) {
	atomic.AddInt64(&a.queriesRun, 1)
	defer func() {
		if err != nil {
			atomic.AddInt64(&a.queryErrors, 1)
		}
	}()
	sel, methods := a.planStatement(sel)
	bp, declined := a.planBatch(sel, methods)
	a.countDeclined(declined)
	if bp.none() {
		// The fallback may try a batch plan for sel's FROM and WHERE; sel has
		// counted its one fallback already.
		rel, _, err = a.buildFiltered(txnID, snap, sel, nil, methods, sp)
	} else {
		rel, err = a.runBatch(bp, snap, sel, sp)
	}
	// An aggregated plan's output is final; anything else is sel's FROM
	// relation with WHERE applied.
	if err == nil && !bp.aggregated() {
		rel, err = relalg.ExecuteFiltered(rel, sel, relalg.Options{Parallelism: a.slices})
	}
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&a.rowsReturned, int64(len(rel.Rows)))
	return rel, nil
}

// batchPlan is a statement's plan in the vectorized batch engine: a scan of
// one plain table lt, or a hash join probing lt and building over rt. The
// zero value is no batch plan.
type batchPlan struct {
	scan   *vexec.Plan
	join   *vexec.JoinPlan
	lt, rt *colstore.Table
}

func (bp batchPlan) none() bool { return bp.scan == nil && bp.join == nil }

func (bp batchPlan) mode() string {
	if bp.join != nil {
		return bp.join.Mode()
	}
	return bp.scan.Mode()
}

func (bp batchPlan) aggregated() bool {
	if bp.join != nil {
		return bp.join.Aggregated()
	}
	return bp.scan != nil && bp.scan.Aggregated()
}

// planBatch decides which batch plan runs sel with the planner's join
// methods. Every read entry point and EXPLAIN take this one decision: one
// plain table runs vexec.PlanQuery, two plain tables vexec.PlanJoin with the
// first join method. The zero plan means the row engine runs sel: the batch
// engine is off, the FROM clause has another shape, a table is unknown (the
// row path raises the error), or vexec declined the statement, which
// declined reports.
func (a *Accelerator) planBatch(sel *sqlparse.SelectStmt, methods []relalg.JoinMethod) (bp batchPlan, declined bool) {
	from := sel.From
	if !a.VectorizedEnabled() || len(from) == 0 || len(from) > 2 ||
		from[0].Subquery != nil || from[len(from)-1].Subquery != nil {
		return batchPlan{}, false
	}
	lt, err := a.Table(from[0].Table)
	if err != nil {
		return batchPlan{}, false
	}
	if len(from) == 1 {
		scan, ok := vexec.PlanQuery(sel, lt.Schema())
		return batchPlan{scan: scan, lt: lt}, !ok
	}
	rt, err := a.Table(from[1].Table)
	if err != nil {
		return batchPlan{}, false
	}
	method := relalg.MethodAuto
	if len(methods) > 0 {
		method = methods[0]
	}
	join, ok := vexec.PlanJoin(sel, lt.Schema(), rt.Schema(), method)
	if !ok {
		return batchPlan{}, true
	}
	return batchPlan{join: join, lt: lt, rt: rt}, false
}

// countDeclined counts a statement vexec declined as one fallback of the
// batch engine. Execution counts once per statement; EXPLAIN counts nothing.
func (a *Accelerator) countDeclined(declined bool) {
	if declined {
		atomic.AddInt64(&a.vexecFallbacks, 1)
	}
}

// runBatch runs a batch plan for sel under the statement snapshot, with a
// scan span, or a join span with one scan child per side, and accounts the
// scan and vectorization counters. The relation is final for an aggregated
// plan; otherwise it is sel's FROM relation with WHERE applied.
func (a *Accelerator) runBatch(bp batchPlan, snap *Snapshot, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	var rel *relalg.Relation
	var total colstore.ScanStats
	var err error
	if bp.join == nil {
		sc := a.startScanSpan(sp, sel.From[0].Name())
		sc.Label(obs.LabelMode, "vectorized:"+bp.mode())
		rel, total, err = bp.scan.Run(bp.lt, a.slices, snap.Visible)
		finishScanSpan(sc, total)
	} else {
		jc := sp.Child("join")
		jc.Label(obs.LabelShard, a.name)
		jc.Label(obs.LabelMode, "vectorized:"+bp.mode())
		var js vexec.JoinStats
		rel, js, err = bp.join.Run(bp.lt, bp.rt, a.slices, snap.Visible)
		finishScanSpan(a.startScanSpan(jc, sel.From[1].Name()), js.Build)
		finishScanSpan(a.startScanSpan(jc, sel.From[0].Name()), js.Probe)
		jc.Finish()
		total = js.Total()
	}
	atomic.AddInt64(&a.rowsScanned, int64(total.VersionsConsidered))
	atomic.AddInt64(&a.blocksPruned, int64(total.BlocksPruned))
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&a.vectorizedQueries, 1)
	if bp.join != nil {
		atomic.AddInt64(&a.vectorizedJoins, 1)
	}
	return rel, nil
}

// finishScanSpan records a batch scan's work on its span and closes it.
func finishScanSpan(sc *obs.Span, st colstore.ScanStats) {
	sc.Add(obs.KeyRows, int64(st.RowsMaterialized))
	sc.Add(obs.KeyVersions, int64(st.VersionsConsidered))
	sc.Add(obs.KeyBlocksPruned, int64(st.BlocksPruned))
	sc.Add(obs.KeyBatches, int64(st.Batches))
	sc.Finish()
}

// filterOnly is sel cut down to its FROM and WHERE clauses: the statement
// whose batch plan yields sel's FROM relation with WHERE applied.
func filterOnly(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	return &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Star: true}}, From: sel.From, Where: sel.Where, Limit: -1}
}

// PlannerCatalog exposes this accelerator's tables and statistics to the
// cost-based planner.
func (a *Accelerator) PlannerCatalog() planner.Catalog {
	return func(table string) (planner.TableInfo, bool) {
		t, err := a.Table(table)
		if err != nil {
			return planner.TableInfo{}, false
		}
		return planner.TableInfo{
			Name:    t.Name(),
			Schema:  t.Schema(),
			Stats:   t.Statistics(),
			DistKey: t.DistKey(),
			Shards:  1,
			Members: []string{a.name},
		}, true
	}
}

// planStatement runs the cost-based planner over a multi-table statement and
// returns the (possibly rewritten) statement plus per-join method choices.
// Single-table statements skip planning: there is no order or method to pick.
func (a *Accelerator) planStatement(sel *sqlparse.SelectStmt) (*sqlparse.SelectStmt, []relalg.JoinMethod) {
	if len(sel.From) < 2 {
		return sel, nil
	}
	pl := planner.PlanSelect(sel, a.PlannerCatalog())
	if pl == nil {
		return sel, nil
	}
	return pl.Sel, pl.Methods
}

// Explain plans a SELECT against this accelerator without executing it.
func (a *Accelerator) Explain(sel *sqlparse.SelectStmt) (*planner.Plan, error) {
	pl := planner.PlanSelect(sel, a.PlannerCatalog())
	if pl != nil {
		a.annotate(pl, pl.Sel, pl.Methods)
	}
	return pl, nil
}

// AnnotateMemberPlan records on pl, a shard router's plan, what this member
// runs for it, for EXPLAIN: the batch plan of run handed to QueryAtTraced
// when whole (the member plans run's joins itself), or of run's FROM and
// WHERE with pl's join methods, as BuildFromRelationTraced takes them. run
// is nil when the member runs no batch plan: its tables are gathered or
// substituted, and the row operators run over its batch scans.
func (a *Accelerator) AnnotateMemberPlan(pl *planner.Plan, run *sqlparse.SelectStmt, whole bool) {
	var methods []relalg.JoinMethod
	switch {
	case run == nil:
	case whole:
		run, methods = a.planStatement(run)
	default:
		run, methods = filterOnly(run), pl.Methods
	}
	a.annotate(pl, run, methods)
}

// annotate records on pl the column encodings of its scans, which are
// physical storage state reported whatever engine runs, and the execution
// mode of the batch plan planBatch picks for sel; with the engine on and no
// batch plan (sel may be nil), the row operators run over batch scans.
func (a *Accelerator) annotate(pl *planner.Plan, sel *sqlparse.SelectStmt, methods []relalg.JoinMethod) {
	for i, scan := range pl.Scans {
		if scan.Item.Subquery != nil {
			continue
		}
		if t, err := a.Table(scan.Item.Table); err == nil {
			pl.Scans[i].Encoding = encodingSummary(t)
		}
	}
	if !a.VectorizedEnabled() {
		return
	}
	pl.Vectorized = true
	pl.VectorizedMode = vexec.ModeScan
	if sel == nil {
		return
	}
	if bp, _ := a.planBatch(sel, methods); !bp.none() {
		pl.VectorizedMode = bp.mode()
		if bp.join != nil && len(pl.Steps) > 0 {
			pl.Steps[0].Vectorized = true
		}
	}
}

// encodingSummary renders a table's dictionary-encoded columns for EXPLAIN
// scan lines ("dict(cat:3,grp:5)" — name:cardinality per encoded column);
// empty when every column is plain.
func encodingSummary(t *colstore.Table) string {
	var parts []string
	for _, e := range t.ColumnEncodings() {
		if e.Dict {
			parts = append(parts, fmt.Sprintf("%s:%d", strings.ToLower(e.Name), e.DictSize))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "dict(" + strings.Join(parts, ",") + ")"
}

// BuildFromRelation returns sel's FROM relation with sel's WHERE clause
// applied, every FROM item read under the single statement-level snapshot and
// folded with the planned join methods, so a multi-table join cannot observe
// a concurrent commit between its scans. The read is exact on both engines,
// so the caller runs only what sel has above WHERE (relalg.ExecuteFiltered).
// Subqueries recurse through Query and snapshot on their own, as they always
// have. overrides, keyed by normalized FROM item name, substitutes
// caller-provided relations for table scans — the shard router uses it to
// hand every member the full content of a broadcast table instead of the
// member's own partition.
func (a *Accelerator) BuildFromRelation(txnID int64, snap *Snapshot, sel *sqlparse.SelectStmt, overrides map[string]*relalg.Relation, methods []relalg.JoinMethod) (*relalg.Relation, error) {
	return a.BuildFromRelationTraced(txnID, snap, sel, overrides, methods, nil)
}

// BuildFromRelationTraced is BuildFromRelation with a trace span: one "scan"
// child per table scanned (labelled with the FROM item and this accelerator's
// name), subqueries nesting recursively. sp may be nil.
func (a *Accelerator) BuildFromRelationTraced(txnID int64, snap *Snapshot, sel *sqlparse.SelectStmt, overrides map[string]*relalg.Relation, methods []relalg.JoinMethod, sp *obs.Span) (*relalg.Relation, error) {
	rel, declined, err := a.buildFiltered(txnID, snap, sel, overrides, methods, sp)
	a.countDeclined(declined)
	return rel, err
}

// buildFiltered is BuildFromRelationTraced, reporting rather than counting
// whether vexec declined the batch plan of sel's FROM and WHERE. With no
// substituted relations that plan produces the relation straight from column
// batches; otherwise, or when there is no such plan, the row operators join
// the scans and filter the result.
func (a *Accelerator) buildFiltered(txnID int64, snap *Snapshot, sel *sqlparse.SelectStmt, overrides map[string]*relalg.Relation, methods []relalg.JoinMethod, sp *obs.Span) (rel *relalg.Relation, declined bool, err error) {
	if len(overrides) == 0 {
		reduced := filterOnly(sel)
		var bp batchPlan
		if bp, declined = a.planBatch(reduced, methods); !bp.none() {
			rel, err = a.runBatch(bp, snap, reduced, sp)
			return rel, declined, err
		}
	}
	rels := make([]*relalg.Relation, len(sel.From))
	for i, item := range sel.From {
		if rel, ok := overrides[types.NormalizeName(item.Name())]; ok {
			rels[i] = rel
			continue
		}
		if item.Subquery != nil {
			ssp := sp.Child("subquery")
			sub, err := a.QueryTraced(txnID, item.Subquery, ssp)
			ssp.Finish()
			if err != nil {
				return nil, declined, err
			}
			rels[i] = relalg.Requalify(sub, item.Name())
			continue
		}
		t, err := a.Table(item.Table)
		if err != nil {
			return nil, declined, err
		}
		sc := a.startScanSpan(sp, item.Name())
		rows := a.scanTable(t, snap, sel, item, sc)
		sc.Add(obs.KeyRows, int64(len(rows)))
		sc.Finish()
		rels[i] = relalg.FromTable(item.Name(), t.Schema(), rows)
	}
	if rel, err = relalg.JoinAllPlanned(rels, sel.From, methods, a.slices); err == nil {
		rel, err = relalg.Filter(rel, sel.Where, relalg.Options{Parallelism: a.slices})
	}
	return rel, declined, err
}

// startScanSpan opens a "scan" child carrying the FROM item and shard labels
// EXPLAIN ANALYZE matches plan operators against.
func (a *Accelerator) startScanSpan(sp *obs.Span, itemName string) *obs.Span {
	sc := sp.Child("scan")
	sc.Label(obs.LabelTable, types.NormalizeName(itemName))
	sc.Label(obs.LabelShard, a.name)
	return sc
}

// ScanVisible materialises the rows of a table visible under the given
// snapshot (obtain one per statement from Registry.Snapshot), pushing the
// simple WHERE conjuncts of sel that reference the given FROM item into the
// columnar scan (zone-map pruning). The scan and pruning counters are
// accounted on this accelerator, which is what keeps per-shard statistics
// accurate when a shard router gathers base rows from many accelerators. sel
// may be nil to scan without pushdown.
func (a *Accelerator) ScanVisible(snap *Snapshot, table string, sel *sqlparse.SelectStmt, item sqlparse.FromItem) ([]types.Row, error) {
	return a.ScanVisibleTraced(snap, table, sel, item, nil)
}

// ScanVisibleTraced is ScanVisible with a trace span: the scan appears as one
// "scan" child of sp, labelled with the FROM item and this accelerator's name
// and carrying rows/batches/blocks-pruned attributes. sp may be nil.
func (a *Accelerator) ScanVisibleTraced(snap *Snapshot, table string, sel *sqlparse.SelectStmt, item sqlparse.FromItem, sp *obs.Span) ([]types.Row, error) {
	t, err := a.Table(table)
	if err != nil {
		atomic.AddInt64(&a.queryErrors, 1)
		return nil, err
	}
	sc := a.startScanSpan(sp, item.Name())
	rows := a.scanTable(t, snap, sel, item, sc)
	sc.Add(obs.KeyRows, int64(len(rows)))
	sc.Finish()
	return rows, nil
}

func (a *Accelerator) scanTable(t *colstore.Table, snap *Snapshot, sel *sqlparse.SelectStmt, item sqlparse.FromItem, sp *obs.Span) []types.Row {
	var preds []colstore.SimplePredicate
	if sel != nil {
		preds = a.pushdownPredicates(sel, item, t)
	}
	var rows []types.Row
	var stats colstore.ScanStats
	if a.VectorizedEnabled() {
		// Batch scan: the same pushdown predicates evaluate vector-at-a-time
		// and only surviving rows materialize, into exactly-sized buffers.
		// Joins, the shard gather path and the analytics seam all read through
		// here, so they scan in batches too.
		rows, stats = t.ScanMaterialize(a.slices, snap.Visible, preds)
	} else {
		rows, stats = t.ParallelScan(a.slices, snap.Visible, preds)
	}
	sp.Add(obs.KeyVersions, int64(stats.VersionsConsidered))
	sp.Add(obs.KeyBlocksPruned, int64(stats.BlocksPruned))
	sp.Add(obs.KeyBatches, int64(stats.Batches))
	atomic.AddInt64(&a.rowsScanned, int64(stats.VersionsConsidered))
	atomic.AddInt64(&a.blocksPruned, int64(stats.BlocksPruned))
	return rows
}

// pushdownPredicates extracts the WHERE conjuncts that can drive zone-map
// block skipping for the given FROM item (vexec.ScanPredicates decides which
// and how). The full WHERE clause is re-applied after the joins, so a pushed
// predicate may be a superset filter without changing results.
func (a *Accelerator) pushdownPredicates(sel *sqlparse.SelectStmt, item sqlparse.FromItem, t *colstore.Table) []colstore.SimplePredicate {
	if sel.Where == nil {
		return nil
	}
	schema := t.Schema()
	var preds []colstore.SimplePredicate

	// resolve returns the column index for a reference belonging to this FROM
	// item: qualified with the item's name, or unqualified when the column
	// name cannot also come from another FROM item.
	resolve := func(ref *sqlparse.ColumnRef) int {
		colIdx := schema.IndexOf(ref.Name)
		if colIdx < 0 {
			return -1
		}
		if ref.Table != "" {
			if !strings.EqualFold(ref.Table, item.Name()) {
				return -1
			}
			return colIdx
		}
		for _, other := range sel.From {
			if other.Name() == item.Name() {
				continue
			}
			if other.Subquery != nil {
				return -1 // opaque item: cannot prove the name is unique
			}
			ot, err := a.Table(other.Table)
			if err != nil || ot.Schema().IndexOf(ref.Name) >= 0 {
				return -1
			}
		}
		return colIdx
	}

	for _, c := range sqlparse.Conjuncts(sel.Where) {
		if s, ok := sqlparse.Sargable(c); ok {
			if colIdx := resolve(s.Col); colIdx >= 0 {
				preds, _ = vexec.ScanPredicates(preds, &s, colIdx)
			}
		}
	}
	return preds
}
