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
	if rel, handled, err := a.tryVectorized(snap, sel, methods, sp); handled {
		if err != nil {
			return nil, err
		}
		atomic.AddInt64(&a.rowsReturned, int64(len(rel.Rows)))
		return rel, nil
	}
	from, err := a.BuildFromRelationTraced(txnID, snap, sel, nil, methods, sp)
	if err != nil {
		return nil, err
	}
	rel, err = relalg.ExecuteSelect(from, sel, relalg.Options{Parallelism: a.slices})
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&a.rowsReturned, int64(len(rel.Rows)))
	return rel, nil
}

// tryVectorized runs a statement through the vectorized batch engine
// (internal/vexec): single plain tables take the scan path, two plain tables
// the hash-join path. handled=false falls back to the row path without side
// effects: the statement is out of engine scope, the engine is disabled, or a
// table is unknown (the row path raises the proper error). When the engine
// only covers scan+filter (or join without aggregation), the surviving rows
// are materialized late and the remaining operators run row-at-a-time with
// the WHERE clause stripped — the vector filters already applied it exactly.
func (a *Accelerator) tryVectorized(snap *Snapshot, sel *sqlparse.SelectStmt, methods []relalg.JoinMethod, sp *obs.Span) (*relalg.Relation, bool, error) {
	if !a.VectorizedEnabled() {
		return nil, false, nil
	}
	switch {
	case len(sel.From) == 1 && sel.From[0].Subquery == nil:
		return a.tryVectorizedScan(snap, sel, sp)
	case len(sel.From) == 2 && sel.From[0].Subquery == nil && sel.From[1].Subquery == nil:
		return a.tryVectorizedJoin(snap, sel, methods, sp)
	default:
		return nil, false, nil
	}
}

func (a *Accelerator) tryVectorizedScan(snap *Snapshot, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, bool, error) {
	t, err := a.Table(sel.From[0].Table)
	if err != nil {
		return nil, false, nil
	}
	plan, ok := vexec.PlanQuery(sel, t.Schema())
	if !ok {
		// In-scope shape (single table, engine on) that the engine declined:
		// the fallback-rate metric feeds on this.
		atomic.AddInt64(&a.vexecFallbacks, 1)
		return nil, false, nil
	}
	rel, err := a.runScanPlan(plan, t, snap, sel.From[0], sp)
	if err != nil {
		return nil, true, err
	}
	if plan.Aggregated() {
		return rel, true, nil
	}
	rest := *sel
	rest.Where = nil
	out, err := relalg.ExecuteSelect(rel, &rest, relalg.Options{Parallelism: a.slices})
	if err != nil {
		return nil, true, err
	}
	return out, true, nil
}

// runScanPlan executes a planned batch scan under the statement snapshot,
// emitting the scan span and accounting the scan and vectorization counters.
func (a *Accelerator) runScanPlan(plan *vexec.Plan, t *colstore.Table, snap *Snapshot, item sqlparse.FromItem, sp *obs.Span) (*relalg.Relation, error) {
	sc := a.startScanSpan(sp, item.Name())
	sc.Label(obs.LabelMode, "vectorized:"+plan.Mode())
	rel, stats, err := plan.Run(t, a.slices, snap.Visible)
	sc.Add(obs.KeyRows, int64(stats.RowsMaterialized))
	sc.Add(obs.KeyVersions, int64(stats.VersionsConsidered))
	sc.Add(obs.KeyBlocksPruned, int64(stats.BlocksPruned))
	sc.Add(obs.KeyBatches, int64(stats.Batches))
	sc.Finish()
	atomic.AddInt64(&a.rowsScanned, int64(stats.VersionsConsidered))
	atomic.AddInt64(&a.blocksPruned, int64(stats.BlocksPruned))
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&a.vectorizedQueries, 1)
	return rel, nil
}

// ScanFilteredTraced returns exactly the rows of sel's single plain table that
// are visible under snap and satisfy sel's WHERE clause — every column,
// qualified by the FROM item name, in position order. With the batch engine
// on this is the vexec scan+filter plan (vector predicates with zone-map
// pruning, residual conjuncts on the survivors, late materialisation), the
// same exact filter Query relies on; with it off, the row scan with pushdown
// followed by relalg.Filter. The shard router calls it so a shard-local
// single-table statement filters once, on the shard, and the coordinator runs
// the rest of the statement with WHERE stripped. sp may be nil.
func (a *Accelerator) ScanFilteredTraced(snap *Snapshot, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	item := sel.From[0]
	t, err := a.Table(item.Table)
	if err != nil {
		atomic.AddInt64(&a.queryErrors, 1)
		return nil, err
	}
	if a.VectorizedEnabled() {
		scan := &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Star: true}}, From: sel.From, Where: sel.Where, Limit: -1}
		if plan, ok := vexec.PlanQuery(scan, t.Schema()); ok {
			return a.runScanPlan(plan, t, snap, item, sp)
		}
	}
	rows, err := a.ScanVisibleTraced(snap, item.Table, sel, item, sp)
	if err != nil {
		return nil, err
	}
	return relalg.Filter(relalg.FromTable(item.Name(), t.Schema(), rows), sel.Where, relalg.Options{Parallelism: a.slices})
}

// tryVectorizedJoin runs a two-table statement as a vectorized hash join:
// build over the second FROM item, probe over the first, both scanning column
// batches under the statement snapshot. With integrated aggregation the
// result is final; otherwise the joined relation (WHERE fully applied)
// continues through the row operators with WHERE stripped, exactly like the
// single-table scan path.
func (a *Accelerator) tryVectorizedJoin(snap *Snapshot, sel *sqlparse.SelectStmt, methods []relalg.JoinMethod, sp *obs.Span) (*relalg.Relation, bool, error) {
	plan, lt, rt, ok := a.planVectorizedJoin(sel, methods)
	if !ok {
		return nil, false, nil
	}
	rel, err := a.runJoinPlan(plan, lt, rt, snap, sel, sp)
	if err != nil {
		return nil, true, err
	}
	if plan.Aggregated() {
		return rel, true, nil
	}
	rest := *sel
	rest.Where = nil
	out, err := relalg.ExecuteSelect(rel, &rest, relalg.Options{Parallelism: a.slices})
	if err != nil {
		return nil, true, err
	}
	return out, true, nil
}

// planVectorizedJoin resolves both FROM tables and plans the batch hash join,
// counting a fallback when vexec declines the statement.
func (a *Accelerator) planVectorizedJoin(sel *sqlparse.SelectStmt, methods []relalg.JoinMethod) (*vexec.JoinPlan, *colstore.Table, *colstore.Table, bool) {
	lt, err := a.Table(sel.From[0].Table)
	if err != nil {
		return nil, nil, nil, false
	}
	rt, err := a.Table(sel.From[1].Table)
	if err != nil {
		return nil, nil, nil, false
	}
	method := relalg.MethodAuto
	if len(methods) > 0 {
		method = methods[0]
	}
	plan, ok := vexec.PlanJoin(sel, lt.Schema(), rt.Schema(), method)
	if !ok {
		atomic.AddInt64(&a.vexecFallbacks, 1)
		return nil, nil, nil, false
	}
	return plan, lt, rt, true
}

// runJoinPlan executes a planned batch hash join under the statement snapshot,
// emitting the join span with one scan child per side and accounting the scan
// and vectorization counters.
func (a *Accelerator) runJoinPlan(plan *vexec.JoinPlan, lt, rt *colstore.Table, snap *Snapshot, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	jc := sp.Child("join")
	jc.Label(obs.LabelShard, a.name)
	jc.Label(obs.LabelMode, "vectorized:"+plan.Mode())
	rel, js, err := plan.Run(lt, rt, a.slices, snap.Visible)
	for _, side := range []struct {
		item  sqlparse.FromItem
		stats colstore.ScanStats
	}{{sel.From[1], js.Build}, {sel.From[0], js.Probe}} {
		sc := a.startScanSpan(jc, side.item.Name())
		sc.Add(obs.KeyRows, int64(side.stats.RowsMaterialized))
		sc.Add(obs.KeyVersions, int64(side.stats.VersionsConsidered))
		sc.Add(obs.KeyBlocksPruned, int64(side.stats.BlocksPruned))
		sc.Add(obs.KeyBatches, int64(side.stats.Batches))
		sc.Finish()
	}
	jc.Finish()
	total := js.Total()
	atomic.AddInt64(&a.rowsScanned, int64(total.VersionsConsidered))
	atomic.AddInt64(&a.blocksPruned, int64(total.BlocksPruned))
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&a.vectorizedQueries, 1)
	atomic.AddInt64(&a.vectorizedJoins, 1)
	return rel, nil
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
		a.annotateVectorized(pl, sel)
	}
	return pl, nil
}

// annotateVectorized records on the plan whether (and how far) the vectorized
// batch engine would execute the statement, for EXPLAIN.
func (a *Accelerator) annotateVectorized(pl *planner.Plan, sel *sqlparse.SelectStmt) {
	// Column encodings are physical storage state, reported whether or not
	// the batch engine runs the statement.
	for i, scan := range pl.Scans {
		if scan.Item.Subquery != nil {
			continue
		}
		if t, err := a.Table(scan.Item.Table); err == nil {
			pl.Scans[i].Encoding = EncodingSummary(t)
		}
	}
	if !a.VectorizedEnabled() {
		return
	}
	pl.Vectorized = true
	pl.VectorizedMode = vexec.ModeScan // deep joins and subqueries still scan in batches
	// Annotate from the planner-rewritten statement: execution plans joins
	// over pl.Sel with pl.Methods, not the original FROM order.
	if pl.Sel != nil {
		sel = pl.Sel
	}
	switch {
	case len(sel.From) == 1 && sel.From[0].Subquery == nil:
		t, err := a.Table(sel.From[0].Table)
		if err != nil {
			return
		}
		if p, ok := vexec.PlanQuery(sel, t.Schema()); ok {
			pl.VectorizedMode = p.Mode()
		}
	case len(sel.From) == 2 && sel.From[0].Subquery == nil && sel.From[1].Subquery == nil:
		lt, lerr := a.Table(sel.From[0].Table)
		rt, rerr := a.Table(sel.From[1].Table)
		if lerr != nil || rerr != nil {
			return
		}
		method := relalg.MethodAuto
		if len(pl.Methods) > 0 {
			method = pl.Methods[0]
		}
		if p, ok := vexec.PlanJoin(sel, lt.Schema(), rt.Schema(), method); ok {
			pl.VectorizedMode = p.Mode()
			if len(pl.Steps) > 0 {
				pl.Steps[0].Vectorized = true
			}
		}
	}
}

// EncodingSummary renders a table's dictionary-encoded columns for EXPLAIN
// scan lines ("dict(cat:3,grp:5)" — name:cardinality per encoded column);
// empty when every column is plain.
func EncodingSummary(t *colstore.Table) string {
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

// BuildFromRelation materialises every FROM item of sel under the single
// statement-level snapshot and folds them with the planned join methods, so a
// multi-table join cannot observe a concurrent commit between its scans.
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
	if len(sel.From) == 0 {
		return relalg.JoinAll(nil, nil, a.slices)
	}
	// Two plain tables with no substituted relations: produce the joined FROM
	// relation straight from column batches with the batch hash join, folding
	// sel's WHERE in. The caller re-executes the full statement (WHERE
	// included) over the union of the per-shard results, so pre-filtering here
	// only reduces the rows that travel to the coordinator.
	if a.VectorizedEnabled() && len(overrides) == 0 &&
		len(sel.From) == 2 && sel.From[0].Subquery == nil && sel.From[1].Subquery == nil {
		reduced := &sqlparse.SelectStmt{
			Items: []sqlparse.SelectItem{{Star: true}},
			From:  sel.From,
			Where: sel.Where,
			Limit: -1,
		}
		if plan, lt, rt, ok := a.planVectorizedJoin(reduced, methods); ok {
			return a.runJoinPlan(plan, lt, rt, snap, reduced, sp)
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
				return nil, err
			}
			rels[i] = relalg.Requalify(sub, item.Name())
			continue
		}
		t, err := a.Table(item.Table)
		if err != nil {
			return nil, err
		}
		sc := a.startScanSpan(sp, item.Name())
		rows := a.scanTable(t, snap, sel, item, sc)
		sc.Add(obs.KeyRows, int64(len(rows)))
		sc.Finish()
		rels[i] = relalg.FromTable(item.Name(), t.Schema(), rows)
	}
	return relalg.JoinAllPlanned(rels, sel.From, methods, a.slices)
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
// block skipping for the given FROM item: "col <op> literal" comparisons,
// BETWEEN ranges (two bound predicates), and IN lists (collapsed to their
// min/max range). The full WHERE clause is re-applied after the joins, so a
// pushed predicate may be a superset filter without changing results.
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

	var visit func(e sqlparse.Expr)
	visit = func(e sqlparse.Expr) {
		switch n := e.(type) {
		case *sqlparse.BinaryExpr:
			if n.Op == sqlparse.OpAnd {
				visit(n.Left)
				visit(n.Right)
				return
			}
			ref, lit, op, ok := vexec.SimpleComparison(n)
			if !ok {
				return
			}
			if colIdx := resolve(ref); colIdx >= 0 {
				preds = append(preds, colstore.NewSimplePredicate(colIdx, op, lit))
			}
		case *sqlparse.BetweenExpr:
			if n.Negate {
				return
			}
			ref, ok := n.Operand.(*sqlparse.ColumnRef)
			if !ok {
				return
			}
			lo, okLo := n.Low.(*sqlparse.Literal)
			hi, okHi := n.High.(*sqlparse.Literal)
			if !okLo || !okHi || lo.Val.IsNull() || hi.Val.IsNull() {
				return
			}
			if colIdx := resolve(ref); colIdx >= 0 {
				preds = append(preds,
					colstore.NewSimplePredicate(colIdx, colstore.CmpGe, lo.Val),
					colstore.NewSimplePredicate(colIdx, colstore.CmpLe, hi.Val))
			}
		case *sqlparse.InExpr:
			if n.Negate || len(n.List) == 0 {
				return
			}
			ref, ok := n.Operand.(*sqlparse.ColumnRef)
			if !ok {
				return
			}
			var min, max types.Value
			for _, e := range n.List {
				lit, ok := e.(*sqlparse.Literal)
				if !ok {
					return
				}
				if lit.Val.IsNull() {
					continue // IN (NULL, ...) never matches on NULL
				}
				if min.IsNull() {
					min, max = lit.Val, lit.Val
					continue
				}
				if c, err := types.Compare(lit.Val, min); err != nil {
					return
				} else if c < 0 {
					min = lit.Val
				}
				if c, err := types.Compare(lit.Val, max); err != nil {
					return
				} else if c > 0 {
					max = lit.Val
				}
			}
			if min.IsNull() {
				return
			}
			if colIdx := resolve(ref); colIdx >= 0 {
				preds = append(preds,
					colstore.NewSimplePredicate(colIdx, colstore.CmpGe, min),
					colstore.NewSimplePredicate(colIdx, colstore.CmpLe, max))
			}
		}
	}
	visit(sel.Where)
	return preds
}
