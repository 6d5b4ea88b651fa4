// Package vexec is the vectorized (batch-at-a-time) execution engine of the
// accelerator, in the MonetDB/X100 style: data stays columnar from the storage
// segment to the aggregate. A statement the engine accepts executes as
//
//	ScanBatches -> vector predicates -> [residual row predicates] ->
//	    late materialization | vectorized hash aggregation
//
// Sargable WHERE conjuncts (sqlparse.Sargable: "col <op> literal", BETWEEN
// with literal bounds, IS [NOT] NULL) evaluate vector-at-a-time into the
// scan's selection vector with tight typed loops; an IN list narrows the scan
// to its [min, max] range. Remaining conjuncts are evaluated row-at-a-time but
// only for rows that already survived the vector filters, and only those rows
// are ever materialized as types.Row (late materialization). Grouped
// COUNT/SUM/AVG/MIN/MAX/STDDEV/VARIANCE aggregates accumulate straight off the
// column vectors — no row construction at all.
//
// How a row finds its group depends on the GROUP BY's shape. Each worker
// keeps a native index in front of a map keyed by the fixed-width binary
// group key; a miss goes through the map, which creates the group, and the
// index remembers it, so per-row work is per-distinct-key work:
//
//	no group column              the one group
//	one dictionary column        []*group indexed by code
//	one int/timestamp/bool       open-addressing int64 table
//	one float                    the same table, by normalized bits
//	NULL key of one column       one cached group
//	join, all on the build side  []*group indexed by build slot
//	anything else                the binary-key map
//
// A join bucket is found the same way: a join on one int = int or
// timestamp = timestamp key pair buckets by the native value, every other
// join by the binary join key.
//
// Statements the engine cannot run entirely (joins, subqueries, DISTINCT or
// DISTINCT aggregates, HAVING, ORDER BY on the aggregate path, complex select
// lists) fall back transparently: either to "vectorized scan + filter, row
// operators above" or to the row engine outright. Every accepted plan returns
// exactly the rows, aggregates and NULL semantics of the row-at-a-time path;
// the differential test suite pins that equivalence.
package vexec

import (
	"slices"
	"strings"

	"idaax/internal/colstore"
	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// Execution modes reported to EXPLAIN and the accelerator's counters.
const (
	// ModeScan is a batch scan with late materialization but no vectorizable
	// predicate (everything, if anything, is residual).
	ModeScan = "scan"
	// ModeScanFilter adds vector predicate evaluation into the selection
	// vector; row operators run above the filtered relation.
	ModeScanFilter = "scan+filter"
	// ModeScanFilterAggregate runs the whole statement vectorized, including
	// hash aggregation with binary group keys.
	ModeScanFilterAggregate = "scan+filter+aggregate"
	// ModeJoin is a vectorized hash join (build and probe over column
	// batches, binary join keys); row operators run above the joined
	// relation.
	ModeJoin = "hash-join"
	// ModeJoinAggregate additionally folds grouping/aggregation into the
	// probe: no joined row is ever materialized.
	ModeJoinAggregate = "hash-join+aggregate"
)

// nullCheck is a vectorized IS [NOT] NULL conjunct.
type nullCheck struct {
	colIdx   int
	wantNull bool // true for IS NULL, false for IS NOT NULL
}

// Plan is an analyzed single-table statement accepted by the vectorized
// engine.
type Plan struct {
	item   sqlparse.FromItem
	schema types.Schema
	cols   []expr.InputColumn

	// preds are the vector conjuncts (they are also handed to the scan for
	// zone-map block pruning); an IN list's range is among them while the IN
	// itself stays residual.
	preds      []colstore.SimplePredicate
	nullChecks []nullCheck
	// residual is the AND of the WHERE conjuncts that must run row-at-a-time,
	// in their original order; nil when the vector filters cover the WHERE
	// clause completely.
	residual sqlparse.Expr

	// agg is non-nil when grouping/aggregation runs vectorized too.
	agg *aggPlan
}

// PlanQuery analyzes a statement for vectorized execution against the given
// base-table schema. ok is false when the statement shape is out of scope
// (multiple FROM items or a subquery); the caller then uses the row path.
// An accepted plan always covers scan+filter; whether aggregation also runs
// vectorized is reported by Aggregated.
func PlanQuery(sel *sqlparse.SelectStmt, schema types.Schema) (*Plan, bool) {
	if sel == nil || len(sel.From) != 1 || sel.From[0].Subquery != nil {
		return nil, false
	}
	item := sel.From[0]
	p := &Plan{item: item, schema: schema, cols: qualifiedColumns(item.Name(), schema)}
	p.analyzeWhere(sel.Where)
	p.agg = analyzeAgg(sel, p)
	return p, true
}

// Aggregated reports whether the plan runs grouping/aggregation vectorized
// (in which case Run returns the final projected relation and the caller must
// not re-run WHERE/GROUP BY/projection).
func (p *Plan) Aggregated() bool { return p.agg != nil }

// Mode names the execution mode for EXPLAIN and counters.
func (p *Plan) Mode() string {
	switch {
	case p.agg != nil:
		return ModeScanFilterAggregate
	case len(p.preds) > 0 || len(p.nullChecks) > 0:
		return ModeScanFilter
	default:
		return ModeScan
	}
}

// Run executes the plan over the table under the visibility snapshot with the
// given scan parallelism. For an aggregated plan the result is the final
// projected relation (LIMIT/OFFSET applied); otherwise it is the filtered
// base relation — all table columns, qualified by the FROM item name, holding
// exactly the rows the row path's scan+Filter would produce, in the same
// order — and the caller runs the remaining operators with the WHERE clause
// stripped.
func (p *Plan) Run(t *colstore.Table, slices int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	if p.agg != nil {
		return p.runAggregate(t, slices, vis)
	}
	return p.runFilter(t, slices, vis)
}

func (p *Plan) runFilter(t *colstore.Table, parallelism int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	nw := max(parallelism, 1)
	buckets := make([][]types.Row, nw)
	// The residual runs on one scratch row per worker; only kept rows are
	// copied out.
	var envs []*expr.Env
	var rows []types.Row
	if p.residual != nil {
		envs = make([]*expr.Env, nw)
		rows = make([]types.Row, nw)
		for i := range envs {
			envs[i] = expr.NewEnv(p.cols)
			rows[i] = make(types.Row, len(p.cols))
		}
	}
	stats, err := t.ScanBatches(parallelism, vis, p.preds, func(w int, b *colstore.Batch) error {
		sel := applyNullChecks(b, p.nullChecks)
		if len(sel) == 0 {
			return nil
		}
		if p.residual == nil {
			b.Sel = sel
			buckets[w] = b.Materialize(buckets[w])
			return nil
		}
		env, row := envs[w], rows[w]
		for _, off := range sel {
			for ci := range b.Cols {
				row[ci] = b.Cols[ci].Value(off)
			}
			ok, err := env.EvalBool(p.residual, row)
			if err != nil {
				return err
			}
			if ok {
				buckets[w] = append(buckets[w], slices.Clone(row))
			}
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return &relalg.Relation{Cols: p.cols, Rows: slices.Concat(buckets...)}, stats, nil
}

// applyNullChecks compacts the batch's selection vector through the
// IS [NOT] NULL conjuncts.
func applyNullChecks(b *colstore.Batch, checks []nullCheck) []int {
	sel := b.Sel
	for _, c := range checks {
		nulls := b.Cols[c.colIdx].Nulls
		out := sel[:0]
		for _, i := range sel {
			if nulls[i] == c.wantNull {
				out = append(out, i)
			}
		}
		sel = out
		if len(sel) == 0 {
			break
		}
	}
	return sel
}

// ---------------------------------------------------------------------------
// WHERE analysis
// ---------------------------------------------------------------------------

// analyzeWhere splits the WHERE clause into vector conjuncts and the residual
// expression. It cannot fail: a conjunct that does not vectorize simply stays
// residual, where the shared row evaluator preserves its exact semantics
// (including evaluation errors, which the row path would raise too).
func (p *Plan) analyzeWhere(where sqlparse.Expr) {
	if where == nil {
		return
	}
	var residual []sqlparse.Expr
	for _, conj := range sqlparse.Conjuncts(where) {
		if p.vectorizeConjunct(conj) {
			continue
		}
		residual = append(residual, conj)
	}
	p.residual = sqlparse.AndAll(residual)
}

// vectorizeConjunct adds the vector form of a sargable conjunct on a column
// of this table and reports whether it is exact (see ScanPredicates);
// IS [NOT] NULL becomes an exact null check. Kind-incompatible comparisons
// (e.g. a boolean column against a numeric literal) are pushed too: the
// vector fallback drops every row exactly like rowMatches, which is also what
// the row path's scan pushdown does before its WHERE re-evaluation could
// raise a comparison error — so both engines return the same (empty) result.
func (p *Plan) vectorizeConjunct(e sqlparse.Expr) bool {
	s, ok := sqlparse.Sargable(e)
	if !ok {
		return false
	}
	ci := p.resolve(s.Col)
	if ci < 0 {
		return false
	}
	if s.Kind == sqlparse.SargIsNull {
		p.nullChecks = append(p.nullChecks, nullCheck{colIdx: ci, wantNull: !s.Negate})
		return true
	}
	var exact bool
	p.preds, exact = ScanPredicates(p.preds, &s, ci)
	return exact
}

// resolve maps a column reference onto the table schema (-1 when it does not
// belong to this FROM item).
func (p *Plan) resolve(ref *sqlparse.ColumnRef) int {
	if ref.Table != "" && !strings.EqualFold(ref.Table, p.item.Name()) {
		return -1
	}
	return p.schema.IndexOf(ref.Name)
}

// resolveCol and inputCols implement aggInput.
func (p *Plan) resolveCol(ref *sqlparse.ColumnRef) int { return p.resolve(ref) }
func (p *Plan) inputCols() []expr.InputColumn          { return p.cols }

// ScanPredicates appends the scan predicates of a sargable conjunct on
// column ci and reports whether they are exact, i.e. the conjunct need not
// run again: one predicate for a comparison with a non-NULL literal and a
// [lo, hi] pair for a non-negated BETWEEN with non-NULL bounds (both exact),
// and the [min, max] range of a non-negated IN list's non-NULL values (a
// superset, so not exact). Any other conjunct — NULL literals, negations,
// an IN list whose values do not compare, IS [NOT] NULL — appends nothing.
// The vectorized scan and join plans and the row path's zone-map pushdown
// all push through here.
func ScanPredicates(dst []colstore.SimplePredicate, s *sqlparse.Sarg, ci int) ([]colstore.SimplePredicate, bool) {
	switch s.Kind {
	case sqlparse.SargCompare:
		if s.Lo.IsNull() {
			return dst, false
		}
		return append(dst, colstore.NewSimplePredicate(ci, scanOp(s.Op), s.Lo)), true
	case sqlparse.SargBetween:
		if s.Negate || s.Lo.IsNull() || s.Hi.IsNull() {
			return dst, false
		}
		return appendRange(dst, ci, s.Lo, s.Hi), true
	case sqlparse.SargIn:
		if lo, hi, ok := inRange(s); ok && !s.Negate {
			return appendRange(dst, ci, lo, hi), false
		}
	}
	return dst, false
}

func appendRange(dst []colstore.SimplePredicate, ci int, lo, hi types.Value) []colstore.SimplePredicate {
	return append(dst,
		colstore.NewSimplePredicate(ci, colstore.CmpGe, lo),
		colstore.NewSimplePredicate(ci, colstore.CmpLe, hi))
}

// inRange is the [min, max] of an IN list's non-NULL values (IN (NULL, ...)
// never matches on NULL); ok is false when there is none or two values do
// not compare.
func inRange(s *sqlparse.Sarg) (lo, hi types.Value, ok bool) {
	for i := 0; i < s.Len(); i++ {
		v := s.Value(i)
		if v.IsNull() {
			continue
		}
		if lo.IsNull() {
			lo, hi = v, v
			continue
		}
		if c, err := types.Compare(v, lo); err != nil {
			return lo, hi, false
		} else if c < 0 {
			lo = v
		}
		if c, err := types.Compare(v, hi); err != nil {
			return lo, hi, false
		} else if c > 0 {
			hi = v
		}
	}
	return lo, hi, !lo.IsNull()
}

// SimpleComparison recognises "col <op> literal" and "literal <op> col"
// comparisons with a non-NULL literal, normalising the latter by flipping the
// operator (sqlparse.Sargable decides the shape).
func SimpleComparison(b *sqlparse.BinaryExpr) (*sqlparse.ColumnRef, types.Value, colstore.CompareOp, bool) {
	s, ok := sqlparse.Sargable(b)
	if !ok || s.Lo.IsNull() {
		return nil, types.Null(), 0, false
	}
	return s.Col, s.Lo, scanOp(s.Op), true
}

// scanOp maps a SargCompare operator onto the scan predicate op.
func scanOp(op sqlparse.BinOp) colstore.CompareOp {
	switch op {
	case sqlparse.OpEq:
		return colstore.CmpEq
	case sqlparse.OpNe:
		return colstore.CmpNe
	case sqlparse.OpLt:
		return colstore.CmpLt
	case sqlparse.OpLe:
		return colstore.CmpLe
	case sqlparse.OpGt:
		return colstore.CmpGt
	default: // sqlparse.OpGe
		return colstore.CmpGe
	}
}

func qualifiedColumns(qualifier string, schema types.Schema) []expr.InputColumn {
	cols := make([]expr.InputColumn, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = expr.InputColumn{Qualifier: types.NormalizeName(qualifier), Name: c.Name, Kind: c.Kind}
	}
	return cols
}
