package relalg

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"idaax/internal/expr"
	"idaax/internal/par"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// Options tunes how the select pipeline executes. The DB2 engine uses
// Parallelism 1 (tuple-at-a-time semantics), the accelerator passes its number
// of worker slices.
type Options struct {
	// Parallelism is the number of goroutines used for filter and aggregation.
	// Values < 1 mean "one".
	Parallelism int
}

// workers is the goroutine budget for one operator; par.Ranges clamps it
// further to the row count.
func (o Options) workers() int {
	return max(1, min(o.Parallelism, runtime.NumCPU()*4))
}

// ExecuteSelect runs WHERE, GROUP BY/aggregation, HAVING, projection,
// DISTINCT, ORDER BY and LIMIT/OFFSET of sel over the already-joined FROM
// relation. The caller is responsible for building `from` (scan + joins) so
// that engine-specific storage details stay out of this package.
func ExecuteSelect(from *Relation, sel *sqlparse.SelectStmt, opts Options) (*Relation, error) {
	filtered, err := Filter(from, sel.Where, opts)
	if err != nil {
		return nil, err
	}

	var projected *Relation
	var sortKeys [][]types.Value
	if needsAggregation(sel) {
		projected, sortKeys, err = aggregateAndProject(filtered, sel, opts)
	} else {
		projected, sortKeys, err = projectPlain(filtered, sel)
	}
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		projected, sortKeys = distinct(projected, sortKeys)
	}
	if len(sel.OrderBy) > 0 {
		if err := orderBy(projected, sortKeys, sel.OrderBy); err != nil {
			return nil, err
		}
	}
	applyLimit(projected, sel.Limit, sel.Offset)
	return projected, nil
}

// Filter returns the rows of rel satisfying where. With Parallelism > 1 the
// predicate is evaluated on row chunks concurrently (the accelerator's
// "snippet processors").
func Filter(rel *Relation, where sqlparse.Expr, opts Options) (*Relation, error) {
	if where == nil {
		return rel, nil
	}
	out := &Relation{Cols: rel.Cols}
	workers := opts.workers()
	results := make([][]types.Row, workers)
	err := par.Ranges(len(rel.Rows), workers, func(w, lo, hi int) error {
		env := expr.NewEnv(rel.Cols)
		var keep []types.Row
		for _, row := range rel.Rows[lo:hi] {
			ok, err := env.EvalBool(where, row)
			if err != nil {
				return err
			}
			if ok {
				keep = append(keep, row)
			}
		}
		results[w] = keep
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = results[0]
	for _, part := range results[1:] {
		out.Rows = append(out.Rows, part...)
	}
	return out, nil
}

// NeedsAggregation reports whether the SELECT takes the grouped-aggregation
// path (GROUP BY, aggregate functions in the select list, or HAVING). The
// shard scatter-gather executor uses it to pick between plain row merging and
// two-phase partial aggregation.
func NeedsAggregation(sel *sqlparse.SelectStmt) bool { return needsAggregation(sel) }

func needsAggregation(sel *sqlparse.SelectStmt) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, item := range sel.Items {
		if item.Expr != nil && sqlparse.ContainsAggregate(item.Expr) {
			return true
		}
	}
	if sel.Having != nil {
		return true
	}
	return false
}

// outputColumns derives the projected column descriptors for a select list.
func outputColumns(items []sqlparse.SelectItem, rel *Relation, env *expr.Env) []expr.InputColumn {
	var cols []expr.InputColumn
	for i, item := range items {
		if item.Star {
			for _, c := range rel.Cols {
				if item.StarTable != "" && !strings.EqualFold(item.StarTable, c.Qualifier) {
					continue
				}
				cols = append(cols, expr.InputColumn{Name: c.Name, Kind: c.Kind})
			}
			continue
		}
		name := item.Alias
		if name == "" {
			name = expr.OutputName(item.Expr, i)
		}
		cols = append(cols, expr.InputColumn{Name: types.NormalizeName(name), Kind: env.InferKind(item.Expr)})
	}
	return cols
}

// projectRow evaluates the select list for one input row.
func projectRow(items []sqlparse.SelectItem, rel *Relation, env *expr.Env, row types.Row) (types.Row, error) {
	out := make(types.Row, 0, len(items))
	for _, item := range items {
		if item.Star {
			for ci, c := range rel.Cols {
				if item.StarTable != "" && !strings.EqualFold(item.StarTable, c.Qualifier) {
					continue
				}
				out = append(out, row[ci])
			}
			continue
		}
		v, err := env.Eval(item.Expr, row)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// projectPlain evaluates a select list without aggregates. The list is bound
// once per statement: a star or a resolvable column reference becomes a source
// index, so the per-row work for those is a copy; everything else (and a
// reference that does not resolve, whose error only a row can raise) is
// evaluated per row. All output rows are carved out of one slab.
func projectPlain(rel *Relation, sel *sqlparse.SelectStmt) (*Relation, [][]types.Value, error) {
	env := expr.NewEnv(rel.Cols)
	out := &Relation{Cols: outputColumns(sel.Items, rel, env)}

	type binding struct {
		src  int           // source column, when expr is nil
		expr sqlparse.Expr // evaluated per row
	}
	bound := make([]binding, 0, len(out.Cols))
	for _, item := range sel.Items {
		if item.Star {
			for ci, c := range rel.Cols {
				if item.StarTable == "" || strings.EqualFold(item.StarTable, c.Qualifier) {
					bound = append(bound, binding{src: ci})
				}
			}
			continue
		}
		if ref, ok := item.Expr.(*sqlparse.ColumnRef); ok {
			if ci, err := env.Resolve(ref); err == nil {
				bound = append(bound, binding{src: ci})
				continue
			}
		}
		bound = append(bound, binding{expr: item.Expr})
	}

	if len(rel.Rows) == 0 {
		return out, nil, nil
	}
	width := len(bound)
	slab := make([]types.Value, len(rel.Rows)*width)
	out.Rows = make([]types.Row, len(rel.Rows))
	var sortKeys [][]types.Value
	if len(sel.OrderBy) > 0 {
		sortKeys = make([][]types.Value, 0, len(rel.Rows))
	}
	for ri, row := range rel.Rows {
		projected := types.Row(slab[:width:width])
		slab = slab[width:]
		for i, b := range bound {
			switch {
			case b.expr != nil:
				v, err := env.Eval(b.expr, row)
				if err != nil {
					return nil, nil, err
				}
				projected[i] = v
			case b.src < len(row):
				projected[i] = row[b.src]
			default:
				return nil, nil, fmt.Errorf("expr: row too short for column %s", rel.Cols[b.src].Name)
			}
		}
		out.Rows[ri] = projected
		if sortKeys != nil {
			keys, err := computeSortKeys(sel.OrderBy, env, row, out.Cols, projected)
			if err != nil {
				return nil, nil, err
			}
			sortKeys = append(sortKeys, keys)
		}
	}
	return out, sortKeys, nil
}

// computeSortKeys evaluates ORDER BY expressions. Each expression is evaluated
// against the projected output when it only references output columns (or is
// an output position literal); otherwise it is evaluated against the input row.
func computeSortKeys(orderBy []sqlparse.OrderItem, inEnv *expr.Env, inRow types.Row, outCols []expr.InputColumn, outRow types.Row) ([]types.Value, error) {
	keys := make([]types.Value, len(orderBy))
	outEnv := expr.NewEnv(outCols)
	for i, item := range orderBy {
		if lit, ok := item.Expr.(*sqlparse.Literal); ok && lit.Val.Kind == types.KindInt {
			pos := int(lit.Val.Int)
			if pos < 1 || pos > len(outRow) {
				return nil, fmt.Errorf("relalg: ORDER BY position %d out of range", pos)
			}
			keys[i] = outRow[pos-1]
			continue
		}
		if refsResolvable(item.Expr, outEnv) {
			v, err := outEnv.Eval(item.Expr, outRow)
			if err == nil {
				keys[i] = v
				continue
			}
		}
		v, err := inEnv.Eval(item.Expr, inRow)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

func refsResolvable(e sqlparse.Expr, env *expr.Env) bool {
	ok := true
	sqlparse.WalkExprs(e, func(n sqlparse.Expr) {
		if ref, isRef := n.(*sqlparse.ColumnRef); isRef {
			if _, err := env.Resolve(ref); err != nil {
				ok = false
			}
		}
	})
	return ok
}

func distinct(rel *Relation, sortKeys [][]types.Value) (*Relation, [][]types.Value) {
	seen := make(map[string]bool, len(rel.Rows))
	out := &Relation{Cols: rel.Cols}
	var keys [][]types.Value
	var buf []byte
	for i, row := range rel.Rows {
		buf = appendRowKey(buf[:0], row)
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out.Rows = append(out.Rows, row)
		if sortKeys != nil {
			keys = append(keys, sortKeys[i])
		}
	}
	return out, keys
}

// appendRowKey renders the whole row as a DISTINCT key into buf (reused
// across rows; the key is copied by the map insert only for unseen rows).
func appendRowKey(buf []byte, row types.Row) []byte {
	for _, v := range row {
		buf = v.AppendGroupKey(buf)
		buf = append(buf, 0x1f)
	}
	return buf
}

func orderBy(rel *Relation, sortKeys [][]types.Value, items []sqlparse.OrderItem) error {
	if len(sortKeys) != len(rel.Rows) {
		return fmt.Errorf("relalg: internal error: %d sort keys for %d rows", len(sortKeys), len(rel.Rows))
	}
	indices := make([]int, len(rel.Rows))
	for i := range indices {
		indices[i] = i
	}
	var sortErr error
	sort.SliceStable(indices, func(a, b int) bool {
		ka, kb := sortKeys[indices[a]], sortKeys[indices[b]]
		for i, item := range items {
			c, err := types.Compare(ka[i], kb[i])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	newRows := make([]types.Row, len(rel.Rows))
	for i, idx := range indices {
		newRows[i] = rel.Rows[idx]
	}
	rel.Rows = newRows
	return nil
}

func applyLimit(rel *Relation, limit, offset int64) {
	if offset > 0 {
		if offset >= int64(len(rel.Rows)) {
			rel.Rows = nil
		} else {
			rel.Rows = rel.Rows[offset:]
		}
	}
	if limit >= 0 && int64(len(rel.Rows)) > limit {
		rel.Rows = rel.Rows[:limit]
	}
}
