package relalg

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	return ExecuteFiltered(filtered, sel, opts)
}

// ExecuteFiltered is ExecuteSelect over a FROM relation that sel's WHERE
// clause has already filtered: it runs everything above WHERE.
func ExecuteFiltered(filtered *Relation, sel *sqlparse.SelectStmt, opts Options) (*Relation, error) {
	var projected *Relation
	var err error
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
		if err := orderBy(projected, sortKeys, sel.OrderBy, sel.Limit, sel.Offset); err != nil {
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
	var order *sortKeyPlan
	var keySlab []types.Value
	if len(sel.OrderBy) > 0 {
		sortKeys = make([][]types.Value, len(rel.Rows))
		order = newSortKeyPlan(sel.OrderBy, out.Cols)
		keySlab = make([]types.Value, len(rel.Rows)*len(sel.OrderBy))
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
		if order != nil {
			keys := keySlab[ri*len(sel.OrderBy) : (ri+1)*len(sel.OrderBy)]
			if err := order.eval(keys, env, row, projected); err != nil {
				return nil, nil, err
			}
			sortKeys[ri] = keys
		}
	}
	return out, sortKeys, nil
}

// sortKeyPlan evaluates ORDER BY expressions, bound to the output columns
// once per statement. An output position literal, or a bare reference to an
// output column, reads the projected row; an expression whose column
// references all resolve against the output is evaluated there first;
// otherwise (or when that evaluation fails) it is evaluated against the input
// row.
type sortKeyPlan struct {
	items  []sqlparse.OrderItem
	outEnv *expr.Env
	outCol []int  // output column of a bare column reference, else -1
	onOut  []bool // the item's references all resolve against the output
}

func newSortKeyPlan(items []sqlparse.OrderItem, outCols []expr.InputColumn) *sortKeyPlan {
	p := &sortKeyPlan{items: items, outEnv: expr.NewEnv(outCols), outCol: make([]int, len(items)), onOut: make([]bool, len(items))}
	for i, item := range items {
		p.outCol[i] = -1
		if ref, ok := item.Expr.(*sqlparse.ColumnRef); ok {
			if ci, err := p.outEnv.Resolve(ref); err == nil {
				p.outCol[i] = ci
			}
		}
		p.onOut[i] = refsResolvable(item.Expr, p.outEnv)
	}
	return p
}

// eval writes one row's sort keys into keys (len(items) values).
func (p *sortKeyPlan) eval(keys []types.Value, inEnv *expr.Env, inRow, outRow types.Row) error {
	for i, item := range p.items {
		if lit, ok := item.Expr.(*sqlparse.Literal); ok && lit.Val.Kind == types.KindInt {
			pos := int(lit.Val.Int)
			if pos < 1 || pos > len(outRow) {
				return fmt.Errorf("relalg: ORDER BY position %d out of range", pos)
			}
			keys[i] = outRow[pos-1]
			continue
		}
		if ci := p.outCol[i]; ci >= 0 && ci < len(outRow) {
			keys[i] = outRow[ci]
			continue
		}
		if p.onOut[i] {
			v, err := p.outEnv.Eval(item.Expr, outRow)
			if err == nil {
				keys[i] = v
				continue
			}
		}
		v, err := inEnv.Eval(item.Expr, inRow)
		if err != nil {
			return err
		}
		keys[i] = v
	}
	return nil
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

// orderBy sorts rel by its sort keys, stably. When LIMIT keeps fewer rows
// than there are and every key column is totally ordered, only the first
// LIMIT+OFFSET rows are selected, through a bounded heap; the result equals
// the full stable sort's prefix. Otherwise the full sort runs, so a
// comparison error surfaces as it always has.
func orderBy(rel *Relation, sortKeys [][]types.Value, items []sqlparse.OrderItem, limit, offset int64) error {
	if len(sortKeys) != len(rel.Rows) {
		return fmt.Errorf("relalg: internal error: %d sort keys for %d rows", len(sortKeys), len(rel.Rows))
	}
	n := int64(len(rel.Rows))
	offset = max(offset, 0)
	if limit >= 0 && limit < n && offset < n-limit && keysTotallyOrdered(sortKeys, len(items)) {
		idx := topK(len(rel.Rows), int(limit+offset), func(a, b int) int {
			c, _ := compareKeys(sortKeys[a], sortKeys[b], items)
			if c == 0 {
				c = a - b // input position breaks ties, like a stable sort
			}
			return c
		})
		rows := make([]types.Row, len(idx))
		for i, ri := range idx {
			rows[i] = rel.Rows[ri]
		}
		rel.Rows = rows
		return nil
	}

	indices := make([]int, len(rel.Rows))
	for i := range indices {
		indices[i] = i
	}
	var sortErr error
	sort.SliceStable(indices, func(a, b int) bool {
		c, err := compareKeys(sortKeys[indices[a]], sortKeys[indices[b]], items)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
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

// compareKeys orders two rows by their sort keys under the ORDER BY
// directions; the first comparison error stops it.
func compareKeys(ka, kb []types.Value, items []sqlparse.OrderItem) (int, error) {
	for i, item := range items {
		c, err := types.Compare(ka[i], kb[i])
		if err != nil {
			return 0, err
		}
		if c != 0 {
			if item.Desc {
				return -c, nil
			}
			return c, nil
		}
	}
	return 0, nil
}

// keysTotallyOrdered reports whether types.Compare totally orders every sort
// key column: its non-NULL values are all numeric (no NaN), all strings or
// all booleans. Only then can no comparison fail.
func keysTotallyOrdered(sortKeys [][]types.Value, ncols int) bool {
	for c := 0; c < ncols; c++ {
		class := types.KindNull
		for _, keys := range sortKeys {
			v := keys[c]
			k := v.Kind
			switch k {
			case types.KindNull:
				continue
			case types.KindFloat:
				if math.IsNaN(v.Float) {
					return false
				}
				k = types.KindInt
			case types.KindTimestamp:
				k = types.KindInt
			case types.KindInt, types.KindString, types.KindBool:
			default:
				return false
			}
			if class == types.KindNull {
				class = k
			} else if k != class {
				return false
			}
		}
	}
	return true
}

// topK returns the positions of the k least of n elements under cmp (a strict
// total order), in ascending order. A max-heap of the k best so far replaces
// its root whenever a better element arrives: O(n log k) comparisons and k
// positions of memory.
func topK(n, k int, cmp func(a, b int) int) []int {
	h := make([]int, 0, k)
	for i := 0; i < n && k > 0; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if cmp(h[p], h[c]) >= 0 {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if cmp(i, h[0]) >= 0 {
			continue
		}
		h[0] = i
		for p := 0; ; {
			m, l := p, 2*p+1
			if l < len(h) && cmp(h[l], h[m]) > 0 {
				m = l
			}
			if r := l + 1; r < len(h) && cmp(h[r], h[m]) > 0 {
				m = r
			}
			if m == p {
				break
			}
			h[p], h[m] = h[m], h[p]
			p = m
		}
	}
	slices.SortFunc(h, cmp)
	return h
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
