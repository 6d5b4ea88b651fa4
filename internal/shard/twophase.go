package shard

import (
	"fmt"
	"strings"

	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// twoPhasePlan is a grouped/aggregate SELECT split into three steps: the
// statement each shard runs (grouping keys plus partial aggregates), the
// merge that folds the shards' partial rows into one row per group
// (mergePartials), and the plain statement the coordinator runs over the
// merged rows (HAVING as WHERE, projection, DISTINCT, ORDER BY and LIMIT).
type twoPhasePlan struct {
	shardSel *sqlparse.SelectStmt
	merge    mergeSpec
	finalSel *sqlparse.SelectStmt
}

// partialPrefix/groupPrefix name the synthesised shard-output columns. The
// names only exist between the two phases and can never collide with user
// columns because identifiers cannot start with an underscore pair here.
const groupPrefix = "__G"
const partialPrefix = "__A"

// twoPhaseBuilder rewrites expressions of the original statement into
// expressions over the shard-output columns.
type twoPhaseBuilder struct {
	groupKeys  []string // canonical forms of the GROUP BY expressions
	shardItems []sqlparse.SelectItem
	mergeFns   []string // merge aggregate of each partial column, in order
	// partials maps the canonical form of an aggregate call to the aliases of
	// its partial columns (one for COUNT/SUM/MIN/MAX, two for AVG), so the
	// same aggregate appearing in the select list and in HAVING/ORDER BY is
	// computed once per shard.
	partials map[string][]string
}

// planTwoPhase decides whether the statement can run as two-phase partial
// aggregation and builds the plan. It declines (returning ok=false) when a
// select item is *, an aggregate is DISTINCT or STDDEV/VARIANCE, or a column
// is referenced outside both the GROUP BY expressions and aggregate
// arguments — those statements fall back to the scatter-gather plan, which
// handles everything.
func planTwoPhase(sel *sqlparse.SelectStmt) (*twoPhasePlan, bool) {
	for _, item := range sel.Items {
		if item.Star {
			return nil, false
		}
	}
	b := &twoPhaseBuilder{partials: make(map[string][]string)}
	for i, g := range sel.GroupBy {
		alias := fmt.Sprintf("%s%d", groupPrefix, i)
		b.groupKeys = append(b.groupKeys, formatExpr(g))
		b.shardItems = append(b.shardItems, sqlparse.SelectItem{Expr: g, Alias: alias})
	}

	finalItems := make([]sqlparse.SelectItem, len(sel.Items))
	for i, item := range sel.Items {
		re, ok := b.rewrite(item.Expr)
		if !ok {
			return nil, false
		}
		alias := item.Alias
		if alias == "" {
			alias = expr.OutputName(item.Expr, i)
		}
		finalItems[i] = sqlparse.SelectItem{Expr: re, Alias: alias}
	}

	having, ok := b.rewrite(sel.Having)
	if !ok {
		return nil, false
	}

	finalOrder := make([]sqlparse.OrderItem, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		re, ok := b.rewriteOrderExpr(o.Expr, finalItems)
		if !ok {
			return nil, false
		}
		finalOrder[i] = sqlparse.OrderItem{Expr: re, Desc: o.Desc}
	}

	shardSel := &sqlparse.SelectStmt{
		Items:   b.shardItems,
		From:    sel.From,
		Where:   sel.Where,
		GroupBy: sel.GroupBy,
		Limit:   -1,
	}
	finalSel := &sqlparse.SelectStmt{
		Distinct: sel.Distinct,
		Items:    finalItems,
		Where:    having,
		OrderBy:  finalOrder,
		Limit:    sel.Limit,
		Offset:   sel.Offset,
	}
	merge := mergeSpec{groups: len(sel.GroupBy), fns: b.mergeFns}
	return &twoPhasePlan{shardSel: shardSel, merge: merge, finalSel: finalSel}, true
}

// rewrite maps an expression of the original statement onto the merged
// columns: occurrences of GROUP BY expressions become references to the
// grouping columns, aggregate calls become references to their merged partial
// columns, and scalar structure is rebuilt around the rewritten children. A
// bare column reference that is neither a grouping expression nor inside an
// aggregate argument makes the rewrite fail.
func (b *twoPhaseBuilder) rewrite(e sqlparse.Expr) (sqlparse.Expr, bool) {
	if e == nil {
		return nil, true
	}
	key := formatExpr(e)
	for i, gk := range b.groupKeys {
		if key == gk {
			return &sqlparse.ColumnRef{Name: fmt.Sprintf("%s%d", groupPrefix, i)}, true
		}
	}
	if fc, ok := e.(*sqlparse.FuncCall); ok && fc.IsAggregate() {
		return b.rewriteAggregate(fc, key)
	}
	switch n := e.(type) {
	case *sqlparse.Literal:
		return n, true
	case *sqlparse.ColumnRef:
		// References the representative row of a group — semantics a sharded
		// execution cannot reproduce deterministically; decline.
		return nil, false
	case *sqlparse.BinaryExpr:
		l, ok := b.rewrite(n.Left)
		if !ok {
			return nil, false
		}
		rr, ok := b.rewrite(n.Right)
		if !ok {
			return nil, false
		}
		return &sqlparse.BinaryExpr{Op: n.Op, Left: l, Right: rr}, true
	case *sqlparse.UnaryExpr:
		op, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		return &sqlparse.UnaryExpr{Op: n.Op, Operand: op}, true
	case *sqlparse.FuncCall:
		args := make([]sqlparse.Expr, len(n.Args))
		for i, a := range n.Args {
			ra, ok := b.rewrite(a)
			if !ok {
				return nil, false
			}
			args[i] = ra
		}
		return &sqlparse.FuncCall{Name: n.Name, Args: args, Star: n.Star, Distinct: n.Distinct}, true
	case *sqlparse.CaseExpr:
		operand, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		whens := make([]sqlparse.WhenClause, len(n.Whens))
		for i, w := range n.Whens {
			c, ok := b.rewrite(w.Cond)
			if !ok {
				return nil, false
			}
			res, ok := b.rewrite(w.Result)
			if !ok {
				return nil, false
			}
			whens[i] = sqlparse.WhenClause{Cond: c, Result: res}
		}
		els, ok := b.rewrite(n.Else)
		if !ok {
			return nil, false
		}
		return &sqlparse.CaseExpr{Operand: operand, Whens: whens, Else: els}, true
	case *sqlparse.IsNullExpr:
		op, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		return &sqlparse.IsNullExpr{Operand: op, Negate: n.Negate}, true
	case *sqlparse.InExpr:
		op, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		list := make([]sqlparse.Expr, len(n.List))
		for i, v := range n.List {
			rv, ok := b.rewrite(v)
			if !ok {
				return nil, false
			}
			list[i] = rv
		}
		return &sqlparse.InExpr{Operand: op, List: list, Negate: n.Negate}, true
	case *sqlparse.BetweenExpr:
		op, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		lo, ok := b.rewrite(n.Low)
		if !ok {
			return nil, false
		}
		hi, ok := b.rewrite(n.High)
		if !ok {
			return nil, false
		}
		return &sqlparse.BetweenExpr{Operand: op, Low: lo, High: hi, Negate: n.Negate}, true
	case *sqlparse.LikeExpr:
		op, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		pat, ok := b.rewrite(n.Pattern)
		if !ok {
			return nil, false
		}
		return &sqlparse.LikeExpr{Operand: op, Pattern: pat, Negate: n.Negate}, true
	case *sqlparse.CastExpr:
		op, ok := b.rewrite(n.Operand)
		if !ok {
			return nil, false
		}
		return &sqlparse.CastExpr{Operand: op, To: n.To}, true
	default:
		return nil, false
	}
}

// rewriteAggregate turns one aggregate call into an expression over its
// merged partial columns, registering the partials and how they merge:
//
//	COUNT(x)/COUNT(*) -> __Ak, merged by SUM   (SUM of ints stays integral)
//	SUM(x)            -> __Ak, merged by SUM
//	MIN(x)/MAX(x)     -> __Ak, merged by MIN/MAX
//	AVG(x)            -> CAST(__AkS AS DOUBLE) / __AkC, both merged by SUM
//
// The AVG division yields NULL for all-NULL groups because the merged SUM of
// NULL partial sums is NULL, matching single-node AVG semantics; the CAST
// keeps the result DOUBLE like the single-node accumulator.
func (b *twoPhaseBuilder) rewriteAggregate(fc *sqlparse.FuncCall, key string) (sqlparse.Expr, bool) {
	if fc.Distinct {
		return nil, false
	}
	name := strings.ToUpper(fc.Name)
	switch name {
	case "COUNT", "SUM", "MIN", "MAX":
		aliases, ok := b.partials[key]
		if !ok {
			merge := "SUM"
			if name == "MIN" || name == "MAX" {
				merge = name
			}
			aliases = []string{b.addPartial("", copyAggregate(fc), merge)}
			b.partials[key] = aliases
		}
		return &sqlparse.ColumnRef{Name: aliases[0]}, true
	case "AVG":
		aliases, ok := b.partials[key]
		if !ok {
			sum := b.addPartial("S", &sqlparse.FuncCall{Name: "SUM", Args: append([]sqlparse.Expr(nil), fc.Args...)}, "SUM")
			cnt := b.addPartial("C", &sqlparse.FuncCall{Name: "COUNT", Args: append([]sqlparse.Expr(nil), fc.Args...)}, "SUM")
			aliases = []string{sum, cnt}
			b.partials[key] = aliases
		}
		return &sqlparse.BinaryExpr{
			Op:    sqlparse.OpDiv,
			Left:  &sqlparse.CastExpr{Operand: &sqlparse.ColumnRef{Name: aliases[0]}, To: types.KindFloat},
			Right: &sqlparse.ColumnRef{Name: aliases[1]},
		}, true
	default:
		// STDDEV/VARIANCE need sum-of-squares partials; the scatter-gather
		// fallback computes them exactly instead.
		return nil, false
	}
}

// addPartial appends one partial-aggregate column to the shard statement and
// records the aggregate that merges it; it returns the column's alias.
func (b *twoPhaseBuilder) addPartial(suffix string, call *sqlparse.FuncCall, merge string) string {
	alias := fmt.Sprintf("%s%d%s", partialPrefix, len(b.shardItems), suffix)
	b.shardItems = append(b.shardItems, sqlparse.SelectItem{Expr: call, Alias: alias})
	b.mergeFns = append(b.mergeFns, merge)
	return alias
}

// rewriteOrderExpr rewrites an ORDER BY expression. Besides the regular
// rewrite it admits two forms the final statement resolves against the
// projected output: ordinal positions (ORDER BY 2) and bare references to a
// select-item alias.
func (b *twoPhaseBuilder) rewriteOrderExpr(e sqlparse.Expr, finalItems []sqlparse.SelectItem) (sqlparse.Expr, bool) {
	if lit, ok := e.(*sqlparse.Literal); ok && lit.Val.Kind == types.KindInt {
		return e, true
	}
	if re, ok := b.rewrite(e); ok {
		return re, true
	}
	if ref, ok := e.(*sqlparse.ColumnRef); ok && ref.Table == "" {
		name := types.NormalizeName(ref.Name)
		for _, item := range finalItems {
			if types.NormalizeName(item.Alias) == name {
				return e, true
			}
		}
	}
	return nil, false
}

// copyAggregate clones an aggregate call node so the shard statement owns a
// distinct pointer (the aggregation executor identifies calls by identity).
func copyAggregate(fc *sqlparse.FuncCall) *sqlparse.FuncCall {
	return &sqlparse.FuncCall{
		Name:     fc.Name,
		Args:     append([]sqlparse.Expr(nil), fc.Args...),
		Star:     fc.Star,
		Distinct: fc.Distinct,
	}
}

// mergeSpec describes the shard statement's output for the merge: its first
// groups columns are the grouping keys, and each following column is a
// partial aggregate folded by fns[i] (SUM, MIN or MAX).
type mergeSpec struct {
	groups int
	fns    []string
}

// mergePartials folds the members' partial relations into one row per group,
// in one pass over the partial rows. Groups are keyed by
// types.Value.AppendGroupKey over the grouping columns — the key relalg's
// GROUP BY uses — and come out in first-occurrence order across the
// partials, taken in member order; a group's key values are those of its
// first partial row. Every partial column folds through expr.AggState.Add, so
// NULL handling and SUM's Int/Float result rule are the single-node
// accumulator's. A global aggregate over no partial rows still yields one
// row. The merged relation keeps the partials' columns.
func mergePartials(parts []*relalg.Relation, spec mergeSpec) (*relalg.Relation, error) {
	ng, na := spec.groups, len(spec.fns)
	tmpl := make([]expr.AggState, na)
	for i, fn := range spec.fns {
		st, err := expr.NewAggState(&sqlparse.FuncCall{Name: fn})
		if err != nil {
			return nil, err
		}
		tmpl[i] = *st
	}
	total := 0
	for _, p := range parts {
		total += len(p.Rows)
	}
	index := make(map[string]int, total)
	firsts := make([]types.Row, 0, total) // each group's first partial row
	accs := make([]expr.AggState, 0, total*na)
	var key []byte
	for _, p := range parts {
		for _, row := range p.Rows {
			key = key[:0]
			for _, v := range row[:ng] {
				key = append(v.AppendGroupKey(key), 0x1f)
			}
			g, ok := index[string(key)]
			if !ok {
				g = len(firsts)
				index[string(key)] = g
				firsts = append(firsts, row)
				accs = append(accs, tmpl...)
			}
			for i, a := range row[ng:] {
				if err := accs[g*na+i].Add(a); err != nil {
					return nil, err
				}
			}
		}
	}
	if ng == 0 && len(firsts) == 0 {
		firsts = append(firsts, nil)
		accs = append(accs, tmpl...)
	}

	width := ng + na
	slab := make([]types.Value, len(firsts)*width)
	out := &relalg.Relation{Cols: parts[0].Cols, Rows: make([]types.Row, len(firsts))}
	for g, first := range firsts {
		row := types.Row(slab[g*width : (g+1)*width : (g+1)*width])
		copy(row, first[:ng])
		for i := range na {
			row[ng+i] = accs[g*na+i].Result()
		}
		out.Rows[g] = row
	}
	return out, nil
}
