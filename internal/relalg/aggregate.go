package relalg

import (
	"idaax/internal/expr"
	"idaax/internal/par"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// groupState accumulates one GROUP BY group.
type groupState struct {
	repRow types.Row // representative input row (first of the group)
	aggs   []*expr.AggState
}

// aggregateAndProject executes the grouped-aggregation path of a SELECT:
// grouping, aggregate evaluation (optionally with per-chunk partial aggregates
// merged across worker slices), HAVING, projection and ORDER BY key
// computation.
func aggregateAndProject(rel *Relation, sel *sqlparse.SelectStmt, opts Options) (*Relation, [][]types.Value, error) {
	env := expr.NewEnv(rel.Cols)

	// Collect the aggregate calls appearing anywhere in the statement. They
	// are identified by node pointer so the same call object found during
	// evaluation maps onto its accumulated value.
	var aggCalls []*sqlparse.FuncCall
	collect := func(e sqlparse.Expr) {
		sqlparse.WalkExprs(e, func(n sqlparse.Expr) {
			if fc, ok := n.(*sqlparse.FuncCall); ok && fc.IsAggregate() {
				aggCalls = append(aggCalls, fc)
			}
		})
	}
	for _, item := range sel.Items {
		collect(item.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}

	hasDistinctAgg := false
	for _, fc := range aggCalls {
		if fc.Distinct {
			hasDistinctAgg = true
		}
	}

	workers := opts.workers()
	var groups map[string]*groupState
	var order []string
	var err error
	if workers > 1 && !hasDistinctAgg && len(rel.Rows) > 1024 {
		groups, order, err = buildGroupsParallel(rel, sel, env, aggCalls, workers)
	} else {
		groups, order, err = buildGroups(rel.Rows, sel, env, aggCalls)
	}
	if err != nil {
		return nil, nil, err
	}

	// A global aggregate over zero rows still yields one output row.
	if len(sel.GroupBy) == 0 && len(groups) == 0 {
		st, err := newGroupState(nil, aggCalls)
		if err != nil {
			return nil, nil, err
		}
		groups = map[string]*groupState{"": st}
		order = []string{""}
	}

	out := &Relation{Cols: outputColumns(sel.Items, rel, env)}
	var sortKeys [][]types.Value
	var sorter *sortKeyPlan
	if len(sel.OrderBy) > 0 {
		sorter = newSortKeyPlan(sel.OrderBy, out.Cols)
	}

	// One overrides map serves every group: each group rebinds the same
	// aggregate calls to its own results.
	env.Overrides = make(map[sqlparse.Expr]types.Value, len(aggCalls))
	defer func() { env.Overrides = nil }()
	for _, key := range order {
		g := groups[key]
		for i, fc := range aggCalls {
			env.Overrides[fc] = g.aggs[i].Result()
		}

		rep := g.repRow
		if rep == nil {
			rep = make(types.Row, len(rel.Cols))
			for i := range rep {
				rep[i] = types.Null()
			}
		}
		if sel.Having != nil {
			ok, err := env.EvalBool(sel.Having, rep)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		projected, err := projectRow(sel.Items, rel, env, rep)
		if err != nil {
			return nil, nil, err
		}
		out.Rows = append(out.Rows, projected)
		if sorter != nil {
			sk := make([]types.Value, len(sel.OrderBy))
			if err := sorter.eval(sk, env, rep, projected); err != nil {
				return nil, nil, err
			}
			sortKeys = append(sortKeys, sk)
		}
	}
	return out, sortKeys, nil
}

func newGroupState(repRow types.Row, aggCalls []*sqlparse.FuncCall) (*groupState, error) {
	st := &groupState{repRow: repRow, aggs: make([]*expr.AggState, len(aggCalls))}
	for i, fc := range aggCalls {
		a, err := expr.NewAggState(fc)
		if err != nil {
			return nil, err
		}
		st.aggs[i] = a
	}
	return st, nil
}

// appendGroupKey renders the row's GROUP BY key into buf (reset first). The
// buffer is reused across rows by buildGroups — string concatenation here was
// an allocation hot spot on high-cardinality GROUP BY; the key is only copied
// to a string when a new group is first seen.
func appendGroupKey(buf []byte, env *expr.Env, groupBy []sqlparse.Expr, row types.Row) ([]byte, error) {
	buf = buf[:0]
	for _, g := range groupBy {
		v, err := env.Eval(g, row)
		if err != nil {
			return buf, err
		}
		buf = v.AppendGroupKey(buf)
		buf = append(buf, 0x1f)
	}
	return buf, nil
}

func accumulate(st *groupState, env *expr.Env, aggCalls []*sqlparse.FuncCall, row types.Row) error {
	for i, fc := range aggCalls {
		if fc.Star {
			st.aggs[i].AddStar()
			continue
		}
		if len(fc.Args) == 0 {
			st.aggs[i].AddStar()
			continue
		}
		v, err := env.Eval(fc.Args[0], row)
		if err != nil {
			return err
		}
		if err := st.aggs[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

func buildGroups(rows []types.Row, sel *sqlparse.SelectStmt, env *expr.Env, aggCalls []*sqlparse.FuncCall) (map[string]*groupState, []string, error) {
	groups := make(map[string]*groupState)
	var order []string
	var keyBuf []byte
	for _, row := range rows {
		var err error
		keyBuf, err = appendGroupKey(keyBuf, env, sel.GroupBy, row)
		if err != nil {
			return nil, nil, err
		}
		st, ok := groups[string(keyBuf)]
		if !ok {
			st, err = newGroupState(row, aggCalls)
			if err != nil {
				return nil, nil, err
			}
			key := string(keyBuf)
			groups[key] = st
			order = append(order, key)
		}
		if err := accumulate(st, env, aggCalls, row); err != nil {
			return nil, nil, err
		}
	}
	return groups, order, nil
}

// buildGroupsParallel partitions the input rows across workers, builds partial
// groups per worker with fresh aggregate accumulators, then merges the partial
// states. This mirrors how the accelerator's slices compute partial aggregates
// that the coordinator combines.
func buildGroupsParallel(rel *Relation, sel *sqlparse.SelectStmt, env *expr.Env, aggCalls []*sqlparse.FuncCall, workers int) (map[string]*groupState, []string, error) {
	partials := make([]map[string]*groupState, workers)
	partialOrders := make([][]string, workers)
	err := par.Ranges(len(rel.Rows), workers, func(w, lo, hi int) (err error) {
		partials[w], partialOrders[w], err = buildGroups(rel.Rows[lo:hi], sel, expr.NewEnv(rel.Cols), aggCalls)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	merged := make(map[string]*groupState)
	var order []string
	for w := 0; w < workers; w++ {
		for _, key := range partialOrders[w] {
			part := partials[w][key]
			dst, ok := merged[key]
			if !ok {
				merged[key] = part
				order = append(order, key)
				continue
			}
			for i := range dst.aggs {
				if err := dst.aggs[i].Merge(part.aggs[i]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return merged, order, nil
}
