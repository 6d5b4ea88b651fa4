package relalg

import (
	"fmt"

	"idaax/internal/expr"
	"idaax/internal/par"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// JoinMethod selects the physical join algorithm. The planner picks a method
// from cost estimates; MethodAuto keeps the historical heuristic (hash when
// equality keys can be extracted from the ON condition).
type JoinMethod int

const (
	// MethodAuto lets the executor choose: hash join when equi-keys exist,
	// nested loop otherwise.
	MethodAuto JoinMethod = iota
	// MethodHash forces a hash join (falls back to nested loop when no
	// equality keys can be extracted).
	MethodHash
	// MethodNestedLoop forces a nested-loop join.
	MethodNestedLoop
)

// String returns the EXPLAIN spelling of the method.
func (m JoinMethod) String() string {
	switch m {
	case MethodHash:
		return "HASH JOIN"
	case MethodNestedLoop:
		return "NESTED LOOP"
	default:
		return "AUTO"
	}
}

// Join combines two relations. Inner equi-joins use a hash join on the
// equality columns extracted from the ON condition (with the probe phase
// parallelised across `workers` goroutines, mirroring the accelerator's
// slices); everything else falls back to a nested-loop join. LEFT joins emit
// NULL-padded right sides for unmatched left rows. Cross joins have a nil
// condition.
//
// NULL join keys never match in either algorithm: the hash path skips NULL
// keys on both the build and probe side, and the nested-loop path relies on
// SQL comparison semantics (NULL = x evaluates to NULL, collapsed to false).
func Join(left, right *Relation, jt sqlparse.JoinType, on sqlparse.Expr, workers int) (*Relation, error) {
	return JoinWith(left, right, jt, on, MethodAuto, workers)
}

// JoinWith is Join with an explicit method choice.
func JoinWith(left, right *Relation, jt sqlparse.JoinType, on sqlparse.Expr, method JoinMethod, workers int) (*Relation, error) {
	combinedCols := append(append([]expr.InputColumn(nil), left.Cols...), right.Cols...)
	out := &Relation{Cols: combinedCols}

	if on != nil && method != MethodNestedLoop {
		leftIdx, rightIdx := extractEquiKeys(on, left, right)
		if len(leftIdx) > 0 && (jt == sqlparse.JoinInner || jt == sqlparse.JoinLeft) {
			return hashJoin(left, right, jt, on, leftIdx, rightIdx, out, workers)
		}
	}
	return nestedLoopJoin(left, right, jt, on, out, workers)
}

// extractEquiKeys pulls column-equality pairs "l.col = r.col" out of a
// conjunction; the other conjuncts are re-checked per candidate pair.
func extractEquiKeys(on sqlparse.Expr, left, right *Relation) (leftIdx, rightIdx []int) {
	lenv := expr.NewEnv(left.Cols)
	renv := expr.NewEnv(right.Cols)
	for _, c := range sqlparse.Conjuncts(on) {
		lref, rref, ok := sqlparse.ColumnEquality(c)
		if !ok {
			continue
		}
		// Try left-side/right-side assignment in both orientations.
		if li, err := lenv.Resolve(lref); err == nil {
			if ri, err2 := renv.Resolve(rref); err2 == nil {
				leftIdx = append(leftIdx, li)
				rightIdx = append(rightIdx, ri)
				continue
			}
		}
		if li, err := lenv.Resolve(rref); err == nil {
			if ri, err2 := renv.Resolve(lref); err2 == nil {
				leftIdx = append(leftIdx, li)
				rightIdx = append(rightIdx, ri)
			}
		}
	}
	return leftIdx, rightIdx
}

func hashJoin(left, right *Relation, jt sqlparse.JoinType, on sqlparse.Expr, leftIdx, rightIdx []int, out *Relation, workers int) (*Relation, error) {
	// Build side: right relation hashed on its key columns.
	build := make(map[string][]int, len(right.Rows))
	for ri, row := range right.Rows {
		key, ok := joinKey(row, rightIdx)
		if !ok {
			continue // NULL keys never match
		}
		build[key] = append(build[key], ri)
	}
	nullRight := make(types.Row, len(right.Cols))
	for i := range nullRight {
		nullRight[i] = types.Null()
	}

	probe := func(env *expr.Env, lrows []types.Row) ([]types.Row, error) {
		var rows []types.Row
		for _, lrow := range lrows {
			key, ok := joinKey(lrow, leftIdx)
			matched := false
			if ok {
				for _, ri := range build[key] {
					combined := append(append(make(types.Row, 0, len(out.Cols)), lrow...), right.Rows[ri]...)
					pass, err := env.EvalBool(on, combined)
					if err != nil {
						return nil, err
					}
					if pass {
						matched = true
						rows = append(rows, combined)
					}
				}
			}
			if !matched && jt == sqlparse.JoinLeft {
				combined := append(append(make(types.Row, 0, len(out.Cols)), lrow...), nullRight...)
				rows = append(rows, combined)
			}
		}
		return rows, nil
	}

	if len(left.Rows) < 4096 {
		workers = 1
	}
	rows, err := parallelOverLeft(left.Rows, workers, out.Cols, probe)
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// parallelOverLeft splits the left rows into one contiguous chunk per worker
// and probes each with a worker-private expression environment (environments
// carry per-query override maps and must not be shared across goroutines).
// The chunks' rows are concatenated in chunk order so the output row order
// matches a serial run; one worker probes inline.
func parallelOverLeft(lrows []types.Row, workers int, cols []expr.InputColumn, probe func(env *expr.Env, lrows []types.Row) ([]types.Row, error)) ([]types.Row, error) {
	results := make([][]types.Row, max(1, min(workers, len(lrows))))
	err := par.Ranges(len(lrows), workers, func(w, lo, hi int) (err error) {
		results[w], err = probe(expr.NewEnv(cols), lrows[lo:hi])
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := results[0]
	for _, part := range results[1:] {
		rows = append(rows, part...)
	}
	return rows, nil
}

func joinKey(row types.Row, idx []int) (string, bool) {
	key := ""
	for _, i := range idx {
		if row[i].IsNull() {
			return "", false
		}
		key += row[i].GroupKey() + "\x1f"
	}
	return key, true
}

// nestedLoopJoin evaluates the condition for every row pair. Each worker
// reuses one expression environment and one scratch row for the whole chunk
// (the combined row is only cloned when the pair actually joins), and the
// probe side is parallelised like the hash join's when the pair count is
// large enough to amortise the goroutines.
func nestedLoopJoin(left, right *Relation, jt sqlparse.JoinType, on sqlparse.Expr, out *Relation, workers int) (*Relation, error) {
	nullRight := make(types.Row, len(right.Cols))
	for i := range nullRight {
		nullRight[i] = types.Null()
	}
	lw := len(left.Cols)

	probe := func(env *expr.Env, lrows []types.Row) ([]types.Row, error) {
		var rows []types.Row
		scratch := make(types.Row, len(out.Cols))
		for _, lrow := range lrows {
			matched := false
			copy(scratch, lrow)
			for _, rrow := range right.Rows {
				copy(scratch[lw:], rrow)
				if on != nil {
					pass, err := env.EvalBool(on, scratch)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				matched = true
				rows = append(rows, append(types.Row(nil), scratch...))
			}
			if !matched && jt == sqlparse.JoinLeft {
				copy(scratch[lw:], nullRight)
				rows = append(rows, append(types.Row(nil), scratch...))
			}
		}
		return rows, nil
	}

	if len(left.Rows)*len(right.Rows) < 1<<14 {
		workers = 1
	}
	rows, err := parallelOverLeft(left.Rows, workers, out.Cols, probe)
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// JoinAll folds a FROM clause's relations left to right using each item's join
// type and ON condition. rels[i] corresponds to from[i]. workers controls the
// hash-join probe parallelism (1 for the DB2 row engine, the slice count for
// the accelerator).
func JoinAll(rels []*Relation, from []sqlparse.FromItem, workers int) (*Relation, error) {
	return JoinAllPlanned(rels, from, nil, workers)
}

// JoinAllPlanned is JoinAll with per-step method choices from the planner.
// methods[i-1] applies to the join adding from[i]; nil (or a short slice)
// means MethodAuto for the remaining steps.
func JoinAllPlanned(rels []*Relation, from []sqlparse.FromItem, methods []JoinMethod, workers int) (*Relation, error) {
	if len(rels) == 0 {
		// SELECT without FROM: a single empty row so scalar expressions work.
		return &Relation{Rows: []types.Row{{}}}, nil
	}
	if len(rels) != len(from) {
		return nil, fmt.Errorf("relalg: %d relations for %d FROM items", len(rels), len(from))
	}
	acc := rels[0]
	for i := 1; i < len(rels); i++ {
		jt := from[i].Join
		if jt == sqlparse.JoinNone {
			jt = sqlparse.JoinCross
		}
		method := MethodAuto
		if i-1 < len(methods) {
			method = methods[i-1]
		}
		joined, err := JoinWith(acc, rels[i], jt, from[i].On, method, workers)
		if err != nil {
			return nil, err
		}
		acc = joined
	}
	return acc, nil
}
