package sqlparse

import "idaax/internal/types"

// The recognizers below are the one place that decides what a WHERE or ON
// conjunct is. The planner (selectivity, shard candidates, join edges), the
// vectorized engine (scan and join plans), the accelerator's row-path scan
// pushdown and the row engine's hash join all read conjuncts through them;
// each consumer keeps only its own column resolution and its own rule for
// NULL literals and exactness.

// Conjuncts flattens the top-level AND tree of e into its conjuncts, left to
// right. It returns nil for a nil expression.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	return appendConjuncts(make([]Expr, 0, countConjuncts(e)), e)
}

func countConjuncts(e Expr) int {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return countConjuncts(b.Left) + countConjuncts(b.Right)
	}
	return 1
}

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return appendConjuncts(appendConjuncts(dst, b.Left), b.Right)
	}
	return append(dst, e)
}

// AndAll rebuilds a left-deep AND tree from conjuncts (nil when empty);
// Conjuncts(AndAll(cs)) returns cs.
func AndAll(conjs []Expr) Expr {
	var out Expr
	for _, c := range conjs {
		if out == nil {
			out = c
			continue
		}
		out = &BinaryExpr{Op: OpAnd, Left: out, Right: c}
	}
	return out
}

// ColumnEquality recognizes the join edge "a.col = b.col": an equality
// between two column references, in written order.
func ColumnEquality(e Expr) (left, right *ColumnRef, ok bool) {
	b, isBin := e.(*BinaryExpr)
	if !isBin || b.Op != OpEq {
		return nil, nil, false
	}
	left, lok := b.Left.(*ColumnRef)
	right, rok := b.Right.(*ColumnRef)
	return left, right, lok && rok
}

// SargKind is the shape of a sargable conjunct.
type SargKind uint8

const (
	// SargCompare is "col <op> literal" with a comparison operator.
	SargCompare SargKind = iota + 1
	// SargBetween is "col [NOT] BETWEEN literal AND literal".
	SargBetween
	// SargIn is "col [NOT] IN (literal, ...)".
	SargIn
	// SargIsNull is "col IS [NOT] NULL".
	SargIsNull
)

// Sarg is a conjunct normalized to one column and literals — the shapes a
// zone map, a selectivity estimate or a shard placement can use.
type Sarg struct {
	Kind SargKind
	Col  *ColumnRef
	// Op is the comparison of SargCompare with the column on the left:
	// "5 < x" is recognized as "x > 5".
	Op BinOp
	// Lo is the literal of SargCompare and the low bound of SargBetween; Hi
	// is the high bound of SargBetween. Either may be NULL: whether a NULL
	// literal matches nothing, or only leaves the conjunct unpushed, is the
	// consumer's rule.
	Lo, Hi types.Value
	// Negate marks NOT BETWEEN, NOT IN and IS NOT NULL.
	Negate bool
	// list is the IN list, every element a *Literal; read through Len and
	// Value so recognizing a conjunct copies nothing.
	list []Expr
}

// Len is the length of a SargIn list.
func (s *Sarg) Len() int { return len(s.list) }

// Value is the i-th literal of a SargIn list (possibly NULL).
func (s *Sarg) Value(i int) types.Value { return s.list[i].(*Literal).Val }

// Sargable recognizes a comparison between a column and a literal (either
// way round), BETWEEN with literal bounds, an IN list of literals, and
// IS [NOT] NULL on a column. It reports false for every other conjunct.
func Sargable(e Expr) (Sarg, bool) {
	switch n := e.(type) {
	case *BinaryExpr:
		flipped, ok := flipComparison(n.Op)
		if !ok {
			break
		}
		if ref, isRef := n.Left.(*ColumnRef); isRef {
			if lit, isLit := n.Right.(*Literal); isLit {
				return Sarg{Kind: SargCompare, Col: ref, Op: n.Op, Lo: lit.Val}, true
			}
		}
		if ref, isRef := n.Right.(*ColumnRef); isRef {
			if lit, isLit := n.Left.(*Literal); isLit {
				return Sarg{Kind: SargCompare, Col: ref, Op: flipped, Lo: lit.Val}, true
			}
		}
	case *BetweenExpr:
		ref, isRef := n.Operand.(*ColumnRef)
		lo, okLo := n.Low.(*Literal)
		hi, okHi := n.High.(*Literal)
		if isRef && okLo && okHi {
			return Sarg{Kind: SargBetween, Col: ref, Lo: lo.Val, Hi: hi.Val, Negate: n.Negate}, true
		}
	case *InExpr:
		ref, isRef := n.Operand.(*ColumnRef)
		if !isRef {
			break
		}
		for _, v := range n.List {
			if _, isLit := v.(*Literal); !isLit {
				return Sarg{}, false
			}
		}
		return Sarg{Kind: SargIn, Col: ref, Negate: n.Negate, list: n.List}, true
	case *IsNullExpr:
		if ref, isRef := n.Operand.(*ColumnRef); isRef {
			return Sarg{Kind: SargIsNull, Col: ref, Negate: n.Negate}, true
		}
	}
	return Sarg{}, false
}

// flipComparison mirrors a comparison operator for "literal <op> col"; ok is
// false for operators that are not comparisons.
func flipComparison(op BinOp) (BinOp, bool) {
	switch op {
	case OpEq, OpNe:
		return op, true
	case OpLt:
		return OpGt, true
	case OpLe:
		return OpGe, true
	case OpGt:
		return OpLt, true
	case OpGe:
		return OpLe, true
	default:
		return op, false
	}
}
