package planner

import (
	"math"
	"sort"
	"strings"

	"idaax/internal/sqlparse"
	"idaax/internal/stats"
	"idaax/internal/types"
)

// analysis is the decomposed view of a statement the planning passes share.
type analysis struct {
	sel   *sqlparse.SelectStmt
	scans []*ScanNode // in original FROM order

	// innerOnly is true when every join is INNER/CROSS (or the implicit comma
	// cross product) — the precondition for reordering and shard-local plans.
	innerOnly bool
	// ownersKnown is true when every column reference in the ON conditions
	// and WHERE clause resolves to exactly one FROM item.
	ownersKnown bool
	// bareStar is true when the select list contains an unqualified `*`,
	// whose output column order depends on the FROM order (blocks reordering).
	bareStar bool

	// onConjuncts are the flattened conjuncts of every ON condition, each with
	// its owner mask; joinConjuncts additionally holds copies of WHERE
	// conjuncts that connect two items with an equality (hoisted into ON so
	// comma-joins hash instead of building cross products).
	onConjuncts []ownedExpr
	// equiEdges are the column-equality edges of the join graph, from both ON
	// and WHERE.
	equiEdges []equiEdge
	// crossConjuncts counts non-equality multi-item conjuncts per item pair,
	// used only for selectivity.
	crossConjuncts []ownedExpr
}

type ownedExpr struct {
	e       sqlparse.Expr
	mask    uint64 // bit per FROM item referenced
	unknown bool   // a reference did not resolve
}

// equiEdge is one "items[a].acol = items[b].bcol" equality.
type equiEdge struct {
	a, b       int
	acol, bcol string
}

func analyze(sel *sqlparse.SelectStmt, cat Catalog) *analysis {
	a := &analysis{sel: sel, innerOnly: true, ownersKnown: true}
	for _, item := range sel.Items {
		if item.Star && item.StarTable == "" {
			a.bareStar = true
		}
	}
	for i, item := range sel.From {
		scan := &ScanNode{Item: item}
		if item.Subquery == nil {
			if info, ok := cat(item.Table); ok {
				scan.Info = info
				scan.Known = true
			}
		}
		scan.Selectivity = 1
		a.scans = append(a.scans, scan)
		if i > 0 {
			switch item.Join {
			case sqlparse.JoinInner, sqlparse.JoinCross, sqlparse.JoinNone:
			default:
				a.innerOnly = false
			}
		}
		if !scan.Known {
			a.ownersKnown = false
		}
	}

	// Classify the ON conjuncts and the WHERE conjuncts.
	for i, item := range sel.From {
		if i == 0 || item.On == nil {
			continue
		}
		for _, c := range sqlparse.Conjuncts(item.On) {
			oc := a.owned(c)
			a.onConjuncts = append(a.onConjuncts, oc)
			a.recordEdge(oc)
		}
	}
	for _, c := range sqlparse.Conjuncts(sel.Where) {
		oc := a.owned(c)
		if oc.unknown {
			continue
		}
		if n := maskBits(oc.mask); n == 1 {
			idx := maskFirst(oc.mask)
			a.scans[idx].Conjuncts = append(a.scans[idx].Conjuncts, c)
			continue
		} else if n >= 2 {
			if a.recordEdge(oc) {
				// Hoist the equality into the join graph; it will also be
				// placed into an ON condition by the statement rebuild (the
				// WHERE clause still re-applies it, harmlessly).
				a.onConjuncts = append(a.onConjuncts, oc)
			} else {
				a.crossConjuncts = append(a.crossConjuncts, oc)
			}
		}
	}

	// Scan estimates and distribution-key candidate sets.
	for _, scan := range a.scans {
		a.estimateScan(scan)
	}
	return a
}

// refOwner resolves a column reference to the FROM item that provides it,
// or -1 when unknown or ambiguous.
func (a *analysis) refOwner(ref *sqlparse.ColumnRef) int {
	if ref.Table != "" {
		for i, scan := range a.scans {
			if strings.EqualFold(ref.Table, scan.Item.Name()) {
				return i
			}
		}
		return -1
	}
	owner := -1
	name := types.NormalizeName(ref.Name)
	for i, scan := range a.scans {
		if !scan.Known {
			return -1 // cannot prove uniqueness against an opaque item
		}
		if scan.Info.Schema.IndexOf(name) >= 0 {
			if owner >= 0 {
				return -1 // ambiguous
			}
			owner = i
		}
	}
	return owner
}

func (a *analysis) owned(e sqlparse.Expr) ownedExpr {
	oc := ownedExpr{e: e}
	sqlparse.WalkExprs(e, func(n sqlparse.Expr) {
		if ref, ok := n.(*sqlparse.ColumnRef); ok {
			idx := a.refOwner(ref)
			if idx < 0 {
				oc.unknown = true
				return
			}
			oc.mask |= 1 << uint(idx)
		}
	})
	if oc.unknown {
		a.ownersKnown = false
	}
	return oc
}

// recordEdge registers "col_a = col_b" conjuncts connecting two items as join
// graph edges. It reports whether the conjunct was such an edge.
func (a *analysis) recordEdge(oc ownedExpr) bool {
	if oc.unknown {
		return false
	}
	lref, rref, ok := sqlparse.ColumnEquality(oc.e)
	if !ok {
		return false
	}
	li, ri := a.refOwner(lref), a.refOwner(rref)
	if li < 0 || ri < 0 || li == ri {
		return false
	}
	a.equiEdges = append(a.equiEdges, equiEdge{
		a: li, b: ri,
		acol: types.NormalizeName(lref.Name),
		bcol: types.NormalizeName(rref.Name),
	})
	return true
}

func maskBits(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

func maskFirst(m uint64) int {
	for i := 0; i < 64; i++ {
		if m&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Scan estimation: selectivity and distribution-key candidate shards
// ---------------------------------------------------------------------------

func (a *analysis) estimateScan(scan *ScanNode) {
	if !scan.Known {
		scan.BaseRows = defaultTableRows
		scan.EstRows = defaultTableRows
		return
	}
	scan.BaseRows = float64(scan.Info.Stats.Rows)
	if scan.Info.Stats.Rows == 0 && len(scan.Info.Stats.Cols) == 0 {
		scan.BaseRows = defaultTableRows
	}
	sel := 1.0
	for _, c := range scan.Conjuncts {
		sel *= a.conjunctSelectivity(c, scan)
	}
	scan.Selectivity = sel
	scan.EstRows = scan.BaseRows * sel
	a.keyCandidates(scan)
}

func (a *analysis) column(scan *ScanNode, name string) *stats.ColumnSnapshot {
	if !scan.Known {
		return nil
	}
	return scan.Info.Stats.Column(name)
}

// conjunctSelectivity estimates the fraction of the scan's rows satisfying a
// single-table predicate.
func (a *analysis) conjunctSelectivity(e sqlparse.Expr, scan *ScanNode) float64 {
	if s, ok := sqlparse.Sargable(e); ok {
		return a.sargSelectivity(&s, scan)
	}
	switch n := e.(type) {
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case sqlparse.OpAnd:
			return a.conjunctSelectivity(n.Left, scan) * a.conjunctSelectivity(n.Right, scan)
		case sqlparse.OpOr:
			l := a.conjunctSelectivity(n.Left, scan)
			r := a.conjunctSelectivity(n.Right, scan)
			return l + r - l*r
		}
	case *sqlparse.UnaryExpr:
		if n.Op == "NOT" {
			return 1 - a.conjunctSelectivity(n.Operand, scan)
		}
	case *sqlparse.LikeExpr:
		return 0.25
	}
	return stats.DefaultRangeSelectivity
}

// sargSelectivity estimates a sargable conjunct from its column's statistics.
// NULL literals go to the estimators as they are: "= NULL" and "IN (NULL)"
// match nothing.
func (a *analysis) sargSelectivity(s *sqlparse.Sarg, scan *ScanNode) float64 {
	col := a.column(scan, s.Col.Name)
	var sel float64
	switch s.Kind {
	case sqlparse.SargCompare:
		switch s.Op {
		case sqlparse.OpEq:
			return col.SelectivityEq(s.Lo)
		case sqlparse.OpNe:
			return 1 - col.SelectivityEq(s.Lo)
		case sqlparse.OpLt:
			return col.SelectivityRange(nil, &s.Lo, false, false)
		case sqlparse.OpLe:
			return col.SelectivityRange(nil, &s.Lo, false, true)
		case sqlparse.OpGt:
			return col.SelectivityRange(&s.Lo, nil, false, false)
		default: // OpGe
			return col.SelectivityRange(&s.Lo, nil, true, false)
		}
	case sqlparse.SargBetween:
		sel = col.SelectivityRange(&s.Lo, &s.Hi, true, true)
	case sqlparse.SargIn:
		sel = col.SelectivityIn(inValues(s))
	default: // SargIsNull
		if col == nil {
			return stats.DefaultRangeSelectivity
		}
		sel = col.NullFraction()
	}
	if s.Negate {
		return 1 - sel
	}
	return sel
}

// inValues copies a SargIn list's literals.
func inValues(s *sqlparse.Sarg) []types.Value {
	vals := make([]types.Value, s.Len())
	for i := range vals {
		vals[i] = s.Value(i)
	}
	return vals
}

// maxRangeEnumeration caps how many integer distribution-key values a bounded
// range predicate may enumerate for shard pruning.
const maxRangeEnumeration = 1024

// keyCandidates computes the set of shards that can hold rows matching the
// scan's distribution-key conjuncts: equality and IN-lists place each value
// with the table's partitioner, and bounded integer ranges (BETWEEN, or a <
// and > pair) enumerate the covered key values when the range is narrow.
// Candidates stays nil (= all shards) when no usable key predicate exists.
func (a *analysis) keyCandidates(scan *ScanNode) {
	info := scan.Info
	if !scan.Known || info.DistKey == "" || info.PlaceKey == nil || !info.Partitioned() {
		return
	}
	keyIdx := info.Schema.IndexOf(info.DistKey)
	if keyIdx < 0 {
		return
	}
	keyKind := info.Schema.Columns[keyIdx].Kind

	all := true
	candidates := map[int]bool{}
	merge := func(set map[int]bool) {
		if all {
			all = false
			for s := range set {
				candidates[s] = true
			}
			return
		}
		for s := range candidates {
			if !set[s] {
				delete(candidates, s)
			}
		}
	}
	// place maps key values to their owning shards. ok=false reports a
	// non-NULL value the backend refuses to place — a sharded router answers
	// that for keys whose rows are mid-migration — and then the conjunct must
	// not narrow the candidate set at all: the rows may transiently live on
	// any shard. (NULL values are merely skipped; = NULL and IN (NULL) match
	// nothing, so a NULL-only list still restricts to the empty set.)
	place := func(vals []types.Value) (map[int]bool, bool) {
		set := map[int]bool{}
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			s, ok := info.PlaceKey(v)
			if !ok {
				return nil, false
			}
			set[s] = true
		}
		return set, true
	}
	mergePlaced := func(vals []types.Value) {
		if set, ok := place(vals); ok {
			merge(set)
		}
	}

	var lo, hi *int64 // tightest integer bounds accumulated over conjuncts
	tightenLo := func(v int64) {
		if lo == nil || v > *lo {
			lo = &v
		}
	}
	tightenHi := func(v int64) {
		if hi == nil || v < *hi {
			hi = &v
		}
	}
	intBound := func(v types.Value) (int64, bool) {
		if keyKind != types.KindInt {
			return 0, false
		}
		if v.Kind != types.KindInt {
			return 0, false
		}
		return v.Int, true
	}

	for _, c := range scan.Conjuncts {
		sa, ok := sqlparse.Sargable(c)
		if !ok || sa.Negate || types.NormalizeName(sa.Col.Name) != info.DistKey {
			continue
		}
		switch sa.Kind {
		case sqlparse.SargCompare:
			switch sa.Op {
			case sqlparse.OpEq:
				mergePlaced([]types.Value{sa.Lo})
			case sqlparse.OpGe:
				if v, ok := intBound(sa.Lo); ok {
					tightenLo(v)
				}
			case sqlparse.OpGt:
				if v, ok := intBound(sa.Lo); ok {
					if v == math.MaxInt64 {
						merge(map[int]bool{}) // key > MaxInt64 matches nothing
					} else {
						tightenLo(v + 1)
					}
				}
			case sqlparse.OpLe:
				if v, ok := intBound(sa.Lo); ok {
					tightenHi(v)
				}
			case sqlparse.OpLt:
				if v, ok := intBound(sa.Lo); ok {
					if v == math.MinInt64 {
						merge(map[int]bool{}) // key < MinInt64 matches nothing
					} else {
						tightenHi(v - 1)
					}
				}
			}
		case sqlparse.SargIn:
			mergePlaced(inValues(&sa))
		case sqlparse.SargBetween:
			if lv, ok1 := intBound(sa.Lo); ok1 {
				if hv, ok2 := intBound(sa.Hi); ok2 {
					tightenLo(lv)
					tightenHi(hv)
				}
			}
		}
	}

	// A bounded, narrow integer range enumerates its key values. The gap is
	// computed in uint64 (two's complement subtraction is exact for any
	// lo <= hi pair) and the loop counts values instead of comparing against
	// hi, so bounds at the int64 extremes can neither overflow the width
	// into a false "empty" verdict nor wrap the loop variable forever.
	if lo != nil && hi != nil {
		if *lo > *hi {
			merge(map[int]bool{})
		} else if gap := uint64(*hi) - uint64(*lo); gap < maxRangeEnumeration {
			vals := make([]types.Value, 0, gap+1)
			v := *lo
			for i := uint64(0); i <= gap; i++ {
				vals = append(vals, types.NewInt(v))
				v++
			}
			mergePlaced(vals)
		}
	}

	if all {
		return
	}
	if len(candidates) == 0 {
		scan.EmptyCandidates = true
		scan.Candidates = []int{}
		scan.EstRows = 0
		return
	}
	if len(candidates) >= info.Shards {
		return // every shard is still a candidate
	}
	out := make([]int, 0, len(candidates))
	for s := range candidates {
		out = append(out, s)
	}
	sort.Ints(out)
	scan.Candidates = out
}

// intersectCandidates intersects two candidate sets with nil meaning "all".
func intersectCandidates(a, b []int) []int {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	set := map[int]bool{}
	for _, s := range b {
		set[s] = true
	}
	out := make([]int, 0, len(a))
	for _, s := range a {
		if set[s] {
			out = append(out, s)
		}
	}
	return out
}
