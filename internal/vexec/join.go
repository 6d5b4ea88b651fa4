package vexec

import (
	"math"

	"idaax/internal/colstore"
	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// Vectorized hash join: build and probe run over column batches straight from
// ScanBatches, with fixed-width binary join keys in reused buffers and late
// materialization — a combined types.Row exists only for rows that survive
// every vector filter and, in aggregate mode, not at all.
//
// The match relation replicates the row engine's hash join exactly. There a
// probe row matches a build row when (1) their GroupKey-encoded key strings
// are equal (the bucket pre-filter) and (2) the re-evaluated ON condition is
// true, which for the pure equi-conjunctions this engine accepts means
// types.Compare equality on every key pair. The binary key encoding below is
// equal on two rows precisely when both conditions hold, so one byte-string
// comparison replaces bucket walk plus row-at-a-time recheck:
//
//   - NULL keys never encode (a NULL never matches, exactly like the row
//     engine's joinKey bail-out);
//   - ints, timestamps and bools carry their GroupKey tag byte plus the
//     fixed-width value, so cross-kind pairs (tagged differently) never
//     match — just as their GroupKey buckets never collide;
//   - an integral float in int64 range encodes like the int of the same
//     value (the row engine buckets it by its decimal rendering and the
//     Compare recheck accepts the numeric cross-match); any other float
//     encodes as its bits with NaN canonicalized — bit-equality is exactly
//     the pairs the row engine's bucket+Compare combination accepts, since
//     types.Compare treats a NaN pair as equal;
//   - strings are length-prefixed, so multi-key concatenations cannot
//     collide; the row engine's \x1f-separated buckets can, but its Compare
//     recheck rejects exactly those collisions.
type JoinPlan struct {
	left  joinSide
	right joinSide
	jt    sqlparse.JoinType

	// cols is the combined output column space, left then right — the same
	// layout relalg.JoinWith produces.
	cols []expr.InputColumn

	// residual is the AND of the WHERE conjuncts that run row-at-a-time over
	// the combined row, in original order. Predicates pushed into the right
	// scan of a LEFT join stay here too: the push is a superset filter (it
	// can only turn matches into a NULL-padded row) and the re-application
	// rejects the padded row again, mirroring the row path's pushdown
	// contract.
	residual sqlparse.Expr

	agg *aggPlan
}

// joinSide is one input table of the join: its FROM item, schema, qualified
// columns, equi-key columns, and the scan-time filters pushed to it.
type joinSide struct {
	item       sqlparse.FromItem
	schema     types.Schema
	cols       []expr.InputColumn
	keys       []keyCol
	preds      []colstore.SimplePredicate
	nullChecks []nullCheck
}

// keyCol is one join-key column with its schema kind (the batch vector alone
// cannot distinguish int, timestamp and bool, but the key tag byte must).
type keyCol struct {
	idx  int
	kind types.Kind
}

// JoinStats separates the two scans of a join for tracing; Total sums them
// into the accelerator's counters.
type JoinStats struct {
	Build colstore.ScanStats
	Probe colstore.ScanStats
}

// Total combines both scans' statistics.
func (s JoinStats) Total() colstore.ScanStats {
	return colstore.ScanStats{
		VersionsConsidered: s.Build.VersionsConsidered + s.Probe.VersionsConsidered,
		BlocksPruned:       s.Build.BlocksPruned + s.Probe.BlocksPruned,
		RowsMaterialized:   s.Build.RowsMaterialized + s.Probe.RowsMaterialized,
		Batches:            s.Build.Batches + s.Probe.Batches,
	}
}

// PlanJoin analyzes a two-table statement for vectorized hash-join execution.
// ok is false when the shape is out of scope — anything but two plain tables,
// a join type other than INNER/LEFT, a forced nested loop, or an ON condition
// that is not a pure conjunction of one-column-per-side equalities — and the
// caller uses the row path. Like the row engine, a reference that resolves on
// both sides declines the plan: the row path raises the ambiguity error.
func PlanJoin(sel *sqlparse.SelectStmt, leftSchema, rightSchema types.Schema, method relalg.JoinMethod) (*JoinPlan, bool) {
	if sel == nil || len(sel.From) != 2 || sel.From[0].Subquery != nil || sel.From[1].Subquery != nil {
		return nil, false
	}
	jt := sel.From[1].Join
	if jt != sqlparse.JoinInner && jt != sqlparse.JoinLeft {
		return nil, false
	}
	if sel.From[1].On == nil || method == relalg.MethodNestedLoop {
		return nil, false
	}
	jp := &JoinPlan{
		left:  joinSide{item: sel.From[0], schema: leftSchema, cols: qualifiedColumns(sel.From[0].Name(), leftSchema)},
		right: joinSide{item: sel.From[1], schema: rightSchema, cols: qualifiedColumns(sel.From[1].Name(), rightSchema)},
		jt:    jt,
	}
	jp.cols = append(append([]expr.InputColumn(nil), jp.left.cols...), jp.right.cols...)
	if !jp.analyzeOn(sel.From[1].On) {
		return nil, false
	}
	jp.analyzeJoinWhere(sel.Where)
	jp.agg = analyzeAgg(sel, jp)
	return jp, true
}

// Aggregated reports whether grouping/aggregation runs inside the join probe
// (the result is then final and the caller must not re-run WHERE/GROUP BY).
func (jp *JoinPlan) Aggregated() bool { return jp.agg != nil }

// Mode names the execution mode for EXPLAIN and counters.
func (jp *JoinPlan) Mode() string {
	if jp.agg != nil {
		return ModeJoinAggregate
	}
	return ModeJoin
}

// analyzeOn accepts a pure conjunction of column equalities with exactly one
// column per side and records the key pairs.
func (jp *JoinPlan) analyzeOn(on sqlparse.Expr) bool {
	for _, conj := range andConjuncts(on, nil) {
		b, ok := conj.(*sqlparse.BinaryExpr)
		if !ok || b.Op != sqlparse.OpEq {
			return false
		}
		lref, lok := b.Left.(*sqlparse.ColumnRef)
		rref, rok := b.Right.(*sqlparse.ColumnRef)
		if !lok || !rok {
			return false
		}
		if !jp.addKeyPair(lref, rref) && !jp.addKeyPair(rref, lref) {
			return false
		}
	}
	return len(jp.left.keys) > 0
}

// addKeyPair records lref/rref as a left/right key pair when each reference
// resolves exclusively to its side.
func (jp *JoinPlan) addKeyPair(lref, rref *sqlparse.ColumnRef) bool {
	li := jp.left.resolve(lref)
	ri := jp.right.resolve(rref)
	if li < 0 || ri < 0 {
		return false
	}
	if jp.right.resolve(lref) >= 0 || jp.left.resolve(rref) >= 0 {
		return false
	}
	jp.left.keys = append(jp.left.keys, keyCol{idx: li, kind: jp.left.schema.Columns[li].Kind})
	jp.right.keys = append(jp.right.keys, keyCol{idx: ri, kind: jp.right.schema.Columns[ri].Kind})
	return true
}

func (s *joinSide) resolve(ref *sqlparse.ColumnRef) int {
	p := Plan{item: s.item, schema: s.schema}
	return p.resolve(ref)
}

// analyzeJoinWhere splits the WHERE clause into per-side scan filters and the
// residual row expression.
func (jp *JoinPlan) analyzeJoinWhere(where sqlparse.Expr) {
	if where == nil {
		return
	}
	var residual []sqlparse.Expr
	for _, conj := range andConjuncts(where, nil) {
		if jp.pushConjunct(conj) {
			continue
		}
		residual = append(residual, conj)
	}
	jp.residual = andAll(residual)
}

// pushConjunct pushes one WHERE conjunct into a side's scan. It returns true
// only when the push is exact (the conjunct need not re-run); a superset push
// (comparisons on the right side of a LEFT join, IN ranges) still appends
// scan predicates for zone-map pruning but returns false so the conjunct is
// re-applied as residual — the same contract as the row path's pushdown.
func (jp *JoinPlan) pushConjunct(e sqlparse.Expr) bool {
	switch n := e.(type) {
	case *sqlparse.BinaryExpr:
		ref, lit, op, ok := SimpleComparison(n)
		if !ok {
			return false
		}
		side, ci := jp.sideOf(ref)
		if side == nil {
			return false
		}
		side.preds = append(side.preds, colstore.NewSimplePredicate(ci, op, lit))
		return jp.exactSide(side)
	case *sqlparse.BetweenExpr:
		if n.Negate {
			return false
		}
		ref, ok := n.Operand.(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		lo, okLo := n.Low.(*sqlparse.Literal)
		hi, okHi := n.High.(*sqlparse.Literal)
		if !okLo || !okHi || lo.Val.IsNull() || hi.Val.IsNull() {
			return false
		}
		side, ci := jp.sideOf(ref)
		if side == nil {
			return false
		}
		side.preds = append(side.preds,
			colstore.NewSimplePredicate(ci, colstore.CmpGe, lo.Val),
			colstore.NewSimplePredicate(ci, colstore.CmpLe, hi.Val))
		return jp.exactSide(side)
	case *sqlparse.IsNullExpr:
		ref, ok := n.Operand.(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		side, ci := jp.sideOf(ref)
		if side == nil || !jp.exactSide(side) {
			// IS NULL accepts NULL rows, so a push into the padded side of a
			// LEFT join would not be a superset filter; keep it residual.
			return false
		}
		side.nullChecks = append(side.nullChecks, nullCheck{colIdx: ci, wantNull: !n.Negate})
		return true
	case *sqlparse.InExpr:
		if n.Negate || len(n.List) == 0 {
			return false
		}
		ref, ok := n.Operand.(*sqlparse.ColumnRef)
		if !ok {
			return false
		}
		var lo, hi types.Value
		for _, e := range n.List {
			lit, ok := e.(*sqlparse.Literal)
			if !ok {
				return false
			}
			if lit.Val.IsNull() {
				continue // IN (NULL, ...) never matches on NULL
			}
			if lo.IsNull() {
				lo, hi = lit.Val, lit.Val
				continue
			}
			if c, err := types.Compare(lit.Val, lo); err != nil {
				return false
			} else if c < 0 {
				lo = lit.Val
			}
			if c, err := types.Compare(lit.Val, hi); err != nil {
				return false
			} else if c > 0 {
				hi = lit.Val
			}
		}
		if lo.IsNull() {
			return false
		}
		if side, ci := jp.sideOf(ref); side != nil {
			// Range collapse is a superset of the IN list; always residual.
			side.preds = append(side.preds,
				colstore.NewSimplePredicate(ci, colstore.CmpGe, lo),
				colstore.NewSimplePredicate(ci, colstore.CmpLe, hi))
		}
		return false
	default:
		return false
	}
}

// exactSide reports whether predicates pushed into this side filter the join
// output exactly: true for the probe side and for the build side of an INNER
// join. On the build side of a LEFT join a dropped row can only turn matches
// into a NULL-padded row, which the residual re-application rejects again
// (pushed predicates never accept NULL).
func (jp *JoinPlan) exactSide(side *joinSide) bool {
	return side == &jp.left || jp.jt == sqlparse.JoinInner
}

// sideOf resolves a reference to exactly one side. Ambiguous or foreign
// references return nil: the conjunct stays residual, where the shared row
// evaluator raises the same error the row path would.
func (jp *JoinPlan) sideOf(ref *sqlparse.ColumnRef) (*joinSide, int) {
	li := jp.left.resolve(ref)
	ri := jp.right.resolve(ref)
	if li >= 0 && ri >= 0 {
		return nil, -1
	}
	if li >= 0 {
		return &jp.left, li
	}
	if ri >= 0 {
		return &jp.right, ri
	}
	return nil, -1
}

// resolveCol implements aggInput over the combined column space.
func (jp *JoinPlan) resolveCol(ref *sqlparse.ColumnRef) int {
	side, ci := jp.sideOf(ref)
	switch side {
	case &jp.left:
		return ci
	case &jp.right:
		return len(jp.left.schema.Columns) + ci
	default:
		return -1
	}
}

func (jp *JoinPlan) inputCols() []expr.InputColumn { return jp.cols }

// ---------------------------------------------------------------------------
// Binary join keys
// ---------------------------------------------------------------------------

// keyEnc encodes join keys, caching the encoded fragment per dictionary code
// for dictionary-encoded string key columns: the tag+length+bytes fragment is
// built once per distinct value and appended by int32 code thereafter.
type keyEnc struct {
	caches [][][]byte // per key position, indexed by dictionary code
}

func newKeyEnc(nkeys int) *keyEnc { return &keyEnc{caches: make([][][]byte, nkeys)} }

// appendKey appends the row's join-key encoding to buf; ok is false when any
// key column is NULL (a NULL key never matches, and for a LEFT join the row
// pads like any unmatched probe row).
func (e *keyEnc) appendKey(buf []byte, b *colstore.Batch, off int, keys []keyCol) ([]byte, bool) {
	for k, kc := range keys {
		v := b.Cols[kc.idx]
		if v.Nulls[off] {
			return buf, false
		}
		switch kc.kind {
		case types.KindInt:
			buf = append(buf, 0x01)
			buf = appendU64(buf, uint64(v.Ints[off]))
		case types.KindTimestamp:
			buf = append(buf, 0x05)
			buf = appendU64(buf, uint64(v.Ints[off]))
		case types.KindBool:
			buf = append(buf, 0x04, byte(v.Ints[off]&1))
		case types.KindFloat:
			buf = appendKeyFloat(buf, v.Floats[off])
		default:
			if v.Codes != nil {
				buf = append(buf, e.fragment(k, v, off)...)
				continue
			}
			s := v.Strs[off]
			buf = append(buf, 0x03)
			buf = appendU64(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	return buf, true
}

// fragment returns the cached key fragment for a dictionary code, building it
// on first use. The dictionary is fixed for the whole scan, so the cache is
// sized once.
func (e *keyEnc) fragment(k int, v colstore.Vector, off int) []byte {
	cache := e.caches[k]
	if len(cache) < len(v.Dict) {
		grown := make([][]byte, len(v.Dict))
		copy(grown, cache)
		e.caches[k] = grown
		cache = grown
	}
	code := v.Codes[off]
	if cache[code] == nil {
		s := v.Dict[code]
		frag := make([]byte, 0, 9+len(s))
		frag = append(frag, 0x03)
		frag = appendU64(frag, uint64(len(s)))
		frag = append(frag, s...)
		cache[code] = frag
	}
	return cache[code]
}

// appendKeyFloat encodes a float join key. An integral float in int64 range
// takes the int encoding so it matches the int of the same value; everything
// else (including out-of-range integrals) encodes as its bits, where
// bit-equality coincides with the row engine's bucket+Compare match relation.
// -0.0 is integral and lands on the int path as 0; NaN is canonicalized
// because types.Compare, which the row engine rechecks with, reports a NaN
// pair as equal.
func appendKeyFloat(buf []byte, f float64) []byte {
	if f == math.Trunc(f) && !math.IsInf(f, 0) &&
		f >= -9223372036854775808.0 && f < 9223372036854775808.0 {
		buf = append(buf, 0x01)
		return appendU64(buf, uint64(int64(f)))
	}
	if math.IsNaN(f) {
		f = math.NaN()
	}
	buf = append(buf, 0x02)
	return appendU64(buf, math.Float64bits(f))
}

// ---------------------------------------------------------------------------
// Build side
// ---------------------------------------------------------------------------

// buildCol is one build-table column captured columnar during the build scan.
type buildCol struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
	nulls  []bool
}

func (c *buildCol) appendRow(v colstore.Vector, off int) {
	c.nulls = append(c.nulls, v.Nulls[off])
	switch {
	case v.Ints != nil:
		c.ints = append(c.ints, v.Ints[off])
	case v.Floats != nil:
		c.floats = append(c.floats, v.Floats[off])
	default:
		c.strs = append(c.strs, v.Strs[off])
	}
}

func (c *buildCol) appendAll(o *buildCol) {
	c.ints = append(c.ints, o.ints...)
	c.floats = append(c.floats, o.floats...)
	c.strs = append(c.strs, o.strs...)
	c.nulls = append(c.nulls, o.nulls...)
}

func (c *buildCol) value(i int) types.Value {
	if c.nulls[i] {
		return types.Null()
	}
	switch c.kind {
	case types.KindInt:
		return types.NewInt(c.ints[i])
	case types.KindTimestamp:
		return types.NewTimestampMicros(c.ints[i])
	case types.KindBool:
		return types.NewBool(c.ints[i] != 0)
	case types.KindFloat:
		return types.NewFloat(c.floats[i])
	default:
		return types.NewString(c.strs[i])
	}
}

// appendGroupVal mirrors the vector-side appendGroupVal for build slots;
// i < 0 is the NULL-padded side of a LEFT join.
func (c *buildCol) appendGroupVal(buf []byte, i int) []byte {
	if i < 0 || c.nulls[i] {
		return append(buf, 0x00)
	}
	switch c.kind {
	case types.KindFloat:
		f := c.floats[i]
		if f == 0 {
			f = 0
		}
		if math.IsNaN(f) {
			f = math.NaN()
		}
		buf = append(buf, 0x02)
		return appendU64(buf, math.Float64bits(f))
	case types.KindString:
		s := c.strs[i]
		buf = append(buf, 0x03)
		buf = appendU64(buf, uint64(len(s)))
		return append(buf, s...)
	default:
		buf = append(buf, 0x01)
		return appendU64(buf, uint64(c.ints[i]))
	}
}

// accumulate folds the slot's value into one accumulator (NULLs and the
// padded slot contribute nothing, like expr.AggState).
func (c *buildCol) accumulate(a *acc, fn string, i int) {
	if i < 0 || c.nulls[i] {
		return
	}
	switch c.kind {
	case types.KindFloat:
		a.addFloat(fn, c.floats[i])
	case types.KindString:
		a.addStr(fn, c.strs[i])
	default:
		a.addInt(fn, c.ints[i])
	}
}

// buildChunk is one build-scan worker's columnar capture: values, plus each
// row's encoded key in a shared arena.
type buildChunk struct {
	cols    []buildCol
	keys    []byte
	offs    []int // offs[r]..offs[r+1] bound row r's key bytes
	nullKey []bool
	enc     *keyEnc
}

func newBuildChunk(schema types.Schema, nkeys int) *buildChunk {
	ch := &buildChunk{cols: make([]buildCol, len(schema.Columns)), offs: []int{0}, enc: newKeyEnc(nkeys)}
	for ci := range ch.cols {
		ch.cols[ci].kind = schema.Columns[ci].Kind
	}
	return ch
}

// hashTable is the assembled hash table: columnar build values plus bucket
// chains in build-row position order, so probe matches emit in the same order
// as the row engine's bucket lists.
type hashTable struct {
	cols []buildCol
	n    int
	idOf map[string]int32 // encoded key -> bucket id
	head []int32          // bucket id -> first slot
	tail []int32
	next []int32 // slot -> next slot of the same bucket, -1 ends
}

func (jp *JoinPlan) buildRight(t *colstore.Table, slices int, vis colstore.Visibility) (*hashTable, colstore.ScanStats, error) {
	nw := max(slices, 1)
	chunks := make([]*buildChunk, nw)
	stats, err := t.ScanBatches(slices, vis, jp.right.preds, func(w int, b *colstore.Batch) error {
		ch := chunks[w]
		if ch == nil {
			ch = newBuildChunk(jp.right.schema, len(jp.right.keys))
			chunks[w] = ch
		}
		sel := applyNullChecks(b, jp.right.nullChecks)
		for _, off := range sel {
			for ci := range ch.cols {
				ch.cols[ci].appendRow(b.Cols[ci], off)
			}
			start := len(ch.keys)
			key, ok := ch.enc.appendKey(ch.keys, b, off, jp.right.keys)
			if !ok {
				key = key[:start]
			}
			ch.keys = key
			ch.nullKey = append(ch.nullKey, !ok)
			ch.offs = append(ch.offs, len(ch.keys))
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	bt := &hashTable{cols: make([]buildCol, len(jp.right.schema.Columns)), idOf: make(map[string]int32)}
	for ci := range bt.cols {
		bt.cols[ci].kind = jp.right.schema.Columns[ci].Kind
	}
	total := 0
	for _, ch := range chunks {
		if ch != nil {
			total += len(ch.nullKey)
		}
	}
	bt.next = make([]int32, 0, total)
	// Concatenate chunks in worker order (= build-row position order) and
	// chain slots serially, so every bucket lists its rows in position order.
	slot := int32(0)
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		for ci := range bt.cols {
			bt.cols[ci].appendAll(&ch.cols[ci])
		}
		for r := range ch.nullKey {
			bt.next = append(bt.next, -1)
			if ch.nullKey[r] {
				slot++
				continue
			}
			key := ch.keys[ch.offs[r]:ch.offs[r+1]]
			id, ok := bt.idOf[string(key)]
			if !ok {
				id = int32(len(bt.head))
				bt.idOf[string(key)] = id
				bt.head = append(bt.head, slot)
				bt.tail = append(bt.tail, slot)
			} else {
				bt.next[bt.tail[id]] = slot
				bt.tail[id] = slot
			}
			slot++
		}
	}
	bt.n = int(slot)
	return bt, stats, nil
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

// Run executes the join: build over the right table, then probe over the
// left, both under the same visibility snapshot. For an aggregated plan the
// result is the final projected relation; otherwise it is the joined relation
// with the WHERE clause fully applied, in the row engine's output order, and
// the caller runs the remaining operators with WHERE stripped.
func (jp *JoinPlan) Run(lt, rt *colstore.Table, slices int, vis colstore.Visibility) (*relalg.Relation, JoinStats, error) {
	var js JoinStats
	bt, bstats, err := jp.buildRight(rt, slices, vis)
	js.Build = bstats
	if err != nil {
		return nil, js, err
	}
	var rel *relalg.Relation
	if jp.agg != nil {
		rel, js.Probe, err = jp.probeAggregate(lt, bt, slices, vis)
	} else {
		rel, js.Probe, err = jp.probeMaterialize(lt, bt, slices, vis)
	}
	if err != nil {
		return nil, js, err
	}
	return rel, js, nil
}

// probe walks the left scan and calls emit for every joined pair: (off, slot)
// per bucket match in build order, or slot -1 once for an unmatched probe row
// of a LEFT join.
func (jp *JoinPlan) probe(t *colstore.Table, bt *hashTable, slices int, vis colstore.Visibility,
	emit func(w int, b *colstore.Batch, off, slot int) error) (colstore.ScanStats, error) {
	nw := max(slices, 1)
	encs := make([]*keyEnc, nw)
	bufs := make([][]byte, nw)
	return t.ScanBatches(slices, vis, jp.left.preds, func(w int, b *colstore.Batch) error {
		if encs[w] == nil {
			encs[w] = newKeyEnc(len(jp.left.keys))
		}
		sel := applyNullChecks(b, jp.left.nullChecks)
		for _, off := range sel {
			key, ok := encs[w].appendKey(bufs[w][:0], b, off, jp.left.keys)
			bufs[w] = key
			matched := false
			if ok {
				if id, found := bt.idOf[string(key)]; found {
					for s := bt.head[id]; s >= 0; s = bt.next[s] {
						matched = true
						if err := emit(w, b, off, int(s)); err != nil {
							return err
						}
					}
				}
			}
			if !matched && jp.jt == sqlparse.JoinLeft {
				if err := emit(w, b, off, -1); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// combineRow materializes one joined row; slot < 0 NULL-pads the right side.
func (jp *JoinPlan) combineRow(b *colstore.Batch, off int, bt *hashTable, slot int) types.Row {
	nl := len(jp.left.schema.Columns)
	row := make(types.Row, len(jp.cols))
	for ci := 0; ci < nl; ci++ {
		row[ci] = b.Cols[ci].Value(off)
	}
	for ci := range bt.cols {
		if slot < 0 {
			row[nl+ci] = types.Null()
		} else {
			row[nl+ci] = bt.cols[ci].value(slot)
		}
	}
	return row
}

func (jp *JoinPlan) probeMaterialize(t *colstore.Table, bt *hashTable, slices int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	nw := max(slices, 1)
	buckets := make([][]types.Row, nw)
	envs := make([]*expr.Env, nw)
	stats, err := jp.probe(t, bt, slices, vis, func(w int, b *colstore.Batch, off, slot int) error {
		row := jp.combineRow(b, off, bt, slot)
		if jp.residual != nil {
			if envs[w] == nil {
				envs[w] = expr.NewEnv(jp.cols)
			}
			ok, err := envs[w].EvalBool(jp.residual, row)
			if err != nil || !ok {
				return err
			}
		}
		buckets[w] = append(buckets[w], row)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	total := 0
	for _, rows := range buckets {
		total += len(rows)
	}
	out := make([]types.Row, 0, total)
	for _, rows := range buckets {
		out = append(out, rows...)
	}
	return &relalg.Relation{Cols: jp.cols, Rows: out}, stats, nil
}

func (jp *JoinPlan) probeAggregate(t *colstore.Table, bt *hashTable, slices int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	ap := jp.agg
	nl := len(jp.left.schema.Columns)
	var residualCols []expr.InputColumn
	if jp.residual != nil {
		residualCols = jp.cols
	}
	workers := newWorkerAggs(max(slices, 1), residualCols)
	stats, err := jp.probe(t, bt, slices, vis, func(wi int, b *colstore.Batch, off, slot int) error {
		w := workers[wi]
		if jp.residual != nil {
			keep, err := w.env.EvalBool(jp.residual, jp.combineRow(b, off, bt, slot))
			if err != nil || !keep {
				return err
			}
		}

		key := w.keyBuf[:0]
		for _, ci := range ap.groupIdxs {
			if ci < nl {
				key = appendGroupVal(key, b.Cols[ci], off)
			} else {
				key = bt.cols[ci-nl].appendGroupVal(key, slot)
			}
		}
		w.keyBuf = key
		g, ok := w.groups[string(key)]
		if !ok {
			g = w.newGroup(key, len(ap.groupIdxs), len(ap.aggs))
			for k, ci := range ap.groupIdxs {
				switch {
				case ci < nl:
					g.keys[k] = b.Cols[ci].Value(off)
				case slot < 0:
					g.keys[k] = types.Null()
				default:
					g.keys[k] = bt.cols[ci-nl].value(slot)
				}
			}
		}

		for ai := range ap.aggs {
			spec := &ap.aggs[ai]
			a := &g.accs[ai]
			if spec.star {
				a.count++ // COUNT(*) counts joined rows, padded ones included
				continue
			}
			if spec.colIdx < nl {
				v := b.Cols[spec.colIdx]
				if v.Nulls[off] {
					continue
				}
				switch {
				case v.Ints != nil:
					a.addInt(spec.fn, v.Ints[off])
				case v.Floats != nil:
					a.addFloat(spec.fn, v.Floats[off])
				default:
					a.addStr(spec.fn, v.Strs[off])
				}
			} else {
				bt.cols[spec.colIdx-nl].accumulate(a, spec.fn, slot)
			}
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return finalizeGroups(ap, workers), stats, nil
}
