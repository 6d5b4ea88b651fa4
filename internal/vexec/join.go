package vexec

import (
	"math"
	"slices"

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
	for _, conj := range sqlparse.Conjuncts(on) {
		lref, rref, ok := sqlparse.ColumnEquality(conj)
		if !ok {
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
	for _, conj := range sqlparse.Conjuncts(where) {
		if jp.pushConjunct(conj) {
			continue
		}
		residual = append(residual, conj)
	}
	jp.residual = sqlparse.AndAll(residual)
}

// pushConjunct pushes one sargable WHERE conjunct into a side's scan. It
// returns true only when the push is exact (the conjunct need not re-run); a
// superset push (predicates on the build side of a LEFT join, IN ranges)
// still appends scan predicates for zone-map pruning but returns false so the
// conjunct is re-applied as residual — the same contract as the row path's
// pushdown.
func (jp *JoinPlan) pushConjunct(e sqlparse.Expr) bool {
	s, ok := sqlparse.Sargable(e)
	if !ok {
		return false
	}
	side, ci := jp.sideOf(s.Col)
	if side == nil {
		return false
	}
	if s.Kind == sqlparse.SargIsNull {
		if !jp.exactSide(side) {
			// IS NULL accepts NULL rows, so a push into the padded side of a
			// LEFT join would not be a superset filter; keep it residual.
			return false
		}
		side.nullChecks = append(side.nullChecks, nullCheck{colIdx: ci, wantNull: !s.Negate})
		return true
	}
	var exact bool
	side.preds, exact = ScanPredicates(side.preds, &s, ci)
	return exact && jp.exactSide(side)
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
		buf = append(buf, 0x02)
		return appendU64(buf, math.Float64bits(normFloat(c.floats[i])))
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
// as the row engine's bucket lists. A join on one key pair of the same int or
// timestamp kind on both sides buckets by the native value (idOfInt, and the
// build side captures no key bytes); every other join buckets by the encoded
// key (idOf), which also carries the int/float cross-match.
type hashTable struct {
	cols    []buildCol
	n       int
	idOf    map[string]int32 // encoded key -> bucket id
	idOfInt intTable[int32]  // native key -> bucket id + 1
	head    []int32          // bucket id -> first slot
	tail    []int32
	next    []int32 // slot -> next slot of the same bucket, -1 ends
}

// intKey is the build-side column index of a join keyed by one pair of the
// same int or timestamp kind on both sides, or -1 when the join buckets by
// the encoded key.
func (jp *JoinPlan) intKey() int {
	if len(jp.left.keys) != 1 {
		return -1
	}
	l, r := jp.left.keys[0], jp.right.keys[0]
	if l.kind != r.kind || (l.kind != types.KindInt && l.kind != types.KindTimestamp) {
		return -1
	}
	return r.idx
}

// bucket chains the build slot, whose key is not NULL, into its key's
// bucket, opening the bucket on first sight.
func (bt *hashTable) bucket(slot int32, key []byte, intKey int) {
	var id int32
	var ok bool
	if intKey >= 0 {
		k := bt.cols[intKey].ints[slot]
		id = bt.idOfInt.get(k) - 1
		if ok = id >= 0; !ok {
			bt.idOfInt.put(k, int32(len(bt.head))+1)
		}
	} else if id, ok = bt.idOf[string(key)]; !ok {
		bt.idOf[string(key)] = int32(len(bt.head))
	}
	if !ok {
		bt.head = append(bt.head, slot)
		bt.tail = append(bt.tail, slot)
		return
	}
	bt.next[bt.tail[id]] = slot
	bt.tail[id] = slot
}

func (jp *JoinPlan) buildRight(t *colstore.Table, slices int, vis colstore.Visibility) (*hashTable, colstore.ScanStats, error) {
	nw := max(slices, 1)
	chunks := make([]*buildChunk, nw)
	intKey := jp.intKey()
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
			if intKey >= 0 { // bucket reads the key from the captured column
				ch.nullKey = append(ch.nullKey, b.Cols[intKey].Nulls[off])
				continue
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
	bt := &hashTable{cols: make([]buildCol, len(jp.right.schema.Columns))}
	if intKey < 0 {
		bt.idOf = make(map[string]int32)
	}
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
			if !ch.nullKey[r] {
				var key []byte
				if intKey < 0 {
					key = ch.keys[ch.offs[r]:ch.offs[r+1]]
				}
				bt.bucket(slot, key, intKey)
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
	native := bt.idOf == nil
	return t.ScanBatches(slices, vis, jp.left.preds, func(w int, b *colstore.Batch) error {
		if encs[w] == nil {
			encs[w] = newKeyEnc(len(jp.left.keys))
		}
		sel := applyNullChecks(b, jp.left.nullChecks)
		kv := &b.Cols[jp.left.keys[0].idx]
		for _, off := range sel {
			id, found := int32(0), false
			if native {
				if !kv.Nulls[off] {
					id = bt.idOfInt.get(kv.Ints[off]) - 1
					found = id >= 0
				}
			} else if key, ok := encs[w].appendKey(bufs[w][:0], b, off, jp.left.keys); ok {
				bufs[w] = key
				id, found = bt.idOf[string(key)]
			}
			matched := false
			if found {
				for s := bt.head[id]; s >= 0; s = bt.next[s] {
					matched = true
					if err := emit(w, b, off, int(s)); err != nil {
						return err
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

// combineRow fills row (len(jp.cols) wide) with one joined row; slot < 0
// NULL-pads the right side.
func (jp *JoinPlan) combineRow(row types.Row, b *colstore.Batch, off int, bt *hashTable, slot int) types.Row {
	nl := len(jp.left.schema.Columns)
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

func (jp *JoinPlan) probeMaterialize(t *colstore.Table, bt *hashTable, parallelism int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	nw := max(parallelism, 1)
	buckets := make([][]types.Row, nw)
	// The residual runs on one scratch row per worker; only kept rows are
	// copied out.
	envs := make([]*expr.Env, nw)
	rows := make([]types.Row, nw)
	stats, err := jp.probe(t, bt, parallelism, vis, func(w int, b *colstore.Batch, off, slot int) error {
		if jp.residual == nil {
			buckets[w] = append(buckets[w], jp.combineRow(make(types.Row, len(jp.cols)), b, off, bt, slot))
			return nil
		}
		if envs[w] == nil {
			envs[w] = expr.NewEnv(jp.cols)
			rows[w] = make(types.Row, len(jp.cols))
		}
		row := jp.combineRow(rows[w], b, off, bt, slot)
		ok, err := envs[w].EvalBool(jp.residual, row)
		if err != nil || !ok {
			return err
		}
		buckets[w] = append(buckets[w], slices.Clone(row))
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return &relalg.Relation{Cols: jp.cols, Rows: slices.Concat(buckets...)}, stats, nil
}

func (jp *JoinPlan) probeAggregate(t *colstore.Table, bt *hashTable, slices int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	ap := jp.agg
	nl := len(jp.left.schema.Columns)
	var residualCols []expr.InputColumn
	if jp.residual != nil {
		residualCols = jp.cols
	}
	workers := newWorkerAggs(max(slices, 1), residualCols)
	buildOnly := len(ap.groupIdxs) > 0
	for _, ci := range ap.groupIdxs {
		buildOnly = buildOnly && ci >= nl
	}
	stats, err := jp.probe(t, bt, slices, vis, func(wi int, b *colstore.Batch, off, slot int) error {
		w := workers[wi]
		if jp.residual != nil {
			keep, err := w.env.EvalBool(jp.residual, jp.combineRow(w.row, b, off, bt, slot))
			if err != nil || !keep {
				return err
			}
		}

		miss := func() *group {
			key := w.keyBuf[:0]
			for _, ci := range ap.groupIdxs {
				if ci < nl {
					key = appendGroupVal(key, b.Cols[ci], off)
				} else {
					key = bt.cols[ci-nl].appendGroupVal(key, slot)
				}
			}
			w.keyBuf = key
			return w.groupOf(ap, key, func(dst []types.Value) {
				for k, ci := range ap.groupIdxs {
					switch {
					case ci < nl:
						dst[k] = b.Cols[ci].Value(off)
					case slot < 0:
						dst[k] = types.Null()
					default:
						dst[k] = bt.cols[ci-nl].value(slot)
					}
				}
			})
		}
		var g *group
		switch {
		case len(ap.groupIdxs) == 0:
			g = cached(&w.one, miss)
		case buildOnly && slot >= 0:
			if w.bySlot == nil {
				w.bySlot = make([]*group, bt.n)
			}
			g = cached(&w.bySlot[slot], miss)
		case len(ap.groupIdxs) == 1 && ap.groupIdxs[0] < nl:
			g = w.oneColumnGroup(&b.Cols[ap.groupIdxs[0]], off, miss)
		default:
			g = miss()
		}

		for ai := range ap.aggs {
			spec := &ap.aggs[ai]
			a := &g.accs[ai]
			if spec.star {
				a.count++ // COUNT(*) counts joined rows, padded ones included
				continue
			}
			if spec.colIdx < nl {
				v := &b.Cols[spec.colIdx]
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
