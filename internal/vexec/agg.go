package vexec

import (
	"math"
	"strings"

	"idaax/internal/colstore"
	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// outItem kinds.
const (
	itemGroupRef = iota
	itemAggregate
	itemLiteral
)

// outItem is one select-list entry of an aggregated plan.
type outItem struct {
	kind int
	pos  int         // groupIdxs position or aggs index
	lit  types.Value // itemLiteral payload
}

// aggSpec is one aggregate call of an aggregated plan.
type aggSpec struct {
	fn     string // COUNT, SUM, AVG, MIN, MAX, STDDEV, VARIANCE
	star   bool   // COUNT(*)
	colIdx int    // argument column (-1 for star)
	kind   types.Kind
}

// aggPlan describes a fully vectorized grouping/aggregation statement.
type aggPlan struct {
	groupIdxs []int
	aggs      []aggSpec
	items     []outItem
	outCols   []expr.InputColumn
	limit     int64
	offset    int64
}

// aggInput abstracts the column space analyzeAgg plans over: the single
// table of a Plan or the combined left+right columns of a JoinPlan. resolveCol
// maps a reference to its input column index (-1 for foreign or ambiguous
// references, which decline the aggregate plan — the row operators above then
// reproduce the row path's semantics, errors included).
type aggInput interface {
	resolveCol(ref *sqlparse.ColumnRef) int
	inputCols() []expr.InputColumn
}

// analyzeAgg decides whether grouping and aggregation run vectorized and
// builds the aggregate plan. It declines (returning nil, which keeps the
// vectorized scan+filter and row operators above it) whenever the statement
// needs semantics only the row engine implements: DISTINCT (statement or
// aggregate level), HAVING, ORDER BY, star items, group keys that are not
// bare columns, select items other than group columns / supported aggregates
// over bare columns / literals, or SUM-family aggregates over string columns
// (the row engine coerces numeric strings; the typed loops do not).
func analyzeAgg(sel *sqlparse.SelectStmt, p aggInput) *aggPlan {
	if !relalg.NeedsAggregation(sel) {
		return nil
	}
	if sel.Distinct || sel.Having != nil || len(sel.OrderBy) > 0 {
		return nil
	}
	ap := &aggPlan{limit: sel.Limit, offset: sel.Offset}
	for _, g := range sel.GroupBy {
		ref, ok := g.(*sqlparse.ColumnRef)
		if !ok {
			return nil
		}
		ci := p.resolveCol(ref)
		if ci < 0 {
			return nil
		}
		ap.groupIdxs = append(ap.groupIdxs, ci)
	}
	env := expr.NewEnv(p.inputCols())
	for i, item := range sel.Items {
		if item.Star {
			return nil
		}
		switch n := item.Expr.(type) {
		case *sqlparse.ColumnRef:
			ci := p.resolveCol(n)
			if ci < 0 {
				return nil
			}
			pos := -1
			for gi, gci := range ap.groupIdxs {
				if gci == ci {
					pos = gi
					break
				}
			}
			if pos < 0 {
				// References the group's representative row; the row engine
				// resolves that, the vectorized engine declines.
				return nil
			}
			ap.items = append(ap.items, outItem{kind: itemGroupRef, pos: pos})
		case *sqlparse.FuncCall:
			spec, ok := aggSpecFor(n, p)
			if !ok {
				return nil
			}
			ap.items = append(ap.items, outItem{kind: itemAggregate, pos: len(ap.aggs)})
			ap.aggs = append(ap.aggs, spec)
		case *sqlparse.Literal:
			ap.items = append(ap.items, outItem{kind: itemLiteral, lit: n.Val})
		default:
			return nil
		}
		name := item.Alias
		if name == "" {
			name = expr.OutputName(item.Expr, i)
		}
		ap.outCols = append(ap.outCols, expr.InputColumn{Name: types.NormalizeName(name), Kind: env.InferKind(item.Expr)})
	}
	return ap
}

func aggSpecFor(fc *sqlparse.FuncCall, p aggInput) (aggSpec, bool) {
	if !fc.IsAggregate() || fc.Distinct {
		return aggSpec{}, false
	}
	name := strings.ToUpper(fc.Name)
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV", "VARIANCE":
	default:
		return aggSpec{}, false
	}
	if fc.Star || len(fc.Args) == 0 {
		if name != "COUNT" {
			return aggSpec{}, false
		}
		return aggSpec{fn: name, star: true, colIdx: -1}, true
	}
	if len(fc.Args) != 1 {
		return aggSpec{}, false
	}
	ref, ok := fc.Args[0].(*sqlparse.ColumnRef)
	if !ok {
		return aggSpec{}, false
	}
	ci := p.resolveCol(ref)
	if ci < 0 {
		return aggSpec{}, false
	}
	kind := p.inputCols()[ci].Kind
	switch name {
	case "SUM", "AVG", "STDDEV", "VARIANCE":
		if kind == types.KindString {
			return aggSpec{}, false
		}
	}
	return aggSpec{fn: name, colIdx: ci, kind: kind}, true
}

// ---------------------------------------------------------------------------
// Typed accumulators (semantics mirror expr.AggState exactly)
// ---------------------------------------------------------------------------

// acc accumulates one aggregate for one group without boxing values. Sums
// accumulate as float64 like expr.AggState, so SUM over huge integers rounds
// identically on both engines.
type acc struct {
	count      int64
	sum, sumSq float64
	sawValue   bool
	sawFloat   bool
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	hasMinMax  bool
}

func (a *acc) addInt(fn string, v int64) {
	a.sawValue = true
	a.count++
	switch fn {
	case "SUM", "AVG", "STDDEV", "VARIANCE":
		f := float64(v)
		a.sum += f
		a.sumSq += f * f
	case "MIN", "MAX":
		if !a.hasMinMax {
			a.minI, a.maxI = v, v
			a.hasMinMax = true
			return
		}
		if v < a.minI {
			a.minI = v
		}
		if v > a.maxI {
			a.maxI = v
		}
	}
}

func (a *acc) addFloat(fn string, v float64) {
	a.sawValue = true
	a.count++
	switch fn {
	case "SUM", "AVG", "STDDEV", "VARIANCE":
		a.sawFloat = true
		a.sum += v
		a.sumSq += v * v
	case "MIN", "MAX":
		if !a.hasMinMax {
			a.minF, a.maxF = v, v
			a.hasMinMax = true
			return
		}
		if v < a.minF {
			a.minF = v
		}
		if v > a.maxF {
			a.maxF = v
		}
	}
}

func (a *acc) addStr(fn string, v string) {
	a.sawValue = true
	a.count++
	if fn != "MIN" && fn != "MAX" {
		return
	}
	if !a.hasMinMax {
		a.minS, a.maxS = v, v
		a.hasMinMax = true
		return
	}
	if v < a.minS {
		a.minS = v
	}
	if v > a.maxS {
		a.maxS = v
	}
}

func (a *acc) merge(o *acc, spec *aggSpec) {
	a.count += o.count
	a.sum += o.sum
	a.sumSq += o.sumSq
	a.sawValue = a.sawValue || o.sawValue
	a.sawFloat = a.sawFloat || o.sawFloat
	if !o.hasMinMax {
		return
	}
	if !a.hasMinMax {
		a.minI, a.maxI = o.minI, o.maxI
		a.minF, a.maxF = o.minF, o.maxF
		a.minS, a.maxS = o.minS, o.maxS
		a.hasMinMax = true
		return
	}
	switch spec.kind {
	case types.KindFloat:
		a.minF = math.Min(a.minF, o.minF)
		a.maxF = math.Max(a.maxF, o.maxF)
	case types.KindString:
		a.minS = min(a.minS, o.minS)
		a.maxS = max(a.maxS, o.maxS)
	default:
		a.minI = min(a.minI, o.minI)
		a.maxI = max(a.maxI, o.maxI)
	}
}

// result finalises the accumulator, matching expr.AggState.Result.
func (a *acc) result(spec *aggSpec) types.Value {
	switch spec.fn {
	case "COUNT":
		return types.NewInt(a.count)
	case "SUM":
		if !a.sawValue {
			return types.Null()
		}
		if !a.sawFloat && a.sum == math.Trunc(a.sum) {
			return types.NewInt(int64(a.sum))
		}
		return types.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return types.Null()
		}
		return types.NewFloat(a.sum / float64(a.count))
	case "MIN":
		return a.extreme(spec, true)
	case "MAX":
		return a.extreme(spec, false)
	case "VARIANCE":
		if a.count == 0 {
			return types.Null()
		}
		mean := a.sum / float64(a.count)
		return types.NewFloat(a.sumSq/float64(a.count) - mean*mean)
	case "STDDEV":
		if a.count == 0 {
			return types.Null()
		}
		mean := a.sum / float64(a.count)
		return types.NewFloat(math.Sqrt(math.Max(0, a.sumSq/float64(a.count)-mean*mean)))
	default:
		return types.Null()
	}
}

func (a *acc) extreme(spec *aggSpec, wantMin bool) types.Value {
	if !a.hasMinMax {
		return types.Null()
	}
	switch spec.kind {
	case types.KindFloat:
		if wantMin {
			return types.NewFloat(a.minF)
		}
		return types.NewFloat(a.maxF)
	case types.KindString:
		if wantMin {
			return types.NewString(a.minS)
		}
		return types.NewString(a.maxS)
	case types.KindTimestamp:
		if wantMin {
			return types.NewTimestampMicros(a.minI)
		}
		return types.NewTimestampMicros(a.maxI)
	case types.KindBool:
		if wantMin {
			return types.NewBool(a.minI != 0)
		}
		return types.NewBool(a.maxI != 0)
	default:
		if wantMin {
			return types.NewInt(a.minI)
		}
		return types.NewInt(a.maxI)
	}
}

// ---------------------------------------------------------------------------
// Vectorized hash aggregation
// ---------------------------------------------------------------------------

// group is one GROUP BY group: its binary key, the first-seen key values for
// the output row, and one accumulator per aggregate.
type group struct {
	key  string
	keys []types.Value
	accs []acc
}

// workerAgg is one scan worker's aggregation state. Its groups, their
// accumulators, key values and key strings are carved from chunked slabs, so
// a high-cardinality aggregate allocates per chunk rather than per group.
//
// groups, keyed by the encoded group key, is where a group is created and
// what finalizeGroups merges on. The native indexes below are caches in
// front of it, each filled on a miss with the group the encoded-key path
// returned, so a row whose key they already hold costs no key encoding and
// no string hashing:
//   - one is the only group of a global aggregate, or the NULL group of a
//     one-column key;
//   - byCode indexes a dictionary-encoded group column's groups by code;
//   - byInt holds a one-column int, timestamp or bool key by value, and a
//     float key by its normalized bits (-0.0 as 0.0, one NaN);
//   - bySlot indexes by build slot when every group column of a join is on
//     the build side (the slot fixes the key).
type workerAgg struct {
	groups map[string]*group
	order  []*group
	env    *expr.Env
	row    types.Row // residual evaluation buffer; EvalBool keeps no reference
	keyBuf []byte
	gids   []*group

	one    *group
	byCode []*group
	byInt  intTable[*group]
	bySlot []*group

	groupSlab []group
	accSlab   []acc
	valSlab   []types.Value
	keyArena  strings.Builder
}

// maxGroupChunk caps how many groups one slab allocation serves. Chunks
// start small and grow with the worker's group count, so a low-cardinality
// aggregate does not zero slabs it never uses.
const maxGroupChunk = 512

func newWorkerAggs(n int, residualCols []expr.InputColumn) []*workerAgg {
	workers := make([]*workerAgg, n)
	for i := range workers {
		workers[i] = &workerAgg{groups: make(map[string]*group)}
		if residualCols != nil {
			workers[i].env = expr.NewEnv(residualCols)
			workers[i].row = make(types.Row, len(residualCols))
		}
	}
	return workers
}

// groupOf returns the group of the key encoded in key, creating it on first
// sight with its key values filled by keys. It is the path every native index
// falls back to on a miss.
func (w *workerAgg) groupOf(ap *aggPlan, key []byte, keys func(dst []types.Value)) *group {
	g, ok := w.groups[string(key)]
	if !ok {
		g = w.newGroup(key, len(ap.groupIdxs), len(ap.aggs))
		keys(g.keys)
	}
	return g
}

// oneColumnGroup returns the group of a one-column key through the native
// index its vector allows: the NULL group, byCode for a dictionary code,
// byInt for a fixed-width value. A raw string key has none and goes to miss,
// as does every first sight of a key.
func (w *workerAgg) oneColumnGroup(v *colstore.Vector, off int, miss func() *group) *group {
	var entry **group
	var k int64
	switch {
	case v.Nulls[off]:
		entry = &w.one
	case v.Codes != nil:
		if len(w.byCode) < len(v.Dict) {
			w.byCode = append(w.byCode, make([]*group, len(v.Dict)-len(w.byCode))...)
		}
		entry = &w.byCode[v.Codes[off]]
	case v.Ints != nil:
		k = v.Ints[off]
	case v.Floats != nil:
		k = int64(math.Float64bits(normFloat(v.Floats[off])))
	default:
		return miss()
	}
	if entry != nil {
		return cached(entry, miss)
	}
	g := w.byInt.get(k)
	if g == nil {
		g = miss()
		w.byInt.put(k, g)
	}
	return g
}

// cached returns *entry, filling it through miss on first use.
func cached(entry **group, miss func() *group) *group {
	if *entry == nil {
		*entry = miss()
	}
	return *entry
}

// newGroup registers a group under a copy of key, with naggs zeroed
// accumulators and nkeys key values for the caller to fill.
func (w *workerAgg) newGroup(key []byte, nkeys, naggs int) *group {
	chunk := min(max(len(w.order), 8), maxGroupChunk)
	g := &carve(&w.groupSlab, 1, chunk)[0]
	g.key = w.internKey(key, chunk)
	g.accs = carve(&w.accSlab, naggs, chunk)
	if nkeys > 0 {
		g.keys = carve(&w.valSlab, nkeys, chunk)
	}
	w.groups[g.key] = g
	w.order = append(w.order, g)
	return g
}

// internKey copies key into the worker's key arena. A strings.Builder never
// rewrites bytes it has already handed out through String, so each key stays
// valid while later keys append to the same chunk; a full chunk is dropped
// (its keys keep it alive) and a fresh one of about chunk keys started.
func (w *workerAgg) internKey(key []byte, chunk int) string {
	a := &w.keyArena
	if a.Cap()-a.Len() < len(key) {
		a.Reset()
		a.Grow(chunk * max(16, len(key)))
	}
	start := a.Len()
	a.Write(key)
	return a.String()[start:]
}

// carve takes the next n elements of a chunked slab, refilling it with room
// for chunk groups' worth when short.
func carve[T any](slab *[]T, n, chunk int) []T {
	if len(*slab) < n {
		*slab = make([]T, n*chunk)
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

func (p *Plan) runAggregate(t *colstore.Table, slices int, vis colstore.Visibility) (*relalg.Relation, colstore.ScanStats, error) {
	ap := p.agg
	var residualCols []expr.InputColumn
	if p.residual != nil {
		residualCols = p.cols
	}
	workers := newWorkerAggs(max(slices, 1), residualCols)

	stats, err := t.ScanBatches(slices, vis, p.preds, func(wi int, b *colstore.Batch) error {
		w := workers[wi]
		sel := applyNullChecks(b, p.nullChecks)
		if p.residual != nil && len(sel) > 0 {
			out := sel[:0]
			row := w.row
			for _, off := range sel {
				for ci := range b.Cols {
					row[ci] = b.Cols[ci].Value(off)
				}
				ok, err := w.env.EvalBool(p.residual, row)
				if err != nil {
					return err
				}
				if ok {
					out = append(out, off)
				}
			}
			sel = out
		}
		if len(sel) == 0 {
			return nil
		}

		gids := w.resolveGroups(ap, b, sel)
		for ai := range ap.aggs {
			accumulateVector(&ap.aggs[ai], ai, b, sel, gids)
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return finalizeGroups(ap, workers), stats, nil
}

// resolveGroups maps every selected row to its group, through the native
// index the GROUP BY's shape allows and the encoded-key map otherwise.
func (w *workerAgg) resolveGroups(ap *aggPlan, b *colstore.Batch, sel []int) []*group {
	gids := w.gids[:0]
	miss := func(off int) *group {
		w.keyBuf = encodeGroupKey(w.keyBuf[:0], b, ap.groupIdxs, off)
		return w.groupOf(ap, w.keyBuf, func(dst []types.Value) {
			for k, ci := range ap.groupIdxs {
				dst[k] = b.Cols[ci].Value(off)
			}
		})
	}
	switch len(ap.groupIdxs) {
	case 0:
		g := cached(&w.one, func() *group { return miss(sel[0]) })
		for range sel {
			gids = append(gids, g)
		}
	case 1:
		v := &b.Cols[ap.groupIdxs[0]]
		for _, off := range sel {
			gids = append(gids, w.oneColumnGroup(v, off, func() *group { return miss(off) }))
		}
	default:
		for _, off := range sel {
			gids = append(gids, miss(off))
		}
	}
	w.gids = gids
	return gids
}

// finalizeGroups merges worker partials in worker order (deterministic, like
// the row engine's parallel group merge — worker ranges are contiguous and
// ordered, so the merged order is first-occurrence order over the full row
// stream), synthesizes the single group of a global aggregate over zero rows,
// and projects the output relation with LIMIT/OFFSET applied. Shared by the
// single-table and join probes.
func finalizeGroups(ap *aggPlan, workers []*workerAgg) *relalg.Relation {
	total := 0
	for _, w := range workers {
		if w != nil {
			total += len(w.order)
		}
	}
	merged := make(map[string]*group, total)
	order := make([]*group, 0, total)
	for _, w := range workers {
		if w == nil {
			continue
		}
		for _, g := range w.order {
			dst, ok := merged[g.key]
			if !ok {
				merged[g.key] = g
				order = append(order, g)
				continue
			}
			for ai := range dst.accs {
				dst.accs[ai].merge(&g.accs[ai], &ap.aggs[ai])
			}
		}
	}

	// A global aggregate over zero rows still yields one output row.
	if len(order) == 0 && len(ap.groupIdxs) == 0 {
		order = append(order, &group{accs: make([]acc, len(ap.aggs))})
	}

	width := len(ap.items)
	slab := make([]types.Value, len(order)*width)
	out := &relalg.Relation{Cols: ap.outCols, Rows: make([]types.Row, len(order))}
	for gi, g := range order {
		row := types.Row(slab[gi*width : (gi+1)*width : (gi+1)*width])
		for i, it := range ap.items {
			switch it.kind {
			case itemGroupRef:
				row[i] = g.keys[it.pos]
			case itemAggregate:
				row[i] = g.accs[it.pos].result(&ap.aggs[it.pos])
			default:
				row[i] = it.lit
			}
		}
		out.Rows[gi] = row
	}
	applyLimit(out, ap.limit, ap.offset)
	return out
}

// accumulateVector folds one aggregate's argument column into the per-row
// groups with a typed loop over the selection vector.
func accumulateVector(spec *aggSpec, ai int, b *colstore.Batch, sel []int, gids []*group) {
	if spec.star {
		for _, g := range gids {
			g.accs[ai].count++ // COUNT(*) counts rows, NULLs included
		}
		return
	}
	v := b.Cols[spec.colIdx]
	switch {
	case v.Ints != nil:
		for j, off := range sel {
			if v.Nulls[off] {
				continue
			}
			gids[j].accs[ai].addInt(spec.fn, v.Ints[off])
		}
	case v.Floats != nil:
		for j, off := range sel {
			if v.Nulls[off] {
				continue
			}
			gids[j].accs[ai].addFloat(spec.fn, v.Floats[off])
		}
	default:
		for j, off := range sel {
			if v.Nulls[off] {
				continue
			}
			gids[j].accs[ai].addStr(spec.fn, v.Strs[off])
		}
	}
}

// encodeGroupKey appends a fixed-width binary encoding of the row's group key
// to buf: one tag byte per column (NULL keeps only the tag) followed by the
// 8-byte payload, with strings length-prefixed. Two rows encode equal keys
// exactly when the row engine's string GroupKey would group them together.
func encodeGroupKey(buf []byte, b *colstore.Batch, idxs []int, off int) []byte {
	for _, ci := range idxs {
		buf = appendGroupVal(buf, b.Cols[ci], off)
	}
	return buf
}

// appendGroupVal appends one column's group-key encoding for the row at off.
// The join probe shares it for left-side group columns (buildCol.appendGroupVal
// is its slot-side mirror).
func appendGroupVal(buf []byte, v colstore.Vector, off int) []byte {
	if v.Nulls[off] {
		return append(buf, 0x00)
	}
	switch {
	case v.Ints != nil:
		buf = append(buf, 0x01)
		return appendU64(buf, uint64(v.Ints[off]))
	case v.Floats != nil:
		buf = append(buf, 0x02)
		return appendU64(buf, math.Float64bits(normFloat(v.Floats[off])))
	default:
		s := v.Strs[off]
		buf = append(buf, 0x03)
		buf = appendU64(buf, uint64(len(s)))
		return append(buf, s...)
	}
}

// normFloat maps a float group key onto its group's representative: -0.0
// groups with +0.0, like GroupKey's integral formatting, and every NaN
// payload with the canonical NaN, like GroupKey's "NaN" text.
func normFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	if math.IsNaN(f) {
		return math.NaN()
	}
	return f
}

func appendU64(buf []byte, u uint64) []byte {
	return append(buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// applyLimit mirrors the row engine's LIMIT/OFFSET application.
func applyLimit(rel *relalg.Relation, limit, offset int64) {
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
