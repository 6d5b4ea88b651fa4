package colstore

import (
	"idaax/internal/par"
	"idaax/internal/types"
)

// BatchSize is the number of row positions covered by one scan batch. It
// divides ZoneBlockSize so a batch never spans a zone-map block boundary.
const BatchSize = 1024

// Vector is a typed, zero-copy view of one column over a batch's row range.
// Exactly one payload slice is populated, chosen by Kind (booleans and
// timestamps share the Ints payload, like Column); Nulls always aligns with
// the payload. Vectors alias column storage and must be treated as read-only.
type Vector struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool

	// Codes and Dict are set (alongside Strs) when the column is dictionary-
	// encoded: Codes[i] indexes Dict for non-NULL rows (NULL rows carry the
	// placeholder 0 — check Nulls first), and Dict is the whole dictionary in
	// code order, shared by every batch of the scan. Consumers that compare or
	// group on strings can work on int32 codes instead.
	Codes []int32
	Dict  []string
}

// Value reconstructs the value at batch offset i.
func (v Vector) Value(i int) types.Value {
	if v.Nulls[i] {
		return types.Null()
	}
	switch v.Kind {
	case types.KindInt:
		return types.NewInt(v.Ints[i])
	case types.KindTimestamp:
		return types.NewTimestampMicros(v.Ints[i])
	case types.KindFloat:
		return types.NewFloat(v.Floats[i])
	case types.KindBool:
		return types.NewBool(v.Ints[i] != 0)
	default:
		return types.NewString(v.Strs[i])
	}
}

// Batch is a view of up to BatchSize consecutive row versions of a table,
// with the rows surviving visibility and predicate evaluation recorded in the
// selection vector. Operators consume the typed vectors directly and only
// materialize types.Row values for rows that survive every filter (late
// materialization).
type Batch struct {
	// Cols holds one vector per table column, aliasing column storage.
	Cols []Vector
	// Base is the absolute row index of batch offset 0.
	Base int
	// N is the number of row positions the batch covers (Sel entries are in
	// [0, N)).
	N int
	// Sel lists the surviving batch offsets in ascending order.
	Sel []int
}

// Materialize appends the selected rows to dst (late materialization). The
// rows of one batch are carved out of a single slab, filled column by column
// with one typed loop per vector; the zero Value the slab starts as is NULL.
func (b *Batch) Materialize(dst []types.Row) []types.Row {
	width := len(b.Cols)
	slab := make([]types.Value, len(b.Sel)*width)
	for ci, col := range b.Cols {
		cells := slab[ci:]
		switch col.Kind {
		case types.KindInt, types.KindTimestamp:
			for k, off := range b.Sel {
				if !col.Nulls[off] {
					cells[k*width] = types.Value{Kind: col.Kind, Int: col.Ints[off]}
				}
			}
		case types.KindFloat:
			for k, off := range b.Sel {
				if !col.Nulls[off] {
					cells[k*width] = types.Value{Kind: types.KindFloat, Float: col.Floats[off]}
				}
			}
		case types.KindBool:
			for k, off := range b.Sel {
				if !col.Nulls[off] {
					cells[k*width] = types.Value{Kind: types.KindBool, Bool: col.Ints[off] != 0}
				}
			}
		default:
			for k, off := range b.Sel {
				if !col.Nulls[off] {
					cells[k*width] = types.Value{Kind: types.KindString, Str: col.Strs[off]}
				}
			}
		}
	}
	for range b.Sel {
		dst = append(dst, slab[:width:width])
		slab = slab[width:]
	}
	return dst
}

// ScanBatches streams the rows visible under vis that satisfy all pushed-down
// predicates as column batches, without materializing types.Row values: per
// zone-map block that survives pruning, visibility fills the selection vector
// and each predicate shrinks it with a typed vector loop. fn runs on `slices`
// workers (worker indices are < max(1, slices)); each worker owns a contiguous
// row range and delivers its batches in ascending position order, so
// concatenating per-worker results in worker order yields position order —
// the same order ParallelScan returns. The batch passed to fn (vectors and
// selection vector included) is reused and only valid for the duration of the
// call. ScanStats.RowsMaterialized counts the selected rows delivered. A
// panic in fn fails the scan with a *par.PanicError.
func (t *Table) ScanBatches(slices int, vis Visibility, preds []SimplePredicate, fn func(worker int, b *Batch) error) (ScanStats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()

	n := len(t.created)
	stats := ScanStats{VersionsConsidered: n}
	if n == 0 {
		return stats, nil
	}
	// Rewrite string predicates over dictionary-encoded columns into code
	// comparisons once for the whole scan. The read lock is held until the
	// scan completes and a dictionary spill requires the write lock, so the
	// resolved tables cannot go stale mid-scan.
	preds = resolveDictPredicates(t.cols, preds)
	slices = scanSlices(slices, n)

	type sliceResult struct {
		pruned   int
		selected int
		batches  int
		err      error
	}
	results := make([]sliceResult, slices)
	err := par.Ranges(n, slices, func(s, lo, hi int) error {
		r := &results[s]
		r.pruned, r.selected, r.batches, r.err = t.scanChunkBatches(s, lo, hi, vis, preds, fn)
		return r.err
	})
	// The counters cover the slices up to the first failed one.
	for _, r := range results {
		stats.BlocksPruned += r.pruned
		stats.RowsMaterialized += r.selected
		stats.Batches += r.batches
		if r.err != nil {
			break
		}
	}
	return stats, err
}

// scanSlices is the number of slices an n-row scan (n > 0) runs on: the
// requested count, at least one, and no more than one per 2048 rows so small
// tables do not pay per-slice overhead for a handful of rows.
func scanSlices(slices, n int) int {
	return max(1, min(slices, (n+2047)/2048))
}

// scanChunkBatches is one worker's share of ScanBatches: rows [lo, hi).
func (t *Table) scanChunkBatches(worker, lo, hi int, vis Visibility, preds []SimplePredicate, fn func(worker int, b *Batch) error) (pruned, selected, batches int, err error) {
	batch := &Batch{Cols: make([]Vector, len(t.cols))}
	selBuf := make([]int, 0, BatchSize)
	blockStart := lo
	for blockStart < hi {
		block := blockStart / ZoneBlockSize
		blockEnd := min((block+1)*ZoneBlockSize, hi)
		skip := false
		for _, p := range preds {
			if !p.blockMayMatch(t.cols[p.ColIdx], block) {
				skip = true
				break
			}
		}
		if skip {
			pruned++
			blockStart = blockEnd
			continue
		}
		for start := blockStart; start < blockEnd; start += BatchSize {
			end := min(start+BatchSize, blockEnd)
			// Neighbouring versions usually share their (created, deleted)
			// pair — a bulk load or a multi-row INSERT writes one long run —
			// so vis runs once per run, not once per row (Visibility is
			// pure for the length of a scan).
			sel := selBuf[:0]
			created, deleted := t.created[start], t.deleted[start]
			visible := vis(created, deleted)
			for i := start; i < end; i++ {
				if t.created[i] != created || t.deleted[i] != deleted {
					created, deleted = t.created[i], t.deleted[i]
					visible = vis(created, deleted)
				}
				if visible {
					sel = append(sel, i-start)
				}
			}
			if len(sel) == 0 {
				continue
			}
			t.fillBatch(batch, start, end)
			for _, p := range preds {
				sel = p.applyVector(batch.Cols[p.ColIdx], sel)
				if len(sel) == 0 {
					break
				}
			}
			if len(sel) == 0 {
				continue
			}
			batch.Sel = sel
			selected += len(sel)
			batches++
			if err := fn(worker, batch); err != nil {
				return pruned, selected, batches, err
			}
		}
		blockStart = blockEnd
	}
	return pruned, selected, batches, nil
}

// fillBatch points the batch's vectors at rows [start, end) of every column.
func (t *Table) fillBatch(b *Batch, start, end int) {
	b.Base = start
	b.N = end - start
	for ci, c := range t.cols {
		v := Vector{Kind: c.Kind, Nulls: c.nulls[start:end]}
		switch c.Kind {
		case types.KindInt, types.KindTimestamp, types.KindBool:
			v.Ints = c.ints[start:end]
		case types.KindFloat:
			v.Floats = c.floats[start:end]
		default:
			v.Strs = c.strs[start:end]
			if c.DictEncoded() {
				v.Codes = c.codes[start:end]
				v.Dict = c.dict
			}
		}
		b.Cols[ci] = v
	}
}

// ScanMaterialize is the batch-scan twin of ParallelScan: it returns exactly
// the same rows in the same (position) order, but evaluates predicates with
// vector loops and materializes only surviving rows into per-worker buffers
// sized from batch survivor counts. Like ParallelScan, it re-raises a slice
// worker's panic on the caller's goroutine as a *par.PanicError.
func (t *Table) ScanMaterialize(slices int, vis Visibility, preds []SimplePredicate) ([]types.Row, ScanStats) {
	nw := max(slices, 1)
	buckets := make([][]types.Row, nw)
	stats, err := t.ScanBatches(slices, vis, preds, func(w int, b *Batch) error {
		buckets[w] = b.Materialize(buckets[w])
		return nil
	})
	if err != nil {
		panic(err)
	}
	out := make([]types.Row, 0, stats.RowsMaterialized)
	for _, rows := range buckets {
		out = append(out, rows...)
	}
	return out, stats
}

// applyVector compacts sel in place to the offsets whose value satisfies the
// predicate, using tight typed loops per column kind — no per-value branching
// on the tagged Value struct. NULL never matches. The kept set is exactly the
// set rowMatches would keep: numeric kinds compare as float64 (matching
// types.Compare), booleans compare against boolean literals only, strings
// compare lexicographically, and any combination types.Compare rejects (a
// boolean column against a numeric literal, a numeric column against a string
// literal, ...) keeps nothing via the generic fallback — the typed loops are
// reserved for combinations whose comparison the row path performs too.
func (p SimplePredicate) applyVector(v Vector, sel []int) []int {
	colNum := v.Kind == types.KindInt || v.Kind == types.KindTimestamp || v.Kind == types.KindFloat
	litNum := p.Value.Kind == types.KindInt || p.Value.Kind == types.KindTimestamp || p.Value.Kind == types.KindFloat
	boolPair := v.Kind == types.KindBool && p.Value.Kind == types.KindBool
	switch {
	case p.dictResolved && v.Codes != nil:
		return p.selectDictCodes(v.Codes, v.Nulls, sel)
	case v.Ints != nil && p.isNum && ((colNum && litNum) || boolPair):
		return selectIntsCmp(v.Ints, v.Nulls, sel, p.numeric, p.Op)
	case v.Floats != nil && p.isNum && litNum:
		return selectFloatsCmp(v.Floats, v.Nulls, sel, p.numeric, p.Op)
	case v.Kind == types.KindString && p.Value.Kind == types.KindString:
		return selectStringsCmp(v.Strs, v.Nulls, sel, p.Value.Str, p.Op)
	default:
		// Odd kind combinations (string column vs numeric literal, boolean
		// column vs string literal, ...) fall back to the row comparator so
		// the semantics stay identical to the row-at-a-time scan.
		out := sel[:0]
		for _, i := range sel {
			if v.Nulls[i] {
				continue
			}
			c, err := types.Compare(v.Value(i), p.Value)
			if err != nil {
				continue
			}
			if cmpSatisfies(c, p.Op) {
				out = append(out, i)
			}
		}
		return out
	}
}

func cmpSatisfies(c int, op CompareOp) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// selectIntsCmp filters an int64 payload (ints, timestamps, booleans) against
// a numeric literal. Values convert to float64 for the comparison, exactly as
// types.Compare does on the row path.
func selectIntsCmp(vals []int64, nulls []bool, sel []int, lit float64, op CompareOp) []int {
	out := sel[:0]
	switch op {
	case CmpEq:
		for _, i := range sel {
			if !nulls[i] && float64(vals[i]) == lit {
				out = append(out, i)
			}
		}
	case CmpNe:
		for _, i := range sel {
			if !nulls[i] && float64(vals[i]) != lit {
				out = append(out, i)
			}
		}
	case CmpLt:
		for _, i := range sel {
			if !nulls[i] && float64(vals[i]) < lit {
				out = append(out, i)
			}
		}
	case CmpLe:
		for _, i := range sel {
			if !nulls[i] && float64(vals[i]) <= lit {
				out = append(out, i)
			}
		}
	case CmpGt:
		for _, i := range sel {
			if !nulls[i] && float64(vals[i]) > lit {
				out = append(out, i)
			}
		}
	case CmpGe:
		for _, i := range sel {
			if !nulls[i] && float64(vals[i]) >= lit {
				out = append(out, i)
			}
		}
	}
	return out
}

func selectFloatsCmp(vals []float64, nulls []bool, sel []int, lit float64, op CompareOp) []int {
	out := sel[:0]
	switch op {
	case CmpEq:
		for _, i := range sel {
			if !nulls[i] && vals[i] == lit {
				out = append(out, i)
			}
		}
	case CmpNe:
		for _, i := range sel {
			if !nulls[i] && vals[i] != lit {
				out = append(out, i)
			}
		}
	case CmpLt:
		for _, i := range sel {
			if !nulls[i] && vals[i] < lit {
				out = append(out, i)
			}
		}
	case CmpLe:
		for _, i := range sel {
			if !nulls[i] && vals[i] <= lit {
				out = append(out, i)
			}
		}
	case CmpGt:
		for _, i := range sel {
			if !nulls[i] && vals[i] > lit {
				out = append(out, i)
			}
		}
	case CmpGe:
		for _, i := range sel {
			if !nulls[i] && vals[i] >= lit {
				out = append(out, i)
			}
		}
	}
	return out
}

func selectStringsCmp(vals []string, nulls []bool, sel []int, lit string, op CompareOp) []int {
	out := sel[:0]
	switch op {
	case CmpEq:
		for _, i := range sel {
			if !nulls[i] && vals[i] == lit {
				out = append(out, i)
			}
		}
	case CmpNe:
		for _, i := range sel {
			if !nulls[i] && vals[i] != lit {
				out = append(out, i)
			}
		}
	case CmpLt:
		for _, i := range sel {
			if !nulls[i] && vals[i] < lit {
				out = append(out, i)
			}
		}
	case CmpLe:
		for _, i := range sel {
			if !nulls[i] && vals[i] <= lit {
				out = append(out, i)
			}
		}
	case CmpGt:
		for _, i := range sel {
			if !nulls[i] && vals[i] > lit {
				out = append(out, i)
			}
		}
	case CmpGe:
		for _, i := range sel {
			if !nulls[i] && vals[i] >= lit {
				out = append(out, i)
			}
		}
	}
	return out
}
