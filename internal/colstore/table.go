package colstore

import (
	"fmt"
	"sync"

	"idaax/internal/obs"
	"idaax/internal/par"
	"idaax/internal/stats"
	"idaax/internal/types"
)

// Visibility decides whether a row version (created by createTxn, deleted by
// deleteTxn, 0 when not deleted) is visible to the caller's snapshot. The
// accelerator's transaction registry provides implementations.
//
// A Visibility must be a pure function of its two arguments for the length of
// a scan: the batch scan calls it once per run of neighbouring versions that
// share a (created, deleted) pair and reuses the answer for the whole run.
// accel.Snapshot.Visible, the one production implementation, reads a commit
// map copied when the snapshot was taken, so it qualifies.
type Visibility func(createdTxn, deletedTxn int64) bool

// CompareOp is the comparison operator of a pushed-down simple predicate.
type CompareOp int

const (
	CmpEq CompareOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// SimplePredicate is a "column <op> literal" predicate that the accelerator
// pushes into the columnar scan so that zone maps can prune whole blocks.
type SimplePredicate struct {
	ColIdx  int
	Op      CompareOp
	Value   types.Value
	numeric float64
	isNum   bool

	// Dictionary resolution (filled by resolveDictPredicates under the scan's
	// read lock when the column is dictionary-encoded): dictMatch[code]
	// reports whether dict[code] satisfies the predicate, dictEq is the
	// literal's own code (-1 when absent from the dictionary).
	dictMatch    []bool
	dictEq       int32
	dictResolved bool
}

// NewSimplePredicate builds a pushdown predicate.
func NewSimplePredicate(colIdx int, op CompareOp, v types.Value) SimplePredicate {
	p := SimplePredicate{ColIdx: colIdx, Op: op, Value: v}
	if f, ok := v.AsFloat(); ok && v.Kind != types.KindString {
		p.numeric = f
		p.isNum = true
	}
	return p
}

// blockMayMatch consults the zone map of the predicate's column: the numeric
// min/max for numeric columns, the lexicographic min/max for string columns
// compared against string literals. Any combination without a zone map (e.g. a
// string column compared to a numeric literal) conservatively matches, so
// pruning can only ever skip blocks that provably hold no matching row.
func (p SimplePredicate) blockMayMatch(col *Column, block int) bool {
	if p.Value.Kind == types.KindString && col.Kind == types.KindString {
		if p.dictResolved && col.DictEncoded() {
			// Dictionary code ranges: codes are assigned in first-appearance
			// order, so they prune equality exactly and detect single-code
			// blocks; ordered operators fall through to the string zone map.
			minC, maxC, ok := col.BlockCodeRange(block)
			if !ok {
				return false
			}
			switch p.Op {
			case CmpEq:
				return p.dictEq >= minC && p.dictEq <= maxC
			case CmpNe:
				if minC == maxC && minC == p.dictEq {
					return false
				}
			}
		}
		min, max, ok := col.BlockStringRange(block)
		if !ok {
			// Block contains only NULLs; NULL never satisfies a comparison.
			return false
		}
		s := p.Value.Str
		switch p.Op {
		case CmpEq:
			return s >= min && s <= max
		case CmpLt:
			return min < s
		case CmpLe:
			return min <= s
		case CmpGt:
			return max > s
		case CmpGe:
			return max >= s
		default:
			return true
		}
	}
	if !p.isNum || !col.IsNumeric() {
		return true
	}
	min, max, ok := col.BlockRange(block)
	if !ok {
		// Block contains only NULLs; NULL never satisfies a comparison.
		return false
	}
	switch p.Op {
	case CmpEq:
		return p.numeric >= min && p.numeric <= max
	case CmpLt:
		return min < p.numeric
	case CmpLe:
		return min <= p.numeric
	case CmpGt:
		return max > p.numeric
	case CmpGe:
		return max >= p.numeric
	default:
		return true
	}
}

// rowMatches evaluates the predicate for one row.
func (p SimplePredicate) rowMatches(col *Column, i int) bool {
	if col.IsNull(i) {
		return false
	}
	v := col.Value(i)
	c, err := types.Compare(v, p.Value)
	if err != nil {
		return false
	}
	switch p.Op {
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

// Table is a multi-versioned columnar table.
type Table struct {
	mu      sync.RWMutex
	name    string
	schema  types.Schema
	distKey string

	cols    []*Column
	created []int64
	deleted []int64
	srcIDs  []int64       // originating DB2 row id for replicated rows, -1 otherwise
	bySrc   map[int64]int // live version index per source row id

	// stats accumulates planner statistics incrementally under mu; ANALYZE
	// rebuilds them exactly (see Analyze).
	stats *stats.Collector

	// opSeq numbers journaled mutations; journal (when set) receives each
	// mutation under mu. See durable.go.
	opSeq   int64
	journal Journal
}

// NewTable creates an empty columnar table.
func NewTable(name string, schema types.Schema, distKey string) *Table {
	cols := make([]*Column, schema.Len())
	for i, c := range schema.Columns {
		cols[i] = NewColumn(c.Kind)
	}
	return &Table{
		name:    types.NormalizeName(name),
		schema:  schema,
		distKey: types.NormalizeName(distKey),
		cols:    cols,
		bySrc:   make(map[int64]int),
		stats:   stats.NewCollector(schema),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.schema
}

// DistKey returns the distribution column ("" = round robin).
func (t *Table) DistKey() string { return t.distKey }

// VersionCount returns the total number of row versions (including deleted).
func (t *Table) VersionCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.created)
}

// ApproxBytes estimates the table's memory footprint.
func (t *Table) ApproxBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b int64
	for _, c := range t.cols {
		b += c.ApproxBytes()
	}
	b += int64(len(t.created)+len(t.deleted)+len(t.srcIDs)) * 8
	return b
}

// Resources reports the table's storage footprint in per-column detail:
// bytes, row-block counts and zone-map slots, for the ops plane's resource
// accounting. Rows counts row versions (deleted-but-unswept included), so the
// number also surfaces version-sweep debt.
func (t *Table) Resources() obs.TableResources {
	t.mu.RLock()
	defer t.mu.RUnlock()
	res := obs.TableResources{Table: t.name, Rows: int64(len(t.created))}
	for i, c := range t.cols {
		cr := obs.ColumnResources{
			Name:           t.schema.Columns[i].Name,
			Kind:           c.Kind.String(),
			Bytes:          c.ApproxBytes(),
			Blocks:         c.Blocks(),
			ZoneMapEntries: c.ZoneMapEntries(),
		}
		res.Bytes += cr.Bytes
		res.ZoneMapEntries += cr.ZoneMapEntries
		if cr.Blocks > res.Blocks {
			res.Blocks = cr.Blocks
		}
		res.Columns = append(res.Columns, cr)
	}
	// Version metadata (created/deleted txn ids, source row ids).
	res.Bytes += int64(len(t.created)+len(t.deleted)+len(t.srcIDs)) * 8
	return res
}

// Insert appends new row versions created by txnID. Rows are validated and
// coerced against the schema.
func (t *Table) Insert(txnID int64, rows []types.Row) (int, error) {
	return t.insert(txnID, rows, nil)
}

// InsertWithSource appends rows that mirror DB2 rows (replication); srcIDs
// aligns with rows and enables later UpdateBySource/DeleteBySource calls.
func (t *Table) InsertWithSource(txnID int64, rows []types.Row, srcIDs []int64) (int, error) {
	if len(srcIDs) != len(rows) {
		return 0, fmt.Errorf("colstore: %d source ids for %d rows", len(srcIDs), len(rows))
	}
	return t.insert(txnID, rows, srcIDs)
}

func (t *Table) insert(txnID int64, rows []types.Row, srcIDs []int64) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.created)
	// Every row is validated into one slab sized for the whole batch; each
	// appended row is a full slice of it, so the journal can keep them.
	width := len(t.schema.Columns)
	slab := make([]types.Value, 0, len(rows)*width)
	appended := make([]types.Row, 0, len(rows))
	appendedSrc := make([]int64, 0, len(rows))
	journalAppended := func() {
		if len(appended) > 0 {
			t.logLocked(TableOpInsert, base, appended, appendedSrc, nil, txnID)
		}
	}
	count := 0
	for ri, row := range rows {
		var err error
		if slab, err = types.AppendValidRow(slab, t.schema, row); err != nil {
			journalAppended()
			return count, err
		}
		validated := types.Row(slab[len(slab)-width : len(slab) : len(slab)])
		for ci, col := range t.cols {
			col.Append(validated[ci])
		}
		t.stats.ObserveInsert(validated)
		idx := len(t.created)
		t.created = append(t.created, txnID)
		t.deleted = append(t.deleted, 0)
		// A negative source id means "no DB2 source row" (bulk imports mix
		// replicated and native rows); only real ids join the bySrc index.
		src := int64(-1)
		if srcIDs != nil {
			src = srcIDs[ri]
			if src >= 0 {
				t.bySrc[src] = idx
			}
		}
		t.srcIDs = append(t.srcIDs, src)
		appended = append(appended, validated)
		appendedSrc = append(appendedSrc, src)
		count++
	}
	journalAppended()
	return count, nil
}

// ReadRow materialises the idx-th row version.
func (t *Table) ReadRow(idx int) types.Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.readRowLocked(idx)
}

func (t *Table) readRowLocked(idx int) types.Row {
	row := make(types.Row, len(t.cols))
	for ci, col := range t.cols {
		row[ci] = col.Value(idx)
	}
	return row
}

// VisibleIndices returns the version indices visible under vis.
func (t *Table) VisibleIndices(vis Visibility) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int
	for i := range t.created {
		if vis(t.created[i], t.deleted[i]) {
			out = append(out, i)
		}
	}
	return out
}

// VisibleRowCount counts rows visible under vis.
func (t *Table) VisibleRowCount(vis Visibility) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for i := range t.created {
		if vis(t.created[i], t.deleted[i]) {
			n++
		}
	}
	return n
}

// MarkDeleted marks a row version deleted by txnID. It reports whether the
// version was live before the call.
func (t *Table) MarkDeleted(idx int, txnID int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.deleted) || t.deleted[idx] != 0 {
		return false
	}
	t.deleted[idx] = txnID
	t.stats.ObserveDelete()
	if src := t.srcIDs[idx]; src >= 0 {
		delete(t.bySrc, src)
	}
	t.logLocked(TableOpMarks, 0, nil, nil, []int64{int64(idx)}, txnID)
	return true
}

// UndoDelete clears a deletion marker set by txnID (rollback support).
func (t *Table) UndoDelete(idx int, txnID int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx >= 0 && idx < len(t.deleted) && t.deleted[idx] == txnID {
		t.deleted[idx] = 0
		t.stats.ObserveUndelete()
		if src := t.srcIDs[idx]; src >= 0 {
			t.bySrc[src] = idx
		}
		t.logLocked(TableOpUnmarks, 0, nil, nil, []int64{int64(idx)}, txnID)
	}
}

// UndoDeletesBy sweeps up after the aborted transaction txnID and returns how
// many rows were resurrected. Accelerator.AbortTxn calls it so that a
// rolled-back DELETE/UPDATE leaves its victim rows deletable again — without
// the undo the marker would keep later transactions (and the shard
// rebalancer) from ever deleting those rows, even though reads correctly
// ignore aborted deleters. The cleared markers are journaled.
func (t *Table) UndoDeletesBy(txnID int64) int { return t.undoBy(txnID, true) }

// undoBy is the abort sweep of txnID. It drops the source-index entries of
// the versions txnID created (they are never visible, so a re-applied
// replication batch must not skip their source ids as already mirrored), and
// clears every deletion marker txnID set, re-indexing the source ids those
// markers hid. journal selects whether the cleared markers are journaled.
func (t *Table) undoBy(txnID int64, journal bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	var idxs []int64
	for i, src := range t.srcIDs {
		if t.created[i] == txnID && src >= 0 && t.bySrc[src] == i {
			delete(t.bySrc, src)
		}
		if t.deleted[i] != txnID {
			continue
		}
		t.deleted[i] = 0
		t.stats.ObserveUndelete()
		if src >= 0 && t.created[i] != txnID {
			t.bySrc[src] = i
		}
		if journal {
			idxs = append(idxs, int64(i))
		}
		n++
	}
	if len(idxs) > 0 {
		t.logLocked(TableOpUnmarks, 0, nil, nil, idxs, txnID)
	}
	return n
}

// VersionMeta copies the per-version bookkeeping (creating transaction,
// deleting transaction, source row id) in storage order. Row content at an
// index stays immutable once appended, so a caller holding the copy can read
// individual rows afterwards with ReadRow; versions appended after the copy
// are simply not covered. The shard rebalancer drives its migration sweeps off
// this snapshot.
func (t *Table) VersionMeta() (created, deleted, srcIDs []int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	created = append([]int64(nil), t.created...)
	deleted = append([]int64(nil), t.deleted...)
	srcIDs = append([]int64(nil), t.srcIDs...)
	return created, deleted, srcIDs
}

// DeleteBySource marks the live version mirroring the DB2 row srcID deleted.
func (t *Table) DeleteBySource(txnID, srcID int64) bool {
	t.mu.Lock()
	idx, ok := t.bySrc[srcID]
	t.mu.Unlock()
	if !ok {
		return false
	}
	return t.MarkDeleted(idx, txnID)
}

// HasSource reports whether a live version mirrors the DB2 row srcID.
func (t *Table) HasSource(srcID int64) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.bySrc[srcID]
	return ok
}

// UpdateBySource replaces the version mirroring srcID with a new image; a
// source row that has no live version yet is simply inserted.
func (t *Table) UpdateBySource(txnID, srcID int64, row types.Row) error {
	t.DeleteBySource(txnID, srcID)
	_, err := t.InsertWithSource(txnID, []types.Row{row}, []int64{srcID})
	return err
}

// TruncateVisible marks every row version visible under vis as deleted by
// txnID and returns the number of rows affected.
func (t *Table) TruncateVisible(txnID int64, vis Visibility) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	var idxs []int64
	for i := range t.created {
		if t.deleted[i] == 0 && vis(t.created[i], t.deleted[i]) {
			t.deleted[i] = txnID
			t.stats.ObserveDelete()
			if src := t.srcIDs[i]; src >= 0 {
				delete(t.bySrc, src)
			}
			idxs = append(idxs, int64(i))
			n++
		}
	}
	if n > 0 {
		t.logLocked(TableOpMarks, 0, nil, nil, idxs, txnID)
	}
	return n
}

// Statistics returns a snapshot of the table's planner statistics.
func (t *Table) Statistics() stats.Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats.Snapshot()
}

// Analyze rebuilds the planner statistics exactly from the rows visible under
// vis, including equi-depth histograms for numeric columns, and returns the
// number of rows analyzed. It implements ANALYZE TABLE for one shard.
func (t *Table) Analyze(vis Visibility) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rows []types.Row
	for i := range t.created {
		if vis(t.created[i], t.deleted[i]) {
			rows = append(rows, t.readRowLocked(i))
		}
	}
	t.stats.AnalyzeRows(rows)
	return len(rows)
}

// ScanStats reports what a scan did, for the accelerator's monitoring tables.
type ScanStats struct {
	VersionsConsidered int
	BlocksPruned       int
	RowsMaterialized   int
	// Batches counts the column batches delivered by a batch scan (0 for the
	// row-at-a-time ParallelScan path).
	Batches int
}

// ParallelScan materialises the rows visible under vis that satisfy all
// pushed-down predicates, scanning with the requested number of worker slices
// and pruning zone-map blocks that cannot match. The result order is by row
// position (slices own contiguous ranges and results are concatenated in
// slice order). A panic in a slice worker is re-raised on the caller's
// goroutine as a *par.PanicError once every slice has stopped.
func (t *Table) ParallelScan(slices int, vis Visibility, preds []SimplePredicate) ([]types.Row, ScanStats) {
	t.mu.RLock()
	defer t.mu.RUnlock()

	n := len(t.created)
	stats := ScanStats{VersionsConsidered: n}
	if n == 0 {
		return nil, stats
	}
	slices = scanSlices(slices, n)

	type sliceResult struct {
		rows   []types.Row
		pruned int
	}
	results := make([]sliceResult, slices)
	err := par.Ranges(n, slices, func(s, lo, hi int) error {
		// First pass records surviving row indices (cheap ints), so the
		// row buffer can be allocated once at its exact final size instead
		// of growing through repeated appends on large scans.
		idxs := make([]int, 0, min(hi-lo, 4*ZoneBlockSize))
		pruned := 0
		blockStart := lo
		for blockStart < hi {
			block := blockStart / ZoneBlockSize
			blockEnd := (block + 1) * ZoneBlockSize
			if blockEnd > hi {
				blockEnd = hi
			}
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
			for i := blockStart; i < blockEnd; i++ {
				if !vis(t.created[i], t.deleted[i]) {
					continue
				}
				match := true
				for _, p := range preds {
					if !p.rowMatches(t.cols[p.ColIdx], i) {
						match = false
						break
					}
				}
				if !match {
					continue
				}
				idxs = append(idxs, i)
			}
			blockStart = blockEnd
		}
		rows := make([]types.Row, len(idxs))
		for j, i := range idxs {
			rows[j] = t.readRowLocked(i)
		}
		results[s] = sliceResult{rows: rows, pruned: pruned}
		return nil
	})
	if err != nil {
		panic(err)
	}

	total := 0
	for _, r := range results {
		total += len(r.rows)
		stats.BlocksPruned += r.pruned
	}
	out := make([]types.Row, 0, total)
	for _, r := range results {
		out = append(out, r.rows...)
	}
	stats.RowsMaterialized = len(out)
	return out, stats
}
