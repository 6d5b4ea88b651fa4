package colstore

import (
	"slices"

	"idaax/internal/stats"
	"idaax/internal/types"
)

// TableOpKind enumerates the journaled mutations of a columnar table.
type TableOpKind int

const (
	// TableOpInsert appends a batch of row versions.
	TableOpInsert TableOpKind = iota
	// TableOpMarks sets deletion markers.
	TableOpMarks
	// TableOpUnmarks clears deletion markers (rollback).
	TableOpUnmarks
)

// TableOp is one journaled mutation. Seq is the table's operation sequence
// number: every journaled mutation gets the next number under the table
// lock, and a checkpoint snapshot records the sequence it covers — replay
// skips ops at or below the snapshot's sequence, which makes the
// checkpoint/WAL cut exact without quiescing writers.
//
// Deletes and undos carry the explicit affected indexes rather than their
// logical form (predicate, visibility): replaying TRUNCATE or DELETE
// logically against replay-time visibility could resolve differently than it
// did live, silently corrupting recovery.
type TableOp struct {
	Table  string
	Seq    int64
	Kind   TableOpKind
	Base   int // row count before an insert
	Rows   []types.Row
	SrcIDs []int64
	Idxs   []int64
	Txn    int64
}

// Journal receives every mutation of a table, called under the table lock so
// the journal order is exactly the mutation order. Implementations must not
// call back into the table. Append failures are latched by the journal
// implementation and surfaced on the next durability barrier (commit/sync),
// matching crash semantics: an unjournaled mutation is never acknowledged.
type Journal interface {
	LogTableOp(op *TableOp)
}

// SetJournal attaches a journal; nil detaches it.
func (t *Table) SetJournal(j Journal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal = j
}

// OpSeq returns the table's current operation sequence number.
func (t *Table) OpSeq() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.opSeq
}

// logLocked journals op with the next sequence number. Caller holds t.mu.
func (t *Table) logLocked(kind TableOpKind, base int, rows []types.Row, srcIDs []int64, idxs []int64, txn int64) {
	t.opSeq++
	if t.journal == nil {
		return
	}
	t.journal.LogTableOp(&TableOp{
		Table: t.name, Seq: t.opSeq, Kind: kind,
		Base: base, Rows: rows, SrcIDs: srcIDs, Idxs: idxs, Txn: txn,
	})
}

// ---------------------------------------------------------------------------
// Checkpoint capture and restore
// ---------------------------------------------------------------------------

// ColumnData is one column's raw payload, as captured for a segment file and
// as loaded back from one. Zone maps are not part of it: they are rebuilt on
// restore. For dictionary-encoded string columns Dict and Codes carry the
// dictionary (in code order) and the per-row codes alongside Strs; the
// segment encoder persists the dictionary form (each distinct string stored
// once) and the decoder re-materializes Strs, so consumers can always read
// Strs regardless of how the column travelled.
type ColumnData struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
	Dict   []string
	Codes  []int32
}

// TableSnapshot is a consistent point-in-time image of a table, cheap enough
// to take under the table lock: column payload slices and created/srcIDs are
// append-only, so the snapshot shares their backing arrays (a later append
// that grows them leaves the captured prefix untouched); deleted mutates in
// place and is deep-copied.
type TableSnapshot struct {
	Name    string
	Schema  types.Schema
	DistKey string
	OpSeq   int64
	Created []int64
	Deleted []int64
	SrcIDs  []int64
	Cols    []ColumnData
}

// Snapshot captures the table. The result is immutable even while writers
// continue appending.
func (t *Table) Snapshot() *TableSnapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.created)
	snap := &TableSnapshot{
		Name:    t.name,
		Schema:  t.schema,
		DistKey: t.distKey,
		OpSeq:   t.opSeq,
		Created: t.created[:n:n],
		Deleted: append([]int64(nil), t.deleted[:n]...),
		SrcIDs:  t.srcIDs[:n:n],
		Cols:    make([]ColumnData, len(t.cols)),
	}
	for i, c := range t.cols {
		cd := ColumnData{Kind: c.Kind}
		switch c.Kind {
		case types.KindInt, types.KindTimestamp, types.KindBool:
			cd.Ints = c.ints[:n:n]
		case types.KindFloat:
			cd.Floats = c.floats[:n:n]
		default:
			cd.Strs = c.strs[:n:n]
			if c.DictEncoded() {
				d := len(c.dict)
				cd.Dict = c.dict[:d:d]
				cd.Codes = c.codes[:n:n]
			}
		}
		cd.Nulls = c.nulls[:n:n]
		snap.Cols[i] = cd
	}
	return snap
}

// restoreColumn rebuilds a column, including its zone maps, from raw payload.
func restoreColumn(cd ColumnData, n int) *Column {
	c := NewColumn(cd.Kind)
	c.nulls = cd.Nulls[:n:n]
	switch cd.Kind {
	case types.KindInt, types.KindTimestamp, types.KindBool:
		c.ints = cd.Ints[:n:n]
		for i := 0; i < n; i++ {
			if c.nulls[i] {
				c.updateZone(i, 0, false)
			} else {
				c.updateZone(i, float64(c.ints[i]), true)
			}
		}
	case types.KindFloat:
		c.floats = cd.Floats[:n:n]
		for i := 0; i < n; i++ {
			if c.nulls[i] {
				c.updateZone(i, 0, false)
			} else {
				c.updateZone(i, c.floats[i], true)
			}
		}
	default:
		c.strs = cd.Strs[:n:n]
		for i := 0; i < n; i++ {
			c.updateZone(i, 0, false)
			c.updateZoneStr(i, c.strs[i], !c.nulls[i])
			// Rebuild the dictionary by append order — the same first-
			// appearance walk the live column performed, so the restored
			// dictionary (codes included) is identical, and a column that
			// spilled spills again at the same row.
			c.appendDict(i, c.strs[i], !c.nulls[i])
		}
	}
	return c
}

// RestoreTable rebuilds a table from a snapshot: columns with fresh zone
// maps, the live-version source index, and the incremental planner
// statistics (one observed insert per version, one observed delete per set
// marker), exactly as the live table accumulated them.
func RestoreTable(snap *TableSnapshot) *Table {
	n := len(snap.Created)
	t := &Table{
		name:    snap.Name,
		schema:  snap.Schema,
		distKey: snap.DistKey,
		opSeq:   snap.OpSeq,
		created: snap.Created[:n:n],
		deleted: append([]int64(nil), snap.Deleted[:n]...),
		srcIDs:  snap.SrcIDs[:n:n],
		bySrc:   make(map[int64]int),
		cols:    make([]*Column, len(snap.Cols)),
		stats:   stats.NewCollector(snap.Schema),
	}
	for i, cd := range snap.Cols {
		t.cols[i] = restoreColumn(cd, n)
	}
	for i := 0; i < n; i++ {
		t.stats.ObserveInsert(t.readRowLocked(i))
		if t.deleted[i] != 0 {
			t.stats.ObserveDelete()
		} else if src := t.srcIDs[i]; src >= 0 {
			t.bySrc[src] = i
		}
	}
	return t
}

// ---------------------------------------------------------------------------
// WAL replay
// ---------------------------------------------------------------------------

// ApplyOp replays one journaled mutation. Ops at or below the snapshot's
// sequence number are already reflected in the loaded segments and are
// skipped; everything later applies exactly once, in journal order. The
// replayed rows were validated before they were journaled, so they append
// without re-validation.
func (t *Table) ApplyOp(op *TableOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if op.Seq <= t.opSeq {
		return
	}
	t.opSeq = op.Seq
	switch op.Kind {
	case TableOpInsert:
		for ri, row := range op.Rows {
			for ci, col := range t.cols {
				col.Append(row[ci])
			}
			t.stats.ObserveInsert(row)
			idx := len(t.created)
			t.created = append(t.created, op.Txn)
			t.deleted = append(t.deleted, 0)
			src := int64(-1)
			if op.SrcIDs != nil {
				src = op.SrcIDs[ri]
				if src >= 0 {
					t.bySrc[src] = idx
				}
			}
			t.srcIDs = append(t.srcIDs, src)
		}
	case TableOpMarks:
		for _, idx := range op.Idxs {
			i := int(idx)
			if i >= 0 && i < len(t.deleted) && t.deleted[i] == 0 {
				t.deleted[i] = op.Txn
				t.stats.ObserveDelete()
				if src := t.srcIDs[i]; src >= 0 {
					delete(t.bySrc, src)
				}
			}
		}
	case TableOpUnmarks:
		for _, idx := range op.Idxs {
			i := int(idx)
			if i >= 0 && i < len(t.deleted) && t.deleted[i] == op.Txn {
				t.deleted[i] = 0
				t.stats.ObserveUndelete()
				if src := t.srcIDs[i]; src >= 0 {
					t.bySrc[src] = i
				}
			}
		}
	}
}

// SweepUncommitted runs the unjournaled abort sweep (undoBy) for every
// creator of a source-indexed version that committed does not report as
// committed, and returns how many creators it swept. A checkpoint image
// forgets aborted transactions, so RestoreTable indexes their versions'
// source ids like any other; recovery calls this once the registry's
// verdicts are final, so a retried replication batch does not skip those
// rows as already mirrored.
func (t *Table) SweepUncommitted(committed func(txnID int64) bool) int {
	t.mu.RLock()
	var creators []int64
	seen := make(map[int64]bool)
	for _, i := range t.bySrc {
		if c := t.created[i]; !seen[c] {
			seen[c] = true
			if !committed(c) {
				creators = append(creators, c)
			}
		}
	}
	t.mu.RUnlock()
	slices.Sort(creators)
	for _, c := range creators {
		t.undoBy(c, false)
	}
	return len(creators)
}

// ClearMarksBy is the abort sweep of UndoDeletesBy without journaling;
// recovery uses it to sweep up after transactions it resolves as
// aborted (the journal already proves the markers, and recovery re-derives
// the sweep deterministically from the same WAL on a repeated crash).
func (t *Table) ClearMarksBy(txnID int64) int { return t.undoBy(txnID, false) }
