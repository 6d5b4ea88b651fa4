package shard

import (
	"idaax/internal/accel"
	"idaax/internal/durable"
	"idaax/internal/types"
)

// Durability hooks for the shard router. Member-local mutations and commits
// are journaled by the members themselves; the router journals what no single
// member can see — a batch it commits on several members at once (fleetTxn):
// a replication batch, or the rebalancer's hand-over from a source to its
// destinations. Each is one multi-commit WAL record, so a crash replays the
// batch on every member or on none, never stranding rows deleted on a source
// but uncommitted on their destination, or a reload applied on part of the
// fleet.

// MultiCommitJournal records an atomic cross-member commit.
type MultiCommitJournal interface {
	LogMultiCommit(entries []durable.CommitEntry)
}

// SetJournal attaches the multi-commit sink (nil detaches). Attach after
// recovery, before the rebalancer runs.
func (r *Router) SetJournal(j MultiCommitJournal) {
	r.mu.Lock()
	r.journal = j
	r.mu.Unlock()
}

func (r *Router) multiCommitJournal() MultiCommitJournal {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.journal
}

// AdoptTable registers a recovered table with the router without touching the
// members (their storage was already rebuilt from the checkpoint and WAL).
// The placement map is rebuilt for the current owner set; rows a crashed
// rebalance left misplaced are picked up by the next rebalance pass.
func (r *Router) AdoptTable(name string, schema types.Schema, distKey string) error {
	name = types.NormalizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	meta, err := r.newTableMetaLocked(name, schema, distKey)
	if err == nil {
		r.tables[name] = meta
	}
	return err
}

// fleetTxn is one batch's internal transactions across the fleet, one per
// member it touches: a replication batch (ApplyReplicated) or a rebalance
// hand-over (moveBatch). Member i's transaction opens on first use, and end
// commits every opened one together or aborts them all.
type fleetTxn struct {
	r    *Router
	ms   []*accel.Accelerator
	txns []int64 // per member; 0 until opened
}

func (r *Router) beginFleetTxn(ms []*accel.Accelerator) *fleetTxn {
	return &fleetTxn{r: r, ms: ms, txns: make([]int64, len(ms))}
}

// txn returns member i's internal transaction, opening it on first use.
func (f *fleetTxn) txn(i int) int64 {
	if f.txns[i] == 0 {
		f.txns[i] = f.ms[i].NextInternalTxn()
	}
	return f.txns[i]
}

// end commits every opened transaction when commit is set and aborts them
// all otherwise, under the commit fence, so a query's snapshot set sees the
// whole batch or none of it. With a journal attached the commits are one
// multi-commit record: after a crash every member's share replays or none
// does.
func (f *fleetTxn) end(commit bool) {
	f.r.commitMu.Lock()
	defer f.r.commitMu.Unlock()
	j := f.r.multiCommitJournal()
	var entries []durable.CommitEntry
	for i, txn := range f.txns {
		m := f.ms[i]
		switch {
		case txn == 0:
		case !commit:
			m.AbortTxn(txn)
		case j == nil:
			m.CommitTxn(txn)
		default:
			entries = append(entries, durable.CommitEntry{Scope: m.Name(), Txn: txn, Seq: m.CommitTxnQuiet(txn)})
		}
	}
	if len(entries) > 0 {
		j.LogMultiCommit(entries)
	}
}
