package accel

import (
	"sync/atomic"

	"idaax/internal/colstore"
	"idaax/internal/types"
)

// Durability hooks for the accelerator. The registry journals every commit
// and abort, DDL journals create/drop, and every table journals its mutations
// through narrow callbacks (implemented by the federation coordinator on top
// of the durable store); recovery rebuilds members from the manifest image
// plus idempotent WAL replay.

// MemberJournal is the per-member durability sink: table mutations (via the
// embedded colstore.Journal), DDL, and registry transitions.
type MemberJournal interface {
	colstore.Journal
	RegistryJournal
	LogCreateTable(name string, schema types.Schema, distKey string)
	LogDropTable(name string)
}

// SetJournal attaches the member journal to the accelerator, its registry and
// every table (nil detaches everywhere). Attach only when the member is fully
// recovered: replayed mutations must not be re-journaled.
func (a *Accelerator) SetJournal(j MemberJournal) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.journal = j
	var tj colstore.Journal
	var rj RegistryJournal
	if j != nil {
		tj, rj = j, j
	}
	for _, t := range a.tables {
		t.SetJournal(tj)
	}
	a.Registry.SetJournal(rj)
}

// AdoptTable installs a recovered table (replacing any same-name table) and
// attaches the current journal to it.
func (a *Accelerator) AdoptTable(t *colstore.Table) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tables[t.Name()] = t
	if a.journal != nil {
		t.SetJournal(a.journal)
	}
}

// DropTableQuiet removes a table without journaling (WAL replay of a drop).
func (a *Accelerator) DropTableQuiet(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.tables, types.NormalizeName(name))
}

// InternalTxnCount returns the internal-transaction counter for checkpointing.
func (a *Accelerator) InternalTxnCount() int64 { return atomic.LoadInt64(&a.internalTxn) }

// RestoreInternalTxn raises the internal-transaction counter to at least n so
// recovered members never reuse an internal id observed before the crash.
func (a *Accelerator) RestoreInternalTxn(n int64) {
	for {
		cur := atomic.LoadInt64(&a.internalTxn)
		if cur >= n || atomic.CompareAndSwapInt64(&a.internalTxn, cur, n) {
			return
		}
	}
}

// SweepAbortedTxn physically clears delete markers left by a transaction that
// recovery resolved as aborted, across all tables, without journaling (the
// sweep is re-derived deterministically from the same WAL on a repeated
// crash). The registry abort itself is applied separately.
func (a *Accelerator) SweepAbortedTxn(txnID int64) {
	for _, t := range a.tableList() {
		t.ClearMarksBy(txnID)
	}
}

// SweepUncommittedSources drops, across all tables, the replication-index
// entries of versions whose creator the registry does not show as committed
// (colstore.Table.SweepUncommitted). Recovery calls it after in-doubt
// resolution, when every transaction is settled: a transaction that aborted
// before the checkpoint is absent from the restored registry, but its
// versions are in the restored tables.
func (a *Accelerator) SweepUncommittedSources() {
	committed := func(id int64) bool { return a.Registry.State(id) == TxnCommitted }
	for _, t := range a.tableList() {
		t.SweepUncommitted(committed)
	}
}

// RegistryJournal receives registry state transitions. Calls happen under the
// registry lock so the journal order equals the commit order; implementations
// must not call back into the registry.
type RegistryJournal interface {
	LogCommit(txnID, seq int64)
	LogAbort(txnID int64)
}

// SetJournal attaches a journal; nil detaches it.
func (r *Registry) SetJournal(j RegistryJournal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
}

// CommitQuiet commits txnID without journaling and returns its commit
// sequence, for a caller that journals the commit itself: the shard router
// records one batch's commits on several members as a single atomic
// multi-commit record (Accelerator.CommitTxnQuiet), and recovery records its
// in-doubt verdicts.
func (r *Registry) CommitQuiet(txnID int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitLocked(txnID)
}

// Restore replaces the registry content with a checkpoint image: the
// committed transactions with their sequences and the next sequence number.
func (r *Registry) Restore(committed map[int64]int64, nextSeq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states = make(map[int64]TxnState, len(committed))
	r.commitSeq = make(map[int64]int64, len(committed))
	for id, seq := range committed {
		r.states[id] = TxnCommitted
		r.commitSeq[id] = seq
		if seq >= nextSeq {
			nextSeq = seq + 1
		}
	}
	if nextSeq < 1 {
		nextSeq = 1
	}
	r.nextSeq = nextSeq
}

// ApplyCommit replays a journaled commit with its original sequence number.
// Idempotent: re-applying after a checkpoint that already contains the commit
// changes nothing.
func (r *Registry) ApplyCommit(txnID, seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[txnID] = TxnCommitted
	r.commitSeq[txnID] = seq
	if seq >= r.nextSeq {
		r.nextSeq = seq + 1
	}
}

// ApplyAbort replays a journaled abort.
func (r *Registry) ApplyAbort(txnID int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[txnID] = TxnAborted
	delete(r.commitSeq, txnID)
}

// UnsettledTxns returns the transactions that are neither committed nor
// aborted — after replay these are the in-doubt transactions recovery must
// resolve against the DB2-side commit evidence.
func (r *Registry) UnsettledTxns() []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []int64
	for id, st := range r.states {
		if st == TxnActive || st == TxnPrepared {
			out = append(out, id)
		}
	}
	return out
}

// Committed returns a copy of the committed-transaction map and the next
// commit sequence, for checkpointing.
func (r *Registry) Committed() (map[int64]int64, int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[int64]int64, len(r.commitSeq))
	for id, seq := range r.commitSeq {
		out[id] = seq
	}
	return out, r.nextSeq
}
