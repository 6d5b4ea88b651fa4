package shard

import (
	"slices"
	"sync"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/colstore"
	"idaax/internal/durable"
	"idaax/internal/types"
)

// commitLog records the commit and abort records a router and its members
// journal.
type commitLog struct {
	mu      sync.Mutex
	commits []int64 // member LogCommit transaction ids
	aborts  []int64
	multi   [][]durable.CommitEntry
}

func (l *commitLog) LogMultiCommit(entries []durable.CommitEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.multi = append(l.multi, slices.Clone(entries))
}

func (l *commitLog) snapshot() (commits, aborts []int64, multi [][]durable.CommitEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.commits), slices.Clone(l.aborts), slices.Clone(l.multi)
}

func (l *commitLog) note(to *[]int64, txnID int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	*to = append(*to, txnID)
}

// attach makes l the router's multi-commit journal and every member's
// journal.
func (l *commitLog) attach(r *Router, members ...*accel.Accelerator) {
	for _, m := range members {
		m.SetJournal(memberLog{l})
	}
	r.SetJournal(l)
}

// memberLog is a member's journal; it keeps the registry records in a
// shared commitLog.
type memberLog struct{ l *commitLog }

func (memberLog) LogTableOp(*colstore.TableOp)                {}
func (memberLog) LogCreateTable(string, types.Schema, string) {}
func (memberLog) LogDropTable(string)                         {}
func (m memberLog) LogCommit(txnID, _ int64)                  { m.l.note(&m.l.commits, txnID) }
func (m memberLog) LogAbort(txnID int64)                      { m.l.note(&m.l.aborts, txnID) }

// TestReplicationBatchCommitsAsOneRecord applies one replication batch that
// touches every member of a journaled 3-member group: its three member
// commits are one multi-commit record and no member journals a commit of its
// own, so a crash recovers the batch on every member or on none. A failing
// batch aborts every member's share, and neither leaves a transaction for an
// abort sweep behind.
func TestReplicationBatchCommitsAsOneRecord(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", nil)
	log := &commitLog{}
	log.attach(router, router.Members()...)

	rows := testRows(60)
	srcIDs := make([]int64, len(rows))
	for i := range srcIDs {
		srcIDs[i] = int64(i + 1)
	}
	if _, err := router.ApplyReplicated("T", replInserts(rows, srcIDs)); err != nil {
		t.Fatal(err)
	}
	commits, aborts, multi := log.snapshot()
	if len(multi) != 1 || len(multi[0]) != 3 {
		t.Fatalf("multi-commit records %v, want one with three entries", multi)
	}
	if len(commits) != 0 || len(aborts) != 0 {
		t.Fatalf("members journaled commits %v and aborts %v of their own", commits, aborts)
	}
	scopes := map[string]bool{}
	for _, e := range multi[0] {
		scopes[e.Scope] = true
		if e.Txn >= 0 || e.Seq <= 0 {
			t.Fatalf("entry %+v is not a committed internal transaction", e)
		}
	}
	for _, m := range router.Members() {
		if !scopes[m.Name()] {
			t.Fatalf("member %s missing from %v", m.Name(), multi[0])
		}
		if n := m.PendingSweeps(); n != 0 {
			t.Fatalf("member %s keeps %d committed transactions for an abort sweep", m.Name(), n)
		}
	}

	// An update image one column short fails after the inserts landed.
	bad := append(replInserts(testRows(61)[60:], []int64{61}),
		accel.ReplChange{Op: accel.ReplUpdate, SrcID: 1, Row: types.Row{types.NewInt(0)}})
	if _, err := router.ApplyReplicated("T", bad); err == nil {
		t.Fatal("a batch with a malformed update image applied")
	}
	commits, aborts, multi = log.snapshot()
	if len(multi) != 1 || len(commits) != 0 || len(aborts) == 0 {
		t.Fatalf("failed batch: %d multi-commits, commits %v, aborts %v; want its shares aborted", len(multi), commits, aborts)
	}
	for _, m := range router.Members() {
		if n := m.PendingSweeps(); n != 0 {
			t.Fatalf("member %s keeps %d aborted transactions for an abort sweep", m.Name(), n)
		}
	}
	if n, err := router.RowCount(0, "T"); err != nil || n != len(rows) {
		t.Fatalf("row count %d (%v) after the failed batch, want %d", n, err, len(rows))
	}
}

// TestRebalanceBatchCommitsAsOneRecord grows a journaled group: every
// migration batch is one multi-commit record over its source and
// destination, and no member journals a commit of its own.
func TestRebalanceBatchCommitsAsOneRecord(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", testRows(600))
	joining := accel.New("SHARD3", 2)
	log := &commitLog{}
	log.attach(router, append(router.Members(), joining)...)
	if err := router.AddMember(joining); err != nil {
		t.Fatal(err)
	}
	if err := router.WaitRebalance(); err != nil {
		t.Fatal(err)
	}
	commits, _, multi := log.snapshot()
	if batches := router.ShardingStats().RebalanceBatches; batches == 0 || int64(len(multi)) != batches {
		t.Fatalf("%d multi-commit records for %d migration batches", len(multi), batches)
	}
	for _, rec := range multi {
		if len(rec) != 2 {
			t.Fatalf("batch record %v, want the source and the joining member", rec)
		}
	}
	if len(commits) != 0 {
		t.Fatalf("members journaled commits %v of their own", commits)
	}
}
