package shard

import (
	"errors"
	"strings"
	"testing"
	"time"

	"idaax/internal/accel"
	"idaax/internal/obs/eventlog"
	"idaax/internal/par"
)

// TestCallShardLocalPanicIsAStatementError panics inside one member's
// partition: the call fails with an error naming that member, the journal
// records the panic's stack, and the router stays usable — the table's
// migration fence is released and the next statement succeeds.
func TestCallShardLocalPanicIsAStatementError(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", testRows(300))
	journal := eventlog.New(64)
	router.SetEventLog(journal)

	var member string
	_, err := router.CallShardLocal(0, "T", "panictest", func(p *accel.ShardPartition) (any, error) {
		if p.Ordinal == 1 {
			member = p.Member
			panic("partition exploded")
		}
		return len(p.Rows.Rows), nil
	})
	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a wrapped *par.PanicError", err)
	}
	if member == "" || !strings.Contains(err.Error(), "shard "+member+":") {
		t.Fatalf("err %q does not name the panicking member %q", err, member)
	}

	events := journal.Recent(0, eventlog.Filter{Type: eventlog.TypeScatterFailed})
	if len(events) != 1 || events[0].Shard != member {
		t.Fatalf("scatter_failed events = %+v, want one for %s", events, member)
	}
	if stack := events[0].Payload["stack"]; !strings.Contains(stack, "panic_test.go") {
		t.Fatalf("event payload stack does not show the panic site: %q", stack)
	}
	if events[0].Payload["procedure"] != "panictest" {
		t.Fatalf("payload lost the procedure label: %v", events[0].Payload)
	}

	// A write takes the fence shared and the rebalance AddMember starts takes
	// it exclusively; both finish only if the failed call released it.
	done := make(chan error, 1)
	go func() {
		if _, err := router.Insert(2, "T", testRows(10)); err != nil {
			done <- err
			return
		}
		router.CommitTxn(2)
		if err := router.AddMember(accel.New("SHARD3", 2)); err != nil {
			done <- err
			return
		}
		done <- router.WaitRebalance()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Insert/AddMember blocked: the migration fence is still held")
	}

	rel, err := router.Query(0, parseSelect(t, "SELECT COUNT(*) FROM T"))
	if err != nil {
		t.Fatalf("query after the panic: %v", err)
	}
	if got := rel.Rows[0][0].Int; got != 310 {
		t.Fatalf("COUNT(*) = %d, want 310", got)
	}
}

// TestCallShardLocalStreamMergePanic panics inside the coordinator's merge:
// the call fails with the panic and no later ordinal is merged.
func TestCallShardLocalStreamMergePanic(t *testing.T) {
	router, _ := newFleet(t, 3, "ID", testRows(300))
	var merged []int
	err := router.CallShardLocalStream(0, "T", "mergepanic", nil,
		func(p *accel.ShardPartition) (any, error) { return p.Ordinal, nil },
		func(ordinal int, _ any) error {
			merged = append(merged, ordinal)
			if ordinal == 0 {
				panic("merge exploded")
			}
			return nil
		})
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Value != "merge exploded" {
		t.Fatalf("err = %v, want the merge panic", err)
	}
	if len(merged) != 1 {
		t.Fatalf("merge ran for ordinals %v after the panic", merged)
	}
}
