package idaax_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"idaax"
)

// insertFacts appends n rows with ids from..from+n-1 to the DB2 table FACTS.
func insertFacts(t *testing.T, s *idaax.Session, from, n int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("INSERT INTO facts VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", from+i, i%7)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
}

// TestReloadIsAtomic counts an accelerated table in one session while another
// grows the DB2 table by 10 rows and reloads it with ACCEL_LOAD_TABLES, again
// and again. A reload replaces the shadow contents in one transaction, so
// every count must be a total some reload produced — never 0 (the old rows
// gone, the new ones not yet there) and never the rows of only some shards.
func TestReloadIsAtomic(t *testing.T) {
	const seeded, reloads, growth = 1000, 25, 10
	for _, tc := range []struct {
		name, accel, key string
		members          int
	}{
		{"IDAA1", "IDAA1", "", 1},
		{"hash", "SHARDS", ", 'ID'", 3},
		{"round-robin", "SHARDS", "", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newShardedSystem(t, tc.members)
			defer sys.Close()
			s := sys.AdminSession()
			if _, err := s.Exec("CREATE TABLE facts (id BIGINT, v DOUBLE)"); err != nil {
				t.Fatal(err)
			}
			for from := 0; from < seeded; from += 250 {
				insertFacts(t, s, from, 250)
			}
			load := fmt.Sprintf("CALL SYSPROC.ACCEL_LOAD_TABLES('%s', 'FACTS')", tc.accel)
			for _, sql := range []string{fmt.Sprintf("CALL SYSPROC.ACCEL_ADD_TABLES('%s', 'FACTS'%s)", tc.accel, tc.key), load} {
				if _, err := s.Exec(sql); err != nil {
					t.Fatal(err)
				}
			}
			totals := map[int]bool{}
			for i := 0; i <= reloads; i++ {
				totals[seeded+i*growth] = true
			}

			reader := sys.AdminSession()
			stop := make(chan struct{})
			var wrong []string
			reads := 0
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := reader.Query("SELECT COUNT(*) FROM facts")
					reads++
					if err != nil {
						wrong = append(wrong, err.Error())
						continue
					}
					if n, _ := strconv.Atoi(res.Rows[0][0]); !totals[n] || res.Routed != tc.accel {
						wrong = append(wrong, res.Rows[0][0]+" via "+res.Routed)
					}
				}
			}()
			for i := 1; i <= reloads; i++ {
				insertFacts(t, s, seeded+i*growth, growth)
				if _, err := s.Exec(load); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			if len(wrong) > 0 {
				t.Fatalf("%d of %d counts were neither the old total nor the new one, e.g. %v", len(wrong), reads, wrong[:min(len(wrong), 8)])
			}
		})
	}
}

// TestFailedAccelWriteRollsBackTxn runs a DELETE and an UPDATE that fail
// midway (division by zero at x = 50) inside an explicit transaction on an
// accelerator-only table. The accelerator cannot undo one statement, so the
// failure must roll the whole transaction back: the error says so, COMMIT
// finds no transaction, and every row is untouched — on one accelerator and
// on a 3-member hash group.
func TestFailedAccelWriteRollsBackTxn(t *testing.T) {
	for _, tc := range []struct {
		name, ddl string
		members   int
	}{
		{"IDAA1", "IN ACCELERATOR IDAA1", 1},
		{"hash", "IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(x)", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newShardedSystem(t, tc.members)
			defer sys.Close()
			s := sys.AdminSession()
			if _, err := s.Exec("CREATE TABLE t (x BIGINT, y BIGINT) " + tc.ddl); err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString("INSERT INTO t VALUES ")
			for i := 0; i < 100; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 0)", i)
			}
			if _, err := s.Exec(sb.String()); err != nil {
				t.Fatal(err)
			}
			for _, write := range []string{
				"DELETE FROM t WHERE 10 / (x - 50) > -1000",
				"UPDATE t SET y = 1 WHERE 10 / (x - 50) > -1000",
			} {
				if _, err := s.Exec("BEGIN"); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Exec(write); err == nil || !strings.Contains(err.Error(), "rolled back") {
					t.Fatalf("%s: err = %v, want a failure that rolled the transaction back", write, err)
				}
				if s.InTransaction() {
					t.Fatalf("%s: transaction still open after the failed write", write)
				}
				if _, err := s.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "no transaction is active") {
					t.Fatalf("%s: COMMIT err = %v, want no transaction is active", write, err)
				}
				res, err := s.Query("SELECT COUNT(*), SUM(y) FROM t")
				if err != nil {
					t.Fatal(err)
				}
				if res.Rows[0][0] != "100" || res.Rows[0][1] != "0" {
					t.Fatalf("%s: COUNT, SUM(y) = %v after the rollback, want 100, 0", write, res.Rows[0])
				}
			}
			// The session goes on: a later transaction deletes and commits.
			if _, err := s.ExecScript("BEGIN; DELETE FROM t WHERE x < 10; COMMIT"); err != nil {
				t.Fatal(err)
			}
			if res, err := s.Query("SELECT COUNT(*) FROM t"); err != nil || res.Rows[0][0] != "90" {
				t.Fatalf("count after a committed delete = %v, %v; want 90", res, err)
			}
		})
	}
}
