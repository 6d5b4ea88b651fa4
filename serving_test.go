package idaax

// Serving-layer acceptance tests: the wire protocol end-to-end over a real
// socket, admission control under saturation, session reaping and graceful
// drain, a concurrent-clients-during-rebalance stress (run with -race in CI),
// a goroutine-leak regression on shutdown, and the Close-ordering durability
// regression — an acknowledged wire commit must survive a shutdown that
// races in-flight traffic, verified with the crash-simulating filesystem.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idaax/internal/testutil/crashfs"
	"idaax/internal/wire"
)

// startWireSystem builds an in-memory fleet and a wire server on a loopback
// port, returning both plus a cleanup-registered address.
func startWireSystem(t *testing.T, n int, cfg ServeConfig) (*System, *WireServer) {
	t.Helper()
	sys := New(memoryConfig(n))
	t.Cleanup(func() { sys.Close() })
	cfg.Addr = "127.0.0.1:0"
	srv, err := sys.ServeWire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, srv
}

// TestWireEndToEnd drives DDL, DML, a query, a streamed query and an explicit
// transaction through the wire protocol against a real engine.
func TestWireEndToEnd(t *testing.T) {
	_, srv := startWireSystem(t, 1, ServeConfig{DefaultUser: "SYSADM"})
	c := wire.NewClient(srv.Addr(), nil)
	if err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()

	if _, err := c.Exec("CREATE TABLE wt (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO wt VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 {
		t.Fatalf("rows affected = %d, want 3", res.RowsAffected)
	}
	q, err := c.Query("SELECT k, v FROM wt WHERE k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || q.Rows[0][0] != "2" {
		t.Fatalf("query result = %+v", q.Rows)
	}
	if q.Routed == "" {
		t.Fatal("routed missing from wire result")
	}

	// Streamed framing over a real result set.
	var streamed int
	sres, err := c.QueryStream("SELECT k, v FROM wt", 2, func(rows [][]string) error {
		streamed += len(rows)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 3 || len(sres.Columns) != 2 {
		t.Fatalf("streamed %d rows, columns %v", streamed, sres.Columns)
	}

	// An explicit transaction spanning requests, rolled back.
	for _, stmt := range []string{"BEGIN", "INSERT INTO wt VALUES (9, 9.5)", "ROLLBACK"} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	q, err = c.Query("SELECT COUNT(*) FROM wt")
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][0] != "3" {
		t.Fatalf("rolled-back insert visible: count = %s", q.Rows[0][0])
	}
}

// TestWireOneShotBeginLeavesNoTransaction is the engine-level half of the
// one-shot transaction-leak regression (internal/wire has the protocol half):
// a BEGIN sent without a session token is refused, and no DB2 transaction
// stays open behind a session nobody holds a token for.
func TestWireOneShotBeginLeavesNoTransaction(t *testing.T) {
	sys, srv := startWireSystem(t, 1, ServeConfig{DefaultUser: "SYSADM"})
	c := wire.NewClient(srv.Addr(), nil)
	if _, err := c.Exec("CREATE TABLE leak (k BIGINT) IN ACCELERATOR IDAA1"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Exec("BEGIN")
	se, ok := err.(*wire.ServerError)
	if !ok || se.Code != wire.CodeBadRequest || !strings.Contains(se.Message, "pooled session") {
		t.Fatalf("one-shot BEGIN: err = %v, want bad_request naming pooled sessions", err)
	}
	if n := sys.Coordinator().DB2.Txns.ActiveCount(); n != 0 {
		t.Fatalf("%d transaction(s) still open after a one-shot BEGIN", n)
	}
	// One-shot statements keep auto-committing, and a pooled session still
	// carries a transaction across requests.
	if _, err := c.Exec("INSERT INTO leak VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	for _, stmt := range []string{"BEGIN", "INSERT INTO leak VALUES (2)", "COMMIT"} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	q, err := c.Query("SELECT COUNT(*) FROM leak")
	if err != nil || q.Rows[0][0] != "2" {
		t.Fatalf("count = %v, err %v; want 2", q, err)
	}
	if n := sys.Coordinator().DB2.Txns.ActiveCount(); n != 0 {
		t.Fatalf("%d transaction(s) open after COMMIT", n)
	}
}

// TestWireSaturationShedsAndPrioritises proves the serving layer under
// saturation: queue-depth fast-fails surface as 429s while admitted work
// completes, and the admission metrics land in /metrics.
func TestWireSaturationShedsAndPrioritises(t *testing.T) {
	sys, srv := startWireSystem(t, 1, ServeConfig{
		DefaultUser:    "SYSADM",
		AdmissionSlots: 1,
		AdmissionQueue: 1,
	})
	admin := sys.AdminSession()
	admin.MustExec("CREATE TABLE sat (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	for i := 0; i < 8000; i += 200 {
		var vals []string
		for j := i; j < i+200; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.5)", j, j))
		}
		admin.MustExec("INSERT INTO sat VALUES " + strings.Join(vals, ", "))
	}

	// One slot, a one-deep queue, and 24 pre-warmed connections looping
	// aggregates: far more demand than slots+queue can hold, so a healthy
	// fraction must be fast-failed.
	const clients = 24
	conns := make([]*wire.Client, clients)
	for i := range conns {
		conns[i] = wire.NewClient(srv.Addr(), nil)
		conns[i].SetPriority("batch")
		if _, err := conns[i].Query("SELECT COUNT(*) FROM sat WHERE k = 1"); err != nil {
			t.Fatal(err)
		}
	}
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range conns {
		wg.Add(1)
		go func(c *wire.Client) {
			defer wg.Done()
			<-start
			for iter := 0; iter < 10; iter++ {
				_, err := c.Query("SELECT COUNT(*), SUM(v) FROM sat")
				switch {
				case err == nil:
					ok.Add(1)
				case wire.IsShed(err):
					shed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request completed under saturation")
	}
	if shed.Load() == 0 {
		t.Fatal("no request was shed with slots=1 queue=1 and 24 looping clients")
	}
	st := srv.AdmissionStats()
	if st.Shed[1] != shed.Load() {
		t.Fatalf("controller shed %d, clients saw %d", st.Shed[1], shed.Load())
	}
	text := sys.MetricsText()
	for _, m := range []string{"admission_shed_batch", "admission_admitted_batch", "wire_requests_total"} {
		if !strings.Contains(text, m) {
			t.Errorf("/metrics missing %s", m)
		}
	}
	// The shed burst must have journaled shed + saturation events.
	evs, err := sys.Events(0, "WARN")
	if err != nil {
		t.Fatal(err)
	}
	var sawShed bool
	for _, e := range evs {
		if e.Type == "admission_shed" {
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no admission_shed event journaled")
	}
}

// TestWireQueueWaitInTrace proves admission queue time shows up in the
// statement trace via the query history.
func TestWireQueueWaitInTrace(t *testing.T) {
	sys, srv := startWireSystem(t, 1, ServeConfig{
		DefaultUser:    "SYSADM",
		AdmissionSlots: 1,
		AdmissionQueue: 64,
	})
	sys.SetSlowQueryThreshold(time.Nanosecond) // every statement records its trace
	admin := sys.AdminSession()
	admin.MustExec("CREATE TABLE qw (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	for i := 0; i < 4000; i += 200 {
		var vals []string
		for j := i; j < i+200; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.5)", j, j))
		}
		admin.MustExec("INSERT INTO qw VALUES " + strings.Join(vals, ", "))
	}

	// One slot and a burst of aggregates from pre-warmed connections: most
	// statements must spend real time in the admission queue.
	const clients = 12
	conns := make([]*wire.Client, clients)
	for i := range conns {
		conns[i] = wire.NewClient(srv.Addr(), nil)
		if _, err := conns[i].Query("SELECT COUNT(*) FROM qw WHERE k = 1"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range conns {
		wg.Add(1)
		go func(c *wire.Client) {
			defer wg.Done()
			<-start
			for iter := 0; iter < 3; iter++ {
				if _, err := c.Query("SELECT COUNT(*), SUM(v) FROM qw"); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	var found bool
	for _, rec := range sys.QueryHistory(0) {
		if strings.Contains(rec.Trace, "admission_queue") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no statement trace contains an admission_queue span")
	}
}

// TestWireSessionReapAndDrain proves the system-level pool behaviour: idle
// sessions are reaped with their transactions rolled back, and Close drains.
func TestWireSessionReapAndDrain(t *testing.T) {
	sys, srv := startWireSystem(t, 1, ServeConfig{
		DefaultUser: "SYSADM",
		IdleTimeout: 50 * time.Millisecond,
	})
	admin := sys.AdminSession()
	admin.MustExec("CREATE TABLE rp (k BIGINT) IN ACCELERATOR IDAA1")

	c := wire.NewClient(srv.Addr(), nil)
	if err := c.OpenSession(); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{"BEGIN", "INSERT INTO rp VALUES (1)"} {
		if _, err := c.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the session; the reaper must roll the transaction back.
	deadline := time.Now().Add(2 * time.Second)
	for srv.SessionCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.SessionCount() != 0 {
		t.Fatal("idle session never reaped")
	}
	res, err := admin.Query("SELECT COUNT(*) FROM rp")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "0" {
		t.Fatalf("reap did not roll back: count = %s", res.Rows[0][0])
	}

	// Close drains: afterwards the port rejects connections.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewClient(srv.Addr(), nil).Query("SELECT 1"); err == nil {
		t.Fatal("server still serving after System.Close")
	}
}

// TestWireConcurrentClientsWithRebalance is the -race stress: 200+ concurrent
// wire clients mixing reads, writes and transactions while a shard member
// joins and the group rebalances live. Every response must be correct and the
// fleet must converge.
func TestWireConcurrentClientsWithRebalance(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	sys, srv := startWireSystem(t, 3, ServeConfig{
		DefaultUser:    "SYSADM",
		AdmissionSlots: runtime.NumCPU() * 2,
		AdmissionQueue: 4096,
	})
	admin := sys.AdminSession()
	admin.MustExec("CREATE TABLE st (k BIGINT, grp BIGINT, v DOUBLE) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(k)")
	const seed = 3000
	for i := 0; i < seed; i += 200 {
		var vals []string
		for j := i; j < i+200; j++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d.5)", j, j%10, j))
		}
		admin.MustExec("INSERT INTO st VALUES " + strings.Join(vals, ", "))
	}

	const clients = 210
	var inserted atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := wire.NewClient(srv.Addr(), nil)
			if id%2 == 0 {
				c.SetPriority("batch")
			}
			<-start
			for iter := 0; iter < 4; iter++ {
				switch (id + iter) % 3 {
				case 0: // point read
					k := (id*7 + iter) % seed
					res, err := c.Query(fmt.Sprintf("SELECT v FROM st WHERE k = %d", k))
					if err != nil {
						t.Errorf("point read: %v", err)
						return
					}
					if len(res.Rows) != 1 || res.Rows[0][0] != fmt.Sprintf("%d.5", k) {
						t.Errorf("point read k=%d got %+v", k, res.Rows)
						return
					}
				case 1: // aggregate
					if _, err := c.Query("SELECT grp, COUNT(*) FROM st GROUP BY grp"); err != nil {
						t.Errorf("aggregate: %v", err)
						return
					}
				case 2: // transactional insert on a pooled session
					tc := wire.NewClient(srv.Addr(), nil)
					if err := tc.OpenSession(); err != nil {
						t.Errorf("open session: %v", err)
						return
					}
					k := 100000 + id*100 + iter
					stmts := []string{"BEGIN", fmt.Sprintf("INSERT INTO st VALUES (%d, -1, 0.5)", k), "COMMIT"}
					failed := false
					for _, s := range stmts {
						if _, err := tc.Exec(s); err != nil {
							t.Errorf("%s: %v", s, err)
							failed = true
							break
						}
					}
					_ = tc.CloseSession()
					if failed {
						return
					}
					inserted.Add(1)
				}
			}
		}(i)
	}
	close(start)
	// Live rebalance while the clients hammer the fleet.
	if err := sys.AddShardMember("", "IDAA4", 0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := sys.WaitForRebalance(""); err != nil {
		t.Fatal(err)
	}
	res, err := admin.Query("SELECT COUNT(*) FROM st WHERE grp = -1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != fmt.Sprint(inserted.Load()) {
		t.Fatalf("committed inserts = %s, want %d", got, inserted.Load())
	}
}

// TestWireShutdownGoroutineLeak is the leak regression: after Close, the
// serving layer's goroutines (HTTP server, reaper, admission waiters) must
// all be gone.
func TestWireShutdownGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := New(memoryConfig(1))
	srv, err := sys.ServeWire(ServeConfig{Addr: "127.0.0.1:0", DefaultUser: "SYSADM", IdleTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	admin := sys.AdminSession()
	admin.MustExec("CREATE TABLE lk (k BIGINT) IN ACCELERATOR IDAA1")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := wire.NewClient(srv.Addr(), nil)
			_ = c.OpenSession()
			_, _ = c.Exec(fmt.Sprintf("INSERT INTO lk VALUES (%d)", i))
			// Half the clients leak their session for the reaper to collect.
			if i%2 == 0 {
				_ = c.CloseSession()
			}
		}(i)
	}
	wg.Wait()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Idle HTTP keep-alive connections and reapers take a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
}

// TestCloseDrainsWireBeforeCheckpoint is the Close-ordering regression: a
// commit acknowledged over the wire while System.Close is racing the traffic
// must be part of the durable image — drain runs before the final checkpoint,
// and the crash filesystem then drops everything that was not made durable.
func TestCloseDrainsWireBeforeCheckpoint(t *testing.T) {
	fs := crashfs.New()
	sys, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.ServeWire(ServeConfig{Addr: "127.0.0.1:0", DefaultUser: "SYSADM"})
	if err != nil {
		t.Fatal(err)
	}
	sys.AdminSession().MustExec("CREATE TABLE dw (k BIGINT) IN ACCELERATOR IDAA1")

	// Writers hammer single-statement commits over the wire; every key whose
	// response was HTTP 200 is an acknowledged commit.
	const writers = 8
	acked := make([][]int, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := wire.NewClient(srv.Addr(), nil)
			for k := w * 1000000; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO dw VALUES (%d)", k)); err != nil {
					return // draining or closed: unacknowledged, excluded
				}
				acked[w] = append(acked[w], k)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let traffic build
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Drop everything not durable, as a process kill after the clean shutdown
	// would, then recover.
	fs.Crash()
	re, err := OpenDurable(durableConfig(fs, 1))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	res, err := re.AdminSession().Query("SELECT k FROM dw")
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool, len(res.Rows))
	for _, row := range res.Rows {
		have[row[0]] = true
	}
	var total int
	for w := range acked {
		total += len(acked[w])
		for _, k := range acked[w] {
			if !have[fmt.Sprint(k)] {
				t.Fatalf("acknowledged commit k=%d lost across shutdown", k)
			}
		}
	}
	if total == 0 {
		t.Fatal("no commit was acknowledged before Close; test proved nothing")
	}
}
