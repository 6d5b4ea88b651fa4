package federation

import (
	"fmt"
	"strings"
	"time"

	"idaax/internal/accel"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
	"idaax/internal/planner"
	"idaax/internal/shard"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// This file is the coordinator end of the observability layer: the
// per-statement profile (root trace span, per-class latency histogram, query
// history record), the span-tree → EXPLAIN ANALYZE aggregation, and the
// callback gauges that mirror the long-standing counters into the registry.

// ---------------------------------------------------------------------------
// Statement profiles
// ---------------------------------------------------------------------------

// profile is the observability context of one top-level statement: its root
// trace span plus what is needed to record it when it completes. A nested
// statement (a procedure body running SQL through its ProcContext) reuses the
// active profile, so the whole CALL is one history entry whose trace contains
// the inner statements' spans.
type profile struct {
	s     *Session
	sql   string
	span  *obs.Span
	owner bool
}

// beginProfile opens a profile for a statement about to execute. When a
// profile is already active on the session the statement is nested and the
// returned handle attaches to it without owning it (finish is a no-op).
func (s *Session) beginProfile(sql string) *profile {
	if s.prof != nil {
		return &profile{s: s, span: s.prof}
	}
	sp := obs.NewSpan("statement")
	if qw := s.pendingQueueWait; qw > 0 {
		s.pendingQueueWait = 0
		// The wait happened before the statement span opened; back-date a
		// finished child so the trace shows admission queue time next to
		// execution time.
		q := sp.Child("admission_queue")
		q.Start = q.Start.Add(-qw)
		q.Finish()
	}
	s.prof = sp
	return &profile{s: s, sql: sql, span: sp, owner: true}
}

// finish closes an owning profile: the root span is finished, the per-class
// latency histogram observed, and the statement recorded in the history (with
// its rendered trace when it crossed the slow threshold).
func (p *profile) finish(st sqlparse.Statement, res *Result, err error) {
	if p == nil || !p.owner {
		return
	}
	s := p.s
	s.prof = nil
	p.span.Finish()
	class := stmtClass(st)
	elapsed := p.span.Duration()

	reg := s.coord.Obs
	reg.Counter("stmt_total").Inc()
	reg.Counter("stmt_class_" + class).Inc()
	reg.Histogram("stmt_seconds_" + class).Observe(elapsed)
	if err != nil {
		reg.Counter("stmt_errors_total").Inc()
	}

	rec := obs.QueryRecord{
		SQL:     p.sql,
		User:    s.user,
		Class:   class,
		Start:   p.span.Start,
		Elapsed: elapsed,
	}
	if res != nil {
		rec.Routed = res.Routed
		rec.Rows = len(res.Rows)
		if rec.Rows == 0 {
			rec.Rows = res.RowsAffected
		}
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if th := s.coord.History.SlowThreshold(); th > 0 && elapsed >= th {
		rec.Trace = p.span.Format()
		s.coord.Events.Emitf(eventlog.TypeSlowQuery, eventlog.Warn, "", "",
			fmt.Sprintf("%s statement by %s took %s: %s", class, s.user, elapsed.Round(time.Millisecond), clipSQL(p.sql)))
	}
	s.coord.History.Record(rec)
}

// clipSQL bounds the statement text embedded in slow-query events; the full
// text stays in the query history.
func clipSQL(sql string) string {
	const max = 120
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) > max {
		return sql[:max] + "..."
	}
	return sql
}

// execSpan returns the span backend work of the current statement should
// attach to (nil when no profile is active — tracing then costs nothing).
func (s *Session) execSpan() *obs.Span { return s.prof }

// stmtClass buckets a statement for latency accounting.
func stmtClass(st sqlparse.Statement) string {
	switch st.(type) {
	case *sqlparse.SelectStmt:
		return "select"
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt, *sqlparse.TruncateStmt:
		return "dml"
	case *sqlparse.CreateTableStmt, *sqlparse.DropTableStmt, *sqlparse.AlterAcceleratorStmt:
		return "ddl"
	case *sqlparse.CallStmt:
		return "call"
	case *sqlparse.ExplainStmt:
		return "explain"
	default:
		return "other"
	}
}

// stmtText renders a short placeholder for pre-parsed statements executed
// through ExecStmt, where the original SQL text is not available.
func stmtText(st sqlparse.Statement) string {
	switch t := st.(type) {
	case *sqlparse.CallStmt:
		return "CALL " + types.NormalizeName(t.Procedure)
	case *sqlparse.SelectStmt:
		if tabs := sqlparse.ReferencedTables(t); len(tabs) > 0 {
			return "SELECT ... FROM " + strings.Join(tabs, ", ")
		}
		return "SELECT ..."
	default:
		return "(" + strings.ToUpper(stmtClass(st)) + " statement)"
	}
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE aggregation
// ---------------------------------------------------------------------------

// actualsFromSpan folds a traced execution into per-operator actuals for
// DescribeAnalyze. Scan spans are matched to plan scan operators by their
// table label: rows, pruned blocks and batches sum across shards, while the
// elapsed time is the longest single-shard scan (the wall-clock cost of the
// parallel scan). Retries sum over the whole tree.
func actualsFromSpan(root *obs.Span, resultRows int) planner.Actuals {
	a := planner.Actuals{
		Elapsed: root.Duration(),
		Rows:    int64(resultRows),
		Scans:   make(map[string]planner.ScanActuals),
	}
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name != "scan" {
			return
		}
		table := sp.GetLabel(obs.LabelTable)
		if table == "" {
			return
		}
		sa := a.Scans[table]
		sa.Rows += sp.Int(obs.KeyRows)
		if d := sp.Duration(); d > sa.Elapsed {
			sa.Elapsed = d
		}
		sa.Shards++
		sa.BlocksPruned += sp.Int(obs.KeyBlocksPruned)
		sa.Batches += sp.Int(obs.KeyBatches)
		a.Scans[table] = sa
	})
	a.Retries = root.Aggregate(obs.KeyRetries, nil)
	return a
}

// ---------------------------------------------------------------------------
// Counter mirroring
// ---------------------------------------------------------------------------

// registerObsGauges mirrors the pre-existing counters — coordinator movement
// and routing, accelerator activity, shard routing/rebalance progress, CDC
// replication lag — into the registry as callback gauges, so one snapshot
// covers the whole system without double bookkeeping on the hot paths.
func (c *Coordinator) registerObsGauges() {
	metric := func(name string, fn func() int64) { c.Obs.GaugeFunc(name, fn) }

	metric("fed_rows_moved_to_accel", func() int64 { return c.Metrics().RowsMovedToAccelerator })
	metric("fed_rows_moved_to_db2", func() int64 { return c.Metrics().RowsMovedToDB2 })
	metric("fed_rows_returned_to_client", func() int64 { return c.Metrics().RowsReturnedToClient })
	metric("fed_stmts_offloaded", func() int64 { return c.Metrics().StatementsOffloaded })
	metric("fed_stmts_local", func() int64 { return c.Metrics().StatementsLocal })
	metric("fed_procedure_calls", func() int64 { return c.Metrics().ProcedureCalls })

	// Accelerator activity sums over the paired member accelerators (shard
	// groups delegate to their members, so counting routers too would double).
	sumAccel := func(f func(accel.Stats) int64) func() int64 {
		return func() int64 {
			c.accelMu.RLock()
			defer c.accelMu.RUnlock()
			var n int64
			for _, b := range c.accels {
				if a, ok := b.(*accel.Accelerator); ok {
					n += f(a.Stats())
				}
			}
			return n
		}
	}
	metric("accel_queries", sumAccel(func(st accel.Stats) int64 { return st.QueriesRun }))
	metric("accel_rows_scanned", sumAccel(func(st accel.Stats) int64 { return st.RowsScanned }))
	metric("accel_blocks_pruned", sumAccel(func(st accel.Stats) int64 { return st.BlocksPruned }))
	metric("accel_rows_ingested", sumAccel(func(st accel.Stats) int64 { return st.RowsIngested }))
	metric("accel_dml_statements", sumAccel(func(st accel.Stats) int64 { return st.DMLStatements }))
	metric("accel_vexec_queries", sumAccel(func(st accel.Stats) int64 { return st.VectorizedQueries }))
	metric("accel_vexec_fallbacks", sumAccel(func(st accel.Stats) int64 { return st.VexecFallbacks }))

	sumShard := func(f func(shard.Stats) int64) func() int64 {
		return func() int64 {
			c.accelMu.RLock()
			defer c.accelMu.RUnlock()
			var n int64
			for _, b := range c.accels {
				if r, ok := b.(*shard.Router); ok {
					n += f(r.ShardingStats())
				}
			}
			return n
		}
	}
	metric("shard_queries_routed", sumShard(func(st shard.Stats) int64 { return st.QueriesRouted }))
	metric("shard_queries_pruned", sumShard(func(st shard.Stats) int64 { return st.QueriesPruned }))
	metric("shard_rows_gathered", sumShard(func(st shard.Stats) int64 { return st.RowsGathered }))
	metric("shard_rows_migrated", sumShard(func(st shard.Stats) int64 { return st.RowsMigrated }))
	metric("shard_rebalance_batches", sumShard(func(st shard.Stats) int64 { return st.RebalanceBatches }))
	metric("shard_rebalances_completed", sumShard(func(st shard.Stats) int64 { return st.RebalancesCompleted }))

	// Rebalance progress: how many groups are actively rebalancing and the
	// live migration rate of the fastest-moving one.
	eachRouter := func(f func(shard.RebalanceStatus) int64) func() int64 {
		return func() int64 {
			c.accelMu.RLock()
			defer c.accelMu.RUnlock()
			var n int64
			for _, b := range c.accels {
				if r, ok := b.(*shard.Router); ok {
					n += f(r.RebalanceStatus())
				}
			}
			return n
		}
	}
	metric("rebalance_active", eachRouter(func(st shard.RebalanceStatus) int64 {
		if st.Active {
			return 1
		}
		return 0
	}))
	metric("rebalance_rows_per_sec", func() int64 {
		c.accelMu.RLock()
		defer c.accelMu.RUnlock()
		var best float64
		for _, b := range c.accels {
			if r, ok := b.(*shard.Router); ok {
				if st := r.RebalanceStatus(); st.RowsPerSec > best {
					best = st.RowsPerSec
				}
			}
		}
		return int64(best)
	})
	metric("rebalance_migrating_tables", eachRouter(func(st shard.RebalanceStatus) int64 {
		return int64(len(st.MigratingTables))
	}))

	// CDC replication: cumulative work plus the current backlog (changes
	// captured but not yet applied, and the age of the oldest of them).
	metric("repl_rows_full_loaded", func() int64 { return c.Repl.Stats().RowsFullLoaded })
	metric("repl_rows_incremental", func() int64 { return c.Repl.Stats().RowsIncremental })
	metric("repl_pending_changes", func() int64 {
		pending, _ := c.Repl.LagReport()
		return int64(pending)
	})
	metric("repl_apply_lag_ms", func() int64 {
		_, lag := c.Repl.LagReport()
		return lag.Milliseconds()
	})

	metric("history_slow_queries", func() int64 { return int64(len(c.History.SlowQueries(0))) })
}
