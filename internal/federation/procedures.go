package federation

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"idaax/internal/catalog"
	"idaax/internal/core"
	"idaax/internal/expr"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// sortedKeys returns a map's keys in sorted order for stable result sets.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// registerBuiltinProcedures installs the administrative stored procedures that
// mirror the SYSPROC.ACCEL_* interface of the real product. They are the
// supported way for applications to manage acceleration without leaving SQL.
// Each registration declares the tables its CALL reads or controls (see
// core.Procedure); the framework checks them before the body runs.
func (c *Coordinator) registerBuiltinProcedures() {
	register := func(p core.Procedure) { c.Procs.MustRegister(p, true) }
	// tablesArg is the position of the 'T1,T2' list in the ACCEL_*_TABLES
	// calls. The registrations declare it and eachTable reads it, so a body
	// touches only tables the framework checked.
	const tablesArg = 1
	eachTable := func(args []types.Value, fn func(table string) error) error {
		list, err := core.ArgString(args, tablesArg, "table list")
		if err != nil {
			return err
		}
		for _, table := range core.SplitList(list) {
			if err := fn(table); err != nil {
				return err
			}
		}
		return nil
	}

	register(core.Procedure{Name: "SYSPROC.ACCEL_ADD_TABLES", Reads: []int{tablesArg},
		Description: "Add DB2 tables to an accelerator (creates empty shadow copies): (accelerator, 'T1,T2'[, distKey])",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			accName := core.ArgStringDefault(args, 0, c.DefaultAccelerator())
			distKey := core.ArgStringDefault(args, 2, "")
			var added []string
			err := eachTable(args, func(table string) error {
				added = append(added, table)
				return c.Repl.AddTable(table, accName, distKey)
			})
			if err != nil {
				return nil, err
			}
			return &core.ProcResult{Message: fmt.Sprintf("added %s to %s", strings.Join(added, ","), types.NormalizeName(accName)), OutputTables: added}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_LOAD_TABLES", Reads: []int{tablesArg},
		Description: "Fully (re)load accelerated tables from DB2: (accelerator, 'T1,T2')",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			total := 0
			err := eachTable(args, func(table string) error {
				n, err := c.Repl.FullLoad(table)
				if err != nil {
					return err
				}
				c.addMoved(true, n)
				total += n
				return nil
			})
			if err != nil {
				return nil, err
			}
			return &core.ProcResult{RowsAffected: total, Message: fmt.Sprintf("loaded %d rows", total)}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_REMOVE_TABLES", Controls: []int{tablesArg},
		Description: "Remove tables from an accelerator: (accelerator, 'T1,T2')",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			if err := eachTable(args, c.Repl.RemoveTable); err != nil {
				return nil, err
			}
			return &core.ProcResult{Message: "tables removed from accelerator"}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_SET_TABLES_REPLICATION", Controls: []int{tablesArg},
		Description: "Enable or disable incremental replication: (accelerator, 'T1,T2', 'ON'|'OFF')",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			mode := strings.ToUpper(core.ArgStringDefault(args, 2, "ON"))
			set := c.Repl.DisableReplication
			if mode == "ON" || mode == "ENABLE" {
				set = c.Repl.EnableReplication
			}
			if err := eachTable(args, set); err != nil {
				return nil, err
			}
			return &core.ProcResult{Message: "replication " + mode}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_SYNC_TABLES", Reads: []int{tablesArg},
		Description: "Apply pending captured changes to accelerated tables: (accelerator[, 'T1,T2'])",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			total := 0
			var err error
			if core.ArgStringDefault(args, tablesArg, "") == "" {
				total, err = c.Repl.SyncAll()
			} else {
				err = eachTable(args, func(table string) error {
					n, err := c.Repl.ApplyPending(table)
					total += n
					return err
				})
			}
			if err != nil {
				return nil, err
			}
			c.addMoved(true, total)
			return &core.ProcResult{RowsAffected: total, Message: fmt.Sprintf("applied %d changes", total)}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_ANALYZE", Reads: []int{tablesArg},
		Description: "Rebuild planner statistics (row counts, NDV, min/max, histograms) for accelerated tables: (accelerator, 'T1,T2')",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			total := 0
			var analyzed []string
			err := eachTable(args, func(table string) error {
				meta, n, err := c.AnalyzeTable(table)
				if err != nil {
					return err
				}
				total += n
				analyzed = append(analyzed, meta.Name)
				return nil
			})
			if err != nil {
				return nil, err
			}
			return &core.ProcResult{
				RowsAffected: total,
				Message:      fmt.Sprintf("analyzed %s: %d rows", strings.Join(analyzed, ","), total),
				OutputTables: analyzed,
			}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_REBALANCE", AdminOnly: true,
		Description: "Rebalance a shard group's rows onto the current member set and wait for convergence: (group)",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			group := core.ArgStringDefault(args, 0, c.cfg.ShardGroup)
			router, err := c.ShardGroup(group)
			if err != nil {
				return nil, err
			}
			before := router.RebalanceStatus()
			router.StartRebalance()
			if err := router.WaitRebalance(); err != nil {
				return nil, err
			}
			after := router.RebalanceStatus()
			moved := after.RowsMigrated - before.RowsMigrated
			return &core.ProcResult{
				RowsAffected: int(moved),
				Message: fmt.Sprintf("rebalanced %s: %d rows migrated in %d batches (epoch %d)",
					types.NormalizeName(group), moved, after.Batches-before.Batches, after.Epoch),
			}, nil
		}})

	procedureAndUser := func(args []types.Value) (string, string, error) {
		proc, err := core.ArgString(args, 0, "procedure")
		if err != nil {
			return "", "", err
		}
		user, err := core.ArgString(args, 1, "user")
		return proc, user, err
	}

	register(core.Procedure{Name: "SYSPROC.ACCEL_GRANT_PROCEDURE", AdminOnly: true,
		Description: "Grant EXECUTE on an analytics procedure: (procedure, user)",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			proc, user, err := procedureAndUser(args)
			if err != nil {
				return nil, err
			}
			if err := c.Procs.GrantExecute(proc, user); err != nil {
				return nil, err
			}
			return &core.ProcResult{Message: "granted EXECUTE on " + types.NormalizeName(proc) + " to " + types.NormalizeName(user)}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_REVOKE_PROCEDURE", AdminOnly: true,
		Description: "Revoke EXECUTE on an analytics procedure: (procedure, user)",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			proc, user, err := procedureAndUser(args)
			if err != nil {
				return nil, err
			}
			c.Procs.RevokeExecute(proc, user)
			return &core.ProcResult{Message: "revoked"}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_METRICS",
		Description: "Snapshot the metrics registry — counters, gauges and latency histograms (count/mean/p50/p95/p99) — as one result set",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			rep := c.Obs.Snapshot()
			rel := &relalg.Relation{Cols: []expr.InputColumn{
				{Name: "METRIC", Kind: types.KindString},
				{Name: "KIND", Kind: types.KindString},
				{Name: "VALUE", Kind: types.KindFloat},
			}}
			add := func(name, kind string, v float64) {
				rel.Rows = append(rel.Rows, types.Row{
					types.NewString(name), types.NewString(kind), types.NewFloat(v),
				})
			}
			for _, k := range sortedKeys(rep.Counters) {
				add(k, "counter", float64(rep.Counters[k]))
			}
			for _, k := range sortedKeys(rep.Gauges) {
				add(k, "gauge", float64(rep.Gauges[k]))
			}
			for _, k := range sortedKeys(rep.Histograms) {
				h := rep.Histograms[k]
				ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
				add(k+"_count", "histogram", float64(h.Count))
				add(k+"_mean_ms", "histogram", ms(h.Mean))
				add(k+"_p50_ms", "histogram", ms(h.P50))
				add(k+"_p95_ms", "histogram", ms(h.P95))
				add(k+"_p99_ms", "histogram", ms(h.P99))
			}
			return &core.ProcResult{
				Relation: rel,
				Message:  fmt.Sprintf("%d metric samples", len(rel.Rows)),
			}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_QUERY_HISTORY",
		Description: "Return the most recent statements from the query history, newest first: ([n[, 'SLOW']])",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			n := int(core.ArgInt(args, 0, 50))
			slowOnly := strings.EqualFold(core.ArgStringDefault(args, 1, ""), "SLOW")
			var recs []obs.QueryRecord
			if slowOnly {
				recs = c.History.SlowQueries(n)
			} else {
				recs = c.History.Recent(n)
			}
			rel := &relalg.Relation{Cols: []expr.InputColumn{
				{Name: "SEQ", Kind: types.KindInt},
				{Name: "SQL", Kind: types.KindString},
				{Name: "USERID", Kind: types.KindString},
				{Name: "CLASS", Kind: types.KindString},
				{Name: "ROUTED_TO", Kind: types.KindString},
				{Name: "ELAPSED_MS", Kind: types.KindFloat},
				{Name: "ROWS", Kind: types.KindInt},
				{Name: "ERROR", Kind: types.KindString},
				{Name: "SLOW", Kind: types.KindInt},
			}}
			for _, r := range recs {
				slow := int64(0)
				if r.Slow() {
					slow = 1
				}
				rel.Rows = append(rel.Rows, types.Row{
					types.NewInt(r.Seq),
					types.NewString(r.SQL),
					types.NewString(r.User),
					types.NewString(r.Class),
					types.NewString(r.Routed),
					types.NewFloat(float64(r.Elapsed) / float64(time.Millisecond)),
					types.NewInt(int64(r.Rows)),
					types.NewString(r.Err),
					types.NewInt(slow),
				})
			}
			return &core.ProcResult{
				Relation: rel,
				Message:  fmt.Sprintf("%d statements", len(recs)),
			}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_EVENTS",
		Description: "Return the most recent fleet events from the journal, newest first: ([n[, 'WARN'|'ERROR']])",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			n := int(core.ArgInt(args, 0, 50))
			var f eventlog.Filter
			if s := core.ArgStringDefault(args, 1, ""); s != "" {
				sev, ok := eventlog.ParseSeverity(s)
				if !ok {
					return nil, fmt.Errorf("federation: ACCEL_EVENTS: unknown severity %q (use INFO, WARN or ERROR)", s)
				}
				f.MinSeverity = sev
			}
			evs := c.Events.Recent(n, f)
			rel := &relalg.Relation{Cols: []expr.InputColumn{
				{Name: "SEQ", Kind: types.KindInt},
				{Name: "TIME", Kind: types.KindString},
				{Name: "TYPE", Kind: types.KindString},
				{Name: "SEVERITY", Kind: types.KindString},
				{Name: "SHARD", Kind: types.KindString},
				{Name: "TABNAME", Kind: types.KindString},
				{Name: "MESSAGE", Kind: types.KindString},
			}}
			for _, e := range evs {
				rel.Rows = append(rel.Rows, types.Row{
					types.NewInt(e.Seq),
					types.NewString(e.Time.Format(time.RFC3339Nano)),
					types.NewString(e.Type),
					types.NewString(e.Severity.String()),
					types.NewString(e.Shard),
					types.NewString(e.Table),
					types.NewString(e.Message),
				})
			}
			return &core.ProcResult{
				Relation: rel,
				Message:  fmt.Sprintf("%d events", len(evs)),
			}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_TABLE_INFO", Reads: []int{0},
		Description: "Describe a table's acceleration state: (table)",
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			table, err := core.ArgString(args, 0, "table")
			if err != nil {
				return nil, err
			}
			meta, err := ctx.Catalog.Table(table)
			if err != nil {
				return nil, err
			}
			db2Rows := int64(-1)
			if st, err := c.DB2.Storage(meta.Name); err == nil {
				db2Rows = int64(st.RowCount())
			}
			accelRows := int64(-1)
			if meta.Kind != catalog.KindRegular {
				if a, err := c.Accelerator(meta.Accelerator); err == nil {
					if n, err := a.RowCount(ctx.TxnID, meta.Name); err == nil {
						accelRows = int64(n)
					}
				}
			}
			pending := int64(c.Repl.PendingChanges(meta.Name))
			msg := fmt.Sprintf("%s kind=%s accelerator=%s db2_rows=%d accel_rows=%d pending_changes=%d",
				meta.Name, meta.Kind, meta.Accelerator, db2Rows, accelRows, pending)
			return &core.ProcResult{Message: msg}, nil
		}})
}
