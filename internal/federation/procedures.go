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
// Each registration declares its signature, whose table parameters name
// the tables its CALL reads or controls (see core.Procedure); the framework
// checks them before the body runs.
func (c *Coordinator) registerBuiltinProcedures() {
	register := func(p core.Procedure) { c.Procs.MustRegister(p, true) }
	// The ACCEL_*_TABLES calls take (accelerator, 'T1,T2', ...).
	accelerator := core.Param{Name: "accelerator", Kind: core.Text, Default: c.DefaultAccelerator()}
	reads := core.Param{Name: "tables", Kind: core.InputTables, Required: true}
	controls := core.Param{Name: "tables", Kind: core.ControlledTables, Required: true}
	count := core.Param{Name: "n", Kind: core.Integer, Default: "50"}

	register(core.Procedure{Name: "SYSPROC.ACCEL_ADD_TABLES",
		Description: "Add DB2 tables to an accelerator (creates empty shadow copies)",
		Params:      []core.Param{accelerator, reads, {Name: "dist_key", Kind: core.Column}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			for _, table := range args[1].Names {
				if err := c.Repl.AddTable(table, args[0].Str, args[2].Str); err != nil {
					return nil, err
				}
			}
			return &core.ProcResult{Message: fmt.Sprintf("added %s to %s", strings.Join(args[1].Names, ","), types.NormalizeName(args[0].Str))}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_LOAD_TABLES",
		Description: "Fully (re)load accelerated tables from DB2",
		Params:      []core.Param{accelerator, reads},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			total := 0
			for _, table := range args[1].Names {
				n, err := c.Repl.FullLoad(table)
				if err != nil {
					return nil, err
				}
				c.addMoved(true, n)
				total += n
			}
			return &core.ProcResult{RowsAffected: total, Message: fmt.Sprintf("loaded %d rows", total)}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_REMOVE_TABLES",
		Description: "Remove tables from an accelerator",
		Params:      []core.Param{accelerator, controls},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			for _, table := range args[1].Names {
				if err := c.Repl.RemoveTable(table); err != nil {
					return nil, err
				}
			}
			return &core.ProcResult{Message: "tables removed from accelerator"}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_SET_TABLES_REPLICATION",
		Description: "Enable or disable incremental replication",
		Params:      []core.Param{accelerator, controls, {Name: "mode", Kind: core.Text, Default: "ON", Accepts: []string{"ON", "OFF"}}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			set := c.Repl.DisableReplication
			if args[2].Str == "ON" {
				set = c.Repl.EnableReplication
			}
			for _, table := range args[1].Names {
				if err := set(table); err != nil {
					return nil, err
				}
			}
			return &core.ProcResult{Message: "replication " + args[2].Str}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_SYNC_TABLES",
		Description: "Apply pending captured changes to accelerated tables, to every replicated one when no tables are named",
		Params:      []core.Param{accelerator, {Name: "tables", Kind: core.InputTables}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			total := 0
			if len(args[1].Names) == 0 {
				n, err := c.Repl.SyncAll()
				if err != nil {
					return nil, err
				}
				total = n
			}
			for _, table := range args[1].Names {
				n, err := c.Repl.ApplyPending(table)
				if err != nil {
					return nil, err
				}
				total += n
			}
			c.addMoved(true, total)
			return &core.ProcResult{RowsAffected: total, Message: fmt.Sprintf("applied %d changes", total)}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_ANALYZE",
		Description: "Rebuild planner statistics (row counts, NDV, min/max, histograms) for accelerated tables",
		Params:      []core.Param{accelerator, reads},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			total := 0
			for _, table := range args[1].Names {
				_, n, err := c.AnalyzeTable(table)
				if err != nil {
					return nil, err
				}
				total += n
			}
			return &core.ProcResult{
				RowsAffected: total,
				Message:      fmt.Sprintf("analyzed %s: %d rows", strings.Join(args[1].Names, ","), total),
			}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_REBALANCE", AdminOnly: true,
		Description: "Rebalance a shard group's rows onto the current member set and wait for convergence",
		Params:      []core.Param{{Name: "group", Kind: core.Text, Default: c.cfg.ShardGroup}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			group := args[0].Str
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

	procedureAndUser := []core.Param{{Name: "procedure", Kind: core.Text, Required: true}, {Name: "user", Kind: core.Text, Required: true}}

	register(core.Procedure{Name: "SYSPROC.ACCEL_GRANT_PROCEDURE", AdminOnly: true,
		Description: "Grant EXECUTE on an analytics procedure",
		Params:      procedureAndUser,
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			proc, user := args[0].Str, args[1].Str
			if err := c.Procs.GrantExecute(proc, user); err != nil {
				return nil, err
			}
			return &core.ProcResult{Message: "granted EXECUTE on " + types.NormalizeName(proc) + " to " + types.NormalizeName(user)}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_REVOKE_PROCEDURE", AdminOnly: true,
		Description: "Revoke EXECUTE on an analytics procedure",
		Params:      procedureAndUser,
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			c.Procs.RevokeExecute(args[0].Str, args[1].Str)
			return &core.ProcResult{Message: "revoked"}, nil
		}})

	register(core.Procedure{Name: "SYSPROC.ACCEL_METRICS",
		Description: "Snapshot the metrics registry — counters, gauges and latency histograms (count/mean/p50/p95/p99) — as one result set",
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
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
		Description: "Return the most recent statements from the query history, newest first; 'SLOW' keeps the slow ones",
		Params:      []core.Param{count, {Name: "filter", Kind: core.Text, Accepts: []string{"SLOW"}}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			n := int(args[0].Int)
			var all []obs.QueryRecord
			if args[1].Str == "SLOW" {
				all = c.History.SlowQueries(0)
			} else {
				all = c.History.Recent(0)
			}
			// Statement text carries its literals, so a caller other than
			// SYSADM sees only its own statements, filtered before the cut
			// to n.
			recs := all
			if catalog.CheckAdmin(ctx.User, "SYSPROC.ACCEL_QUERY_HISTORY") != nil {
				recs = all[:0]
				for _, r := range all {
					if types.NormalizeName(r.User) == types.NormalizeName(ctx.User) {
						recs = append(recs, r)
					}
				}
			}
			if n > 0 && len(recs) > n {
				recs = recs[:n]
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
		Description: "Return the most recent fleet events from the journal, newest first, at or above a severity",
		Params:      []core.Param{count, {Name: "severity", Kind: core.Text, Default: "INFO", Accepts: []string{"INFO", "WARN", "ERROR"}}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			sev, _ := eventlog.ParseSeverity(args[1].Str) // Accepts lists only severities it parses
			evs := c.Events.Recent(int(args[0].Int), eventlog.Filter{MinSeverity: sev})
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

	register(core.Procedure{Name: "SYSPROC.ACCEL_TABLE_INFO",
		Description: "Describe a table's acceleration state",
		Params:      []core.Param{{Name: "table", Kind: core.InputTable, Required: true}},
		Run: func(ctx *core.ProcContext, args []core.Arg) (*core.ProcResult, error) {
			meta, err := ctx.Catalog.Table(args[0].Str)
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
