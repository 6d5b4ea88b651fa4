package analytics

import (
	"fmt"

	"idaax/internal/accel"
	"idaax/internal/core"
	"idaax/internal/obs"
	"idaax/internal/planner"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// This file is how the IDAX.* procedures read their input as partitions.
// Every training, summary and scoring procedure has one body: readPartitions
// reduces the input table one partition at a time. A table on a sharded
// backend scatters over the members that own its rows
// (accel.MultiShard.CallShardLocal), so only partials — sufficient
// statistics, completion counts — return to the coordinator for merging, and
// derived rows (predictions, cluster assignments) are written on the shard
// that computed them; any other table is one partition, read whole and
// written through the routed insert path. Every trainer but DECISION_TREE
// runs the same code for any partition count; greedy tree splits do not
// decompose into per-partition sums, so several partitions grow a forest.

// scatterTarget returns the backend a procedure on the given input table
// scatters over: the table's backend when it partitions the table over at
// least two members, nil when the table is read whole.
func scatterTarget(ctx *core.ProcContext, table string) accel.MultiShard {
	if ctx.BackendFor == nil {
		return nil
	}
	ms, ok := ctx.BackendFor(table).(accel.MultiShard)
	if !ok || ms.ShardCount() < 2 || !ms.HasTable(types.NormalizeName(table)) {
		return nil
	}
	return ms
}

// scatterStream runs one shard-local scatter, nesting the per-shard partition
// spans under the calling statement's trace (a no-op when the CALL is
// untraced). merge consumes each shard's partial in ordinal order as it
// completes, so single-pass reductions (moment merges, completion counts)
// never hold one partial per shard at the coordinator.
func scatterStream(ctx *core.ProcContext, be accel.MultiShard, table, proc string, fn accel.ShardLocalFunc, merge func(ordinal int, partial any) error) error {
	sp := ctx.Span.Child("analytics")
	sp.Label(obs.LabelTable, types.NormalizeName(table))
	if proc != "" {
		sp.Label(obs.LabelMode, types.NormalizeName(proc))
	}
	err := be.CallShardLocal(ctx.TxnID, table, proc, sp, fn, merge)
	sp.Finish()
	return err
}

// plannerInfo asks the backend's planner catalog about a table — the same
// placement metadata (distribution key, member set, migration state) the
// query planner consults.
func plannerInfo(be accel.Backend, table string) (planner.TableInfo, bool) {
	prov, ok := be.(interface{ PlannerCatalog() planner.Catalog })
	if !ok {
		return planner.TableInfo{}, false
	}
	return prov.PlannerCatalog()(types.NormalizeName(table))
}

// writeFunc appends rows to an existing output table where a partition was
// read and returns how many it wrote.
type writeFunc func(table string, rows []types.Row) (int, error)

// readPartitions reads a procedure's input table as partitions and reduces
// each one where its rows are. On a shard group be (see scatterTarget) it
// yields one partial per member, computed shard-local through
// CallShardLocal, and hands reduce the member's ShardPartition.WriteLocal;
// the scatter skips routing, so the input must be one the procedure's
// registration declares it reads (checked before the CALL's body runs).
// With be nil it yields one partial of the whole table, read through
// the routed ctx.Query, and hands reduce the routed ctx.InsertRows.
func readPartitions[T any](ctx *core.ProcContext, be accel.MultiShard, table, proc string, reduce func(rel *relalg.Relation, write writeFunc) (T, error)) ([]T, error) {
	if be == nil {
		rel, err := readTable(ctx, table)
		if err != nil {
			return nil, err
		}
		part, err := reduce(rel, ctx.InsertRows)
		if err != nil {
			return nil, err
		}
		return []T{part}, nil
	}
	var parts []T
	err := scatterStream(ctx, be, table, proc, func(p *accel.ShardPartition) (any, error) {
		return reduce(p.Rows, p.WriteLocal)
	}, func(_ int, partial any) error {
		parts = append(parts, partial.(T))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// readDatasets reads a training input as one Dataset per partition, nil for
// a partition without usable rows, and returns the shard group it scattered
// over (nil for a whole-table read). At least one row must be usable.
func readDatasets(ctx *core.ProcContext, table, proc string, opts ExtractOptions) ([]*Dataset, accel.MultiShard, error) {
	opts.AllowEmpty = true
	be := scatterTarget(ctx, table)
	parts, err := readPartitions(ctx, be, table, proc, func(rel *relalg.Relation, _ writeFunc) (*Dataset, error) {
		ds, err := Extract(rel, opts)
		if err != nil || ds.Rows() == 0 {
			return nil, err
		}
		return ds, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if shardsUsed(parts) == 0 {
		return nil, nil, errNoUsableRows(table)
	}
	return parts, be, nil
}

// errNoUsableRows is the error of a procedure whose input has no row it can
// use (empty, or every row incomplete), on any backend.
func errNoUsableRows(table string) error {
	return fmt.Errorf("analytics: table %s has no usable rows", types.NormalizeName(table))
}

// shardsUsed counts the partitions that contributed rows.
func shardsUsed(parts []*Dataset) int {
	n := 0
	for _, ds := range parts {
		if ds != nil && ds.Rows() > 0 {
			n++
		}
	}
	return n
}

// classifierAccuracy scatters an accuracy computation: correct predictions
// over labelled rows, summed over the partitions (0 when none is labelled).
func classifierAccuracy(predict func([]float64) string, parts []*Dataset) (float64, error) {
	corrects := make([]int, len(parts))
	totals := make([]int, len(parts))
	err := forEachPart(parts, func(i int, ds *Dataset) error {
		if len(ds.Labels) != ds.Rows() {
			return nil
		}
		totals[i] = ds.Rows()
		for r := 0; r < ds.Rows(); r++ {
			if predict(ds.Features[r]) == ds.Labels[r] {
				corrects[i]++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	correct, total := 0, 0
	for i := range parts {
		correct += corrects[i]
		total += totals[i]
	}
	if total == 0 {
		return 0, nil
	}
	return float64(correct) / float64(total), nil
}

// assignmentSchema is the schema of a k-means assignment table.
func assignmentSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindString},
		types.Column{Name: "CLUSTER", Kind: types.KindInt},
	)
}

// assignmentRows turns per-partition cluster assignments into assignment-table
// rows, one batch per partition. When the CALL gave no id column
// (syntheticIDs), each partition's IDs are local row numbers that would
// collide across shards, so they are renumbered to the dense 0..N-1 a
// whole-table read produces.
func assignmentRows(parts []*Dataset, assignments [][]int, syntheticIDs bool) [][]types.Row {
	batches := make([][]types.Row, len(parts))
	base := 0
	for i, ds := range parts {
		if ds == nil || assignments[i] == nil {
			continue
		}
		rows := make([]types.Row, ds.Rows())
		for r, c := range assignments[i] {
			id := ds.IDs[r].AsString()
			if syntheticIDs {
				id = fmt.Sprint(base + r)
			}
			rows[r] = types.Row{types.NewString(id), types.NewInt(int64(c))}
		}
		base += ds.Rows()
		batches[i] = rows
	}
	return batches
}

// writeAssignments materialises cluster assignment batches, one per
// partition, where each partition was read. On a shard group the assignment
// AOT is created on the group and each shard's batch is written through
// WriteLocal. A whole-table read (be nil) — and a batch whose shard ordinal
// disappeared between the two scatters (a concurrent membership change) —
// goes through the routed insert path, so no assignment is ever dropped.
func writeAssignments(ctx *core.ProcContext, be accel.MultiShard, assignTable string, batches [][]types.Row) error {
	accName := ""
	if be != nil {
		accName = be.Name()
	}
	if err := materializeTarget(ctx, assignTable, accName, assignmentSchema(), ""); err != nil {
		return err
	}
	written, covered := 0, 0
	if be != nil {
		// proc is empty: this is the second scatter of one CALL IDAX.KMEANS,
		// and the per-procedure counters count CALLs, not scatter operations.
		err := scatterStream(ctx, be, assignTable, "", func(p *accel.ShardPartition) (any, error) {
			if p.Ordinal >= len(batches) || len(batches[p.Ordinal]) == 0 {
				return 0, nil
			}
			return p.WriteLocal(assignTable, batches[p.Ordinal])
		}, func(_ int, partial any) error {
			covered++
			written += partial.(int)
			return nil
		})
		if err != nil {
			return err
		}
	}
	for i := covered; i < len(batches); i++ {
		if len(batches[i]) == 0 {
			continue
		}
		n, err := ctx.InsertRows(assignTable, batches[i])
		written += n
		if err != nil {
			return err
		}
	}
	want := 0
	for _, b := range batches {
		want += len(b)
	}
	if written != want {
		return fmt.Errorf("analytics: wrote %d of %d cluster assignments", written, want)
	}
	return nil
}
