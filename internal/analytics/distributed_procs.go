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
// Every training and summary procedure has one body: readPartitions turns the
// input table into one partial per partition. Linear and logistic regression
// and naive Bayes train the same way on any partition count; only KMEANS and
// DECISION_TREE switch trainer when there are several. A table on a sharded
// backend scatters over the members that own its rows
// (accel.MultiShard.CallShardLocal), so only partials — sufficient
// statistics, local models, completion counts — return to the coordinator for
// merging; any other table is one partition, read whole.
// PREDICT keeps a fleet route of its own (distPredict), which writes each
// prediction shard-local, next to the partition it was computed from.

// scatterTarget decides whether a procedure on the given input table should
// run shard-local: the table's backend must partition it over at least two
// members.
func scatterTarget(ctx *core.ProcContext, table string) (accel.MultiShard, bool) {
	if ctx.BackendFor == nil {
		return nil, false
	}
	ms, ok := ctx.BackendFor(table).(accel.MultiShard)
	if !ok || ms.ShardCount() < 2 || !ms.HasTable(types.NormalizeName(table)) {
		return nil, false
	}
	return ms, true
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

// readPartitions reads a procedure's input table as partitions and reduces
// each one where its rows are. A table on a shard group of two or more members
// yields one partial per member, computed shard-local through CallShardLocal
// after the SELECT privilege check that routing would otherwise apply. Any
// other table yields one partial of the whole table, read through
// ctx.QuerySQL. reduce is told which kind of relation it is given; the shard
// group is returned for callers that write shard-local (nil for a whole-table
// read).
func readPartitions[T any](ctx *core.ProcContext, table, proc string, reduce func(rel *relalg.Relation, scattered bool) (T, error)) ([]T, accel.MultiShard, error) {
	be, ok := scatterTarget(ctx, table)
	if !ok {
		rel, err := readTable(ctx, table)
		if err != nil {
			return nil, nil, err
		}
		part, err := reduce(rel, false)
		if err != nil {
			return nil, nil, err
		}
		return []T{part}, nil, nil
	}
	if err := ctx.CheckSelect(table); err != nil {
		return nil, nil, err
	}
	var parts []T
	err := scatterStream(ctx, be, table, proc, func(p *accel.ShardPartition) (any, error) {
		return reduce(p.Rows, true)
	}, func(_ int, partial any) error {
		parts = append(parts, partial.(T))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return parts, be, nil
}

// readDatasets reads a training input as one Dataset per partition. A whole
// table must yield usable rows (Extract's errors). A scattered read leaves nil
// for the partitions with none and needs at least one row fleet-wide.
func readDatasets(ctx *core.ProcContext, table, proc string, opts ExtractOptions) ([]*Dataset, accel.MultiShard, error) {
	partOpts := opts
	partOpts.AllowEmpty = true
	parts, be, err := readPartitions(ctx, table, proc, func(rel *relalg.Relation, scattered bool) (*Dataset, error) {
		if !scattered {
			return Extract(rel, opts)
		}
		if len(rel.Rows) == 0 {
			return nil, nil
		}
		ds, err := Extract(rel, partOpts)
		if err != nil || ds.Rows() == 0 {
			return nil, err
		}
		return ds, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if be != nil && shardsUsed(parts) == 0 {
		return nil, nil, fmt.Errorf("analytics: table %s has no usable rows on any shard", types.NormalizeName(table))
	}
	return parts, be, nil
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

// materializeTarget drops/creates the output AOT like materializeRows, but on
// an explicit backend (so shard-local writes find the table on every member)
// and with an optional distribution key.
func materializeTarget(ctx *core.ProcContext, outTable, accName string, schema types.Schema, distKey string) (string, error) {
	outTable = types.NormalizeName(outTable)
	if ctx.Catalog.HasTable(outTable) {
		if !ctx.AOTs.IsAOT(outTable) {
			return "", fmt.Errorf("analytics: output table %s exists and is not accelerator-only", outTable)
		}
		if err := ctx.AOTs.Drop(outTable); err != nil {
			return "", err
		}
	}
	if err := ctx.AOTs.CreateFromSchema(ctx.User, outTable, accName, schema, distKey); err != nil {
		return "", err
	}
	return outTable, nil
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

// writeAssignmentsShardLocal materialises per-shard cluster assignment batches
// next to the partition they were computed from: the assignment AOT is created
// on the input table's backend and each shard's batch is written through
// WriteLocal. Batches for shard ordinals that disappeared between the two
// scatters (a concurrent membership change) fall back to the routed insert
// path, so no assignment is ever dropped.
func writeAssignmentsShardLocal(ctx *core.ProcContext, be accel.MultiShard, assignTable string, batches [][]types.Row) error {
	outTable, err := materializeTarget(ctx, assignTable, be.Name(), assignmentSchema(), "")
	if err != nil {
		return err
	}
	// proc is empty: this is the second scatter of one CALL IDAX.KMEANS, and
	// the per-procedure counters count CALLs, not scatter operations.
	written, covered := 0, 0
	err = scatterStream(ctx, be, outTable, "", func(p *accel.ShardPartition) (any, error) {
		if p.Ordinal >= len(batches) || len(batches[p.Ordinal]) == 0 {
			return 0, nil
		}
		return p.WriteLocal(outTable, batches[p.Ordinal])
	}, func(_ int, partial any) error {
		covered++
		written += partial.(int)
		return nil
	})
	if err != nil {
		return err
	}
	for i := covered; i < len(batches); i++ {
		if len(batches[i]) == 0 {
			continue
		}
		n, err := ctx.InsertRows(outTable, batches[i])
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

// ---------------------------------------------------------------------------
// Distributed scoring
// ---------------------------------------------------------------------------

func distPredict(ctx *core.ProcContext, be accel.MultiShard, kind string, model any, table, idColumn, outTable string) (*core.ProcResult, error) {
	if err := ctx.CheckSelect(table); err != nil {
		return nil, err
	}
	idColumn = types.NormalizeName(idColumn)

	// Output schema and placement. When the id column is the input's hash
	// distribution key (and the input is not mid-migration), the prediction
	// table inherits the key: every score is written on the shard that owns
	// its input row, and the identical member set places equal key values
	// identically — so scores stay co-located with their inputs and joins
	// between them run shard-local.
	idKind := types.KindString
	outDistKey := ""
	if info, ok := plannerInfo(be, table); ok {
		if idx := info.Schema.IndexOf(idColumn); idx >= 0 {
			idKind = info.Schema.Columns[idx].Kind
		}
		if !info.Migrating && info.DistKey != "" && info.DistKey == idColumn {
			outDistKey = "ID"
		}
	}
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: idKind},
		types.Column{Name: "PREDICTION", Kind: types.KindFloat},
		types.Column{Name: "LABEL", Kind: types.KindString},
	)

	score := func(out string) (int, error) {
		// Streaming merge: the partial is just the count of rows a shard wrote
		// locally, summed as each shard finishes.
		total := 0
		err := scatterStream(ctx, be, table, "IDAX.PREDICT", func(p *accel.ShardPartition) (any, error) {
			if len(p.Rows.Rows) == 0 {
				return 0, nil
			}
			// A partition whose every row is incomplete is allowed — other
			// shards may still hold scoreable rows.
			rows, _, err := scorePartition(kind, model, p.Rows, idColumn, true)
			if err != nil {
				return nil, err
			}
			if len(rows) == 0 {
				return 0, nil
			}
			return p.WriteLocal(out, rows)
		}, func(_ int, partial any) error {
			if n, ok := partial.(int); ok {
				total += n
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return total, nil
	}

	// The Migrating check above ran before the scatter takes the migration
	// fence, so a rebalance starting in between could leave a shard-local
	// write on a shard that does not own its key under the fresh prediction
	// table's placement map — and a key-distributed table is pruned by that
	// map. Detect the race after the fact (fleet epoch advanced or the input
	// went migrating) and redo the scoring into a round-robin table, whose
	// placement is arbitrary by construction.
	type epocher interface{ Epoch() int64 }
	epochBefore := int64(-1)
	if ep, ok := be.(epocher); ok && outDistKey != "" {
		epochBefore = ep.Epoch()
	}
	out, err := materializeTarget(ctx, outTable, be.Name(), schema, outDistKey)
	if err != nil {
		return nil, err
	}
	total, err := score(out)
	if err != nil {
		return nil, err
	}
	if outDistKey != "" {
		stable := true
		if ep, ok := be.(epocher); ok && ep.Epoch() != epochBefore {
			stable = false
		}
		if info, ok := plannerInfo(be, table); !ok || info.Migrating {
			stable = false
		}
		if !stable {
			outDistKey = ""
			out, err = materializeTarget(ctx, outTable, be.Name(), schema, "")
			if err != nil {
				return nil, err
			}
			total, err = score(out)
			if err != nil {
				return nil, err
			}
		}
	}
	colocated := ""
	if outDistKey != "" {
		colocated = ", co-located with input by " + idColumn
	}
	return &core.ProcResult{
		RowsAffected: total,
		OutputTables: []string{out},
		Message:      fmt.Sprintf("scored %d rows shard-local across %d shards with %s model into %s (predictions written on their shard%s)", total, be.ShardCount(), kind, out, colocated),
	}, nil
}
