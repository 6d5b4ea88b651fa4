package analytics

import (
	"fmt"

	"idaax/internal/accel"
	"idaax/internal/core"
	"idaax/internal/obs"
	"idaax/internal/planner"
	"idaax/internal/types"
)

// This file routes the IDAX.* procedures through the shard-local analytics
// seam. When a CALL's input table lives on a sharded backend, training and
// scoring scatter over the members that own the rows (accel.Backend.
// CallShardLocal) and only partials — sufficient statistics, local models,
// completion counts — return to the coordinator for merging. Scoring writes
// its predictions shard-local, next to the partition they were computed from.

// scatterTarget decides whether a procedure on the given input table should
// run shard-local: the table's backend must partition it over at least two
// members and shard-local analytics must not be disabled (bench A/B switch).
func scatterTarget(ctx *core.ProcContext, table string) (accel.Backend, string, bool) {
	if ctx.BackendFor == nil {
		return nil, "", false
	}
	be, name := ctx.BackendFor(table)
	if be == nil {
		return nil, "", false
	}
	ms, ok := be.(accel.MultiShard)
	if !ok || ms.ShardCount() < 2 || !ms.ShardLocalAnalytics() {
		return nil, "", false
	}
	if !be.HasTable(types.NormalizeName(table)) {
		return nil, "", false
	}
	return be, name, true
}

// scatterCall runs one shard-local scatter through the traced analytics seam,
// nesting the per-shard partition spans under the calling statement's trace
// (a no-op when the CALL is untraced).
func scatterCall(ctx *core.ProcContext, be accel.Backend, table, proc string, fn accel.ShardLocalFunc) ([]any, error) {
	sp := ctx.Span.Child("analytics")
	sp.Label(obs.LabelTable, types.NormalizeName(table))
	if proc != "" {
		sp.Label(obs.LabelMode, types.NormalizeName(proc))
	}
	partials, err := be.CallShardLocalTraced(ctx.TxnID, table, proc, sp, fn)
	sp.Finish()
	return partials, err
}

// scatterStream is scatterCall through the streaming seam: merge consumes
// each shard's partial in ordinal order as it completes, so single-pass
// reductions (moment merges, completion counts) never hold one partial per
// shard at the coordinator.
func scatterStream(ctx *core.ProcContext, be accel.Backend, table, proc string, fn accel.ShardLocalFunc, merge func(ordinal int, partial any) error) error {
	sp := ctx.Span.Child("analytics")
	sp.Label(obs.LabelTable, types.NormalizeName(table))
	if proc != "" {
		sp.Label(obs.LabelMode, types.NormalizeName(proc))
	}
	err := be.CallShardLocalStream(ctx.TxnID, table, proc, sp, fn, merge)
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

// scatterExtract runs one shard-local scatter that reduces every partition of
// the input table to a Dataset. Partitions with no usable rows come back nil;
// at least one row fleet-wide is required.
func scatterExtract(ctx *core.ProcContext, be accel.Backend, table, proc string, opts ExtractOptions) ([]*Dataset, int, error) {
	if err := ctx.CheckSelect(table); err != nil {
		return nil, 0, err
	}
	opts.AllowEmpty = true
	partials, err := scatterCall(ctx, be, table, proc, func(p *accel.ShardPartition) (any, error) {
		if len(p.Rows.Rows) == 0 {
			return (*Dataset)(nil), nil
		}
		return Extract(p.Rows, opts)
	})
	if err != nil {
		return nil, 0, err
	}
	parts := make([]*Dataset, len(partials))
	total := 0
	for i, p := range partials {
		if ds, ok := p.(*Dataset); ok && ds != nil && ds.Rows() > 0 {
			parts[i] = ds
			total += ds.Rows()
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("analytics: table %s has no usable rows on any shard", types.NormalizeName(table))
	}
	return parts, total, nil
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

// ---------------------------------------------------------------------------
// Distributed training
// ---------------------------------------------------------------------------

func distLinearRegression(ctx *core.ProcContext, be accel.Backend, table, target, features, modelTable string, ridge float64) (*core.ProcResult, error) {
	parts, _, err := scatterExtract(ctx, be, table, "IDAX.LINEAR_REGRESSION",
		ExtractOptions{Features: core.SplitList(features), Target: target, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainLinearRegressionDistributed(parts, ridge)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{"RMSE": model.RMSE, "R2": model.R2, "N": float64(model.N), "SHARDS": float64(shardsUsed(parts))}
	if err := saveModel(ctx, modelTable, ModelKindLinear, model, metrics); err != nil {
		return nil, err
	}
	return &core.ProcResult{
		RowsAffected: model.N,
		OutputTables: []string{types.NormalizeName(modelTable)},
		Message:      fmt.Sprintf("linear regression trained shard-local on %d rows across %d shards (RMSE=%.4f R2=%.4f)", model.N, shardsUsed(parts), model.RMSE, model.R2),
	}, nil
}

func distLogisticRegression(ctx *core.ProcContext, be accel.Backend, table, target, features, modelTable string, iterations int, learningRate float64) (*core.ProcResult, error) {
	parts, _, err := scatterExtract(ctx, be, table, "IDAX.LOGISTIC_REGRESSION",
		ExtractOptions{Features: core.SplitList(features), Target: target, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainLogisticRegressionDistributed(parts, iterations, learningRate, 1e-4)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{"ACCURACY": model.TrainAccuracy, "LOGLOSS": model.TrainLogLoss, "N": float64(model.N), "SHARDS": float64(shardsUsed(parts))}
	if err := saveModel(ctx, modelTable, ModelKindLogistic, model, metrics); err != nil {
		return nil, err
	}
	return &core.ProcResult{
		RowsAffected: model.N,
		OutputTables: []string{types.NormalizeName(modelTable)},
		Message:      fmt.Sprintf("logistic regression trained shard-local on %d rows across %d shards (accuracy=%.4f)", model.N, shardsUsed(parts), model.TrainAccuracy),
	}, nil
}

func distNaiveBayes(ctx *core.ProcContext, be accel.Backend, table, target, features, modelTable string) (*core.ProcResult, error) {
	parts, _, err := scatterExtract(ctx, be, table, "IDAX.NAIVE_BAYES",
		ExtractOptions{Features: core.SplitList(features), Target: target, TargetCategorical: true, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainNaiveBayesDistributed(parts)
	if err != nil {
		return nil, err
	}
	acc, err := classifierAccuracy(func(f []float64) string { c, _ := model.PredictClass(f); return c }, parts)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{"ACCURACY": acc, "N": float64(model.N), "CLASSES": float64(len(model.Classes)), "SHARDS": float64(shardsUsed(parts))}
	if err := saveModel(ctx, modelTable, ModelKindNaiveBayes, model, metrics); err != nil {
		return nil, err
	}
	return &core.ProcResult{
		RowsAffected: model.N,
		OutputTables: []string{types.NormalizeName(modelTable)},
		Message:      fmt.Sprintf("naive bayes trained shard-local on %d rows across %d shards, %d classes (accuracy=%.4f)", model.N, shardsUsed(parts), len(model.Classes), acc),
	}, nil
}

func distDecisionTree(ctx *core.ProcContext, be accel.Backend, table, target, features, modelTable string, maxDepth int) (*core.ProcResult, error) {
	parts, _, err := scatterExtract(ctx, be, table, "IDAX.DECISION_TREE",
		ExtractOptions{Features: core.SplitList(features), Target: target, TargetCategorical: true, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainDecisionForestDistributed(parts, DecisionTreeOptions{MaxDepth: maxDepth})
	if err != nil {
		return nil, err
	}
	acc, err := classifierAccuracy(model.PredictClass, parts)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{"ACCURACY": acc, "NODES": float64(model.Nodes()), "DEPTH": float64(model.Depth()), "N": float64(model.N), "TREES": float64(len(model.Trees)), "SHARDS": float64(shardsUsed(parts))}
	if err := saveModel(ctx, modelTable, ModelKindForest, model, metrics); err != nil {
		return nil, err
	}
	return &core.ProcResult{
		RowsAffected: model.N,
		OutputTables: []string{types.NormalizeName(modelTable)},
		Message:      fmt.Sprintf("decision forest of %d shard-local trees, %d nodes (depth %d, accuracy=%.4f)", len(model.Trees), model.Nodes(), model.Depth(), acc),
	}, nil
}

func distKMeans(ctx *core.ProcContext, be accel.Backend, table, features string, k int, modelTable, assignTable, idColumn string, iterations int, seed int64) (*core.ProcResult, error) {
	parts, _, err := scatterExtract(ctx, be, table, "IDAX.KMEANS",
		ExtractOptions{Features: core.SplitList(features), ID: idColumn, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, assignments, err := TrainKMeansDistributed(parts, KMeansOptions{K: k, MaxIterations: iterations, Seed: seed, Parallelism: be.Slices()})
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{"INERTIA": model.Inertia, "ITERATIONS": float64(model.Iterations), "K": float64(k), "N": float64(model.N), "SHARDS": float64(shardsUsed(parts))}
	if err := saveModel(ctx, modelTable, ModelKindKMeans, model, metrics); err != nil {
		return nil, err
	}
	outputs := []string{types.NormalizeName(modelTable)}
	if assignTable != "" {
		n, err := writeAssignmentsShardLocal(ctx, be, assignTable, parts, assignments, idColumn == "")
		if err != nil {
			return nil, err
		}
		if n != model.N {
			return nil, fmt.Errorf("analytics: wrote %d of %d cluster assignments", n, model.N)
		}
		outputs = append(outputs, types.NormalizeName(assignTable))
	}
	return &core.ProcResult{
		RowsAffected: model.N,
		OutputTables: outputs,
		Message:      fmt.Sprintf("k-means (k=%d) trained shard-local across %d shards (consolidated centers, inertia %.2f)", k, shardsUsed(parts), model.Inertia),
	}, nil
}

// writeAssignmentsShardLocal materialises per-shard cluster assignments next
// to the partition they were computed from: the assignment AOT is created on
// the input table's backend and each shard's batch is written through
// WriteLocal. When the CALL gave no id column (syntheticIDs), each partition's
// IDs are local row numbers that would collide across shards, so they are
// renumbered to a dense global 0..N-1 like the single-backend path produces.
// Batches for shard ordinals that disappeared between the two scatters (a
// concurrent membership change) fall back to the routed insert path, so no
// assignment is ever dropped.
func writeAssignmentsShardLocal(ctx *core.ProcContext, be accel.Backend, assignTable string, parts []*Dataset, assignments [][]int, syntheticIDs bool) (int, error) {
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindString},
		types.Column{Name: "CLUSTER", Kind: types.KindInt},
	)
	outTable, err := materializeTarget(ctx, assignTable, be.Name(), schema, "")
	if err != nil {
		return 0, err
	}
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
	// proc is empty: this is the second scatter of one CALL IDAX.KMEANS, and
	// the per-procedure counters count CALLs, not scatter operations.
	written := 0
	covered := 0
	partials, err := scatterCall(ctx, be, outTable, "", func(p *accel.ShardPartition) (any, error) {
		if p.Ordinal >= len(batches) || len(batches[p.Ordinal]) == 0 {
			return 0, nil
		}
		return p.WriteLocal(outTable, batches[p.Ordinal])
	})
	if err != nil {
		return 0, err
	}
	covered = len(partials)
	for _, p := range partials {
		if n, ok := p.(int); ok {
			written += n
		}
	}
	for i := covered; i < len(batches); i++ {
		if len(batches[i]) == 0 {
			continue
		}
		n, err := ctx.InsertRows(outTable, batches[i])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ---------------------------------------------------------------------------
// Distributed summary and scoring
// ---------------------------------------------------------------------------

func distSummary(ctx *core.ProcContext, be accel.Backend, table, cols string) (*core.ProcResult, error) {
	if err := ctx.CheckSelect(table); err != nil {
		return nil, err
	}
	columns := core.SplitList(cols)
	// Streaming merge: each shard's moment set folds into the accumulator as
	// it arrives, so the coordinator never holds one moment slice per shard.
	var acc []ColumnMoments
	shards := 0
	err := scatterStream(ctx, be, table, "IDAX.SUMMARY", func(p *accel.ShardPartition) (any, error) {
		return SummarizePartial(p.Rows, columns)
	}, func(_ int, partial any) error {
		shards++
		m, ok := partial.([]ColumnMoments)
		if !ok {
			return nil
		}
		var err error
		acc, err = MergeColumnMomentsInto(acc, m)
		return err
	})
	if err != nil {
		return nil, err
	}
	stats, err := FinalizeColumnMoments(acc)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, st := range stats {
		if st.Count+st.Nulls > rows {
			rows = st.Count + st.Nulls
		}
	}
	return &core.ProcResult{
		Relation: statsRelation(stats),
		Message:  fmt.Sprintf("summarised %d columns over %d rows across %d shards (moment merge)", len(stats), rows, shards),
	}, nil
}

func distPredict(ctx *core.ProcContext, be accel.Backend, kind string, model any, table, idColumn, outTable string) (*core.ProcResult, error) {
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
	shards := 0
	if ms, ok := be.(accel.MultiShard); ok {
		shards = ms.ShardCount()
	}
	return &core.ProcResult{
		RowsAffected: total,
		OutputTables: []string{out},
		Message:      fmt.Sprintf("scored %d rows shard-local across %d shards with %s model into %s (predictions written on their shard%s)", total, shards, kind, out, colocated),
	}, nil
}
