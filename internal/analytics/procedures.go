package analytics

import (
	"fmt"
	"strings"
	"sync/atomic"

	"idaax/internal/core"
	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// RegisterAll registers the IDAX.* analytics procedures with the framework.
// When public is false, only SYSADM (and explicit grantees via
// SYSPROC.ACCEL_GRANT_PROCEDURE) may call them — the data-governance setting
// the paper argues for. Each registration declares the input tables its CALL
// reads and the outputs it replaces (see core.Procedure).
func RegisterAll(f *core.Framework, public bool) {
	reg := func(name, desc string, reads, replaces []int, run func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error)) {
		f.MustRegister(core.Procedure{Name: name, Description: desc, Reads: reads, Replaces: replaces, Run: run}, public)
	}
	in0 := []int{0}

	reg("IDAX.SUMMARY", "Column statistics: (in_table, 'col1,col2,...')", in0, nil, procSummary)
	reg("IDAX.STANDARDIZE", "Z-score normalisation into a new AOT: (in_table, 'cols', out_table)", in0, []int{2}, procStandardize)
	reg("IDAX.IMPUTE", "Missing-value imputation into a new AOT: (in_table, 'cols', 'MEAN|MEDIAN|ZERO', out_table)", in0, []int{3}, procImpute)
	reg("IDAX.BIN", "Equal-width binning into a new AOT: (in_table, column, bins, out_table)", in0, []int{3}, procBin)
	reg("IDAX.ONE_HOT", "One-hot encoding into a new AOT: (in_table, column, out_table)", in0, []int{2}, procOneHot)
	reg("IDAX.SPLIT_DATA", "Deterministic train/test split into two AOTs: (in_table, train_table, test_table[, fraction, seed])", in0, []int{1, 2}, procSplitData)
	reg("IDAX.LINEAR_REGRESSION", "Train linear regression: (in_table, target, 'features', model_table[, ridge])", in0, []int{3}, procLinearRegression)
	reg("IDAX.LOGISTIC_REGRESSION", "Train logistic regression: (in_table, target, 'features', model_table[, iterations, learning_rate])", in0, []int{3}, procLogisticRegression)
	reg("IDAX.KMEANS", "Train k-means and assign clusters: (in_table, 'features', k, model_table[, assign_table, id_column, iterations, seed])", in0, []int{3, 4}, procKMeans)
	reg("IDAX.NAIVE_BAYES", "Train gaussian naive Bayes: (in_table, target, 'features', model_table)", in0, []int{3}, procNaiveBayes)
	reg("IDAX.DECISION_TREE", "Train a CART decision tree: (in_table, target, 'features', model_table[, max_depth])", in0, []int{3}, procDecisionTree)
	reg("IDAX.PREDICT", "Score a table with a trained model into a new AOT: (model_table, in_table, id_column, out_table)", []int{0, 1}, []int{3}, procPredict)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

func readTable(ctx *core.ProcContext, table string) (*relalg.Relation, error) {
	return ctx.QuerySQL("SELECT * FROM " + types.NormalizeName(table))
}

// materialize creates (or replaces) an accelerator-only output table with the
// relation's schema and inserts its rows. Dropping an existing table of the
// same name mirrors the "output table" convention of in-database analytics
// procedures.
func materialize(ctx *core.ProcContext, outTable string, rel *relalg.Relation) (int, error) {
	return materializeRows(ctx, outTable, rel.Schema(), rel.Rows)
}

func materializeRows(ctx *core.ProcContext, outTable string, schema types.Schema, rows []types.Row) (int, error) {
	out, err := materializeTarget(ctx, outTable, "", schema, "")
	if err != nil {
		return 0, err
	}
	return ctx.InsertRows(out, rows)
}

// materializeTarget drops an existing accelerator-only output table of the
// same name and creates it empty on the named backend ("" for the default
// accelerator) with an optional distribution key, so shard-local writes find
// it on every member. It returns the normalised name. Right before the drop
// it applies the replace rule the CALL was admitted under again, which
// covers a table created since.
func materializeTarget(ctx *core.ProcContext, outTable, accName string, schema types.Schema, distKey string) (string, error) {
	outTable = types.NormalizeName(outTable)
	if err := ctx.Catalog.CheckReplace(ctx.User, outTable); err != nil {
		return "", err
	}
	if ctx.Catalog.HasTable(outTable) {
		if err := ctx.AOTs.Drop(outTable); err != nil {
			return "", err
		}
	}
	if err := ctx.AOTs.CreateFromSchema(ctx.User, outTable, accName, schema, distKey); err != nil {
		return "", err
	}
	return outTable, nil
}

func statsRelation(stats []ColumnStats) *relalg.Relation {
	rel := &relalg.Relation{Cols: []expr.InputColumn{
		{Name: "COLUMN_NAME", Kind: types.KindString},
		{Name: "N", Kind: types.KindInt},
		{Name: "NULLS", Kind: types.KindInt},
		{Name: "MEAN", Kind: types.KindFloat},
		{Name: "STDDEV", Kind: types.KindFloat},
		{Name: "MIN", Kind: types.KindFloat},
		{Name: "MAX", Kind: types.KindFloat},
	}}
	for _, st := range stats {
		rel.Rows = append(rel.Rows, types.Row{
			types.NewString(st.Name),
			types.NewInt(int64(st.Count)),
			types.NewInt(int64(st.Nulls)),
			types.NewFloat(st.Mean),
			types.NewFloat(st.StdDev),
			types.NewFloat(st.Min),
			types.NewFloat(st.Max),
		})
	}
	return rel
}

func saveModel(ctx *core.ProcContext, modelTable, kind string, model any, metrics map[string]float64) error {
	rows, err := ModelRows(kind, model, metrics)
	if err != nil {
		return err
	}
	_, err = materializeRows(ctx, modelTable, ModelSchema(), rows)
	return err
}

// saveTrained saves a model trained on n rows of parts, with N and the given
// metrics, and reports the CALL. A model trained over several partitions
// also records SHARDS, the number of partitions that contributed rows.
func saveTrained(ctx *core.ProcContext, parts []*Dataset, modelTable, kind string, model any, n int, metrics map[string]float64, msg string) (*core.ProcResult, error) {
	metrics["N"] = float64(n)
	if len(parts) > 1 {
		metrics["SHARDS"] = float64(shardsUsed(parts))
	}
	if err := saveModel(ctx, modelTable, kind, model, metrics); err != nil {
		return nil, err
	}
	return &core.ProcResult{RowsAffected: n, OutputTables: []string{types.NormalizeName(modelTable)}, Message: msg}, nil
}

// trainedOn words the rows a model was trained on for the CALL message.
func trainedOn(parts []*Dataset, n int) string {
	if len(parts) > 1 {
		return fmt.Sprintf("shard-local on %d rows across %d shards", n, shardsUsed(parts))
	}
	return fmt.Sprintf("on %d rows", n)
}

func loadModelFromTable(ctx *core.ProcContext, modelTable string) (string, any, error) {
	rel, err := readTable(ctx, modelTable)
	if err != nil {
		return "", nil, err
	}
	return LoadModel(rel)
}

// ---------------------------------------------------------------------------
// Transformation procedures
// ---------------------------------------------------------------------------

func procSummary(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	cols, err := core.ArgString(args, 1, "column list")
	if err != nil {
		return nil, err
	}
	columns := core.SplitList(cols)
	var rows atomic.Int64
	parts, err := readPartitions(ctx, scatterTarget(ctx, table), table, "IDAX.SUMMARY", func(rel *relalg.Relation, _ writeFunc) ([]ColumnMoments, error) {
		rows.Add(int64(len(rel.Rows)))
		return SummarizePartial(rel, columns)
	})
	if err != nil {
		return nil, err
	}
	// Over one partition this is Summarize; over several, the moment merge.
	stats, err := MergeColumnMoments(parts)
	if err != nil {
		return nil, err
	}
	msg := fmt.Sprintf("summarised %d columns over %d rows", len(stats), rows.Load())
	if len(parts) > 1 {
		msg += fmt.Sprintf(" across %d shards (moment merge)", len(parts))
	}
	return &core.ProcResult{Relation: statsRelation(stats), Message: msg}, nil
}

func procStandardize(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	cols, err := core.ArgString(args, 1, "column list")
	if err != nil {
		return nil, err
	}
	outTable, err := core.ArgString(args, 2, "output table")
	if err != nil {
		return nil, err
	}
	rel, err := readTable(ctx, table)
	if err != nil {
		return nil, err
	}
	out, err := Standardize(rel, core.SplitList(cols))
	if err != nil {
		return nil, err
	}
	n, err := materialize(ctx, outTable, out)
	if err != nil {
		return nil, err
	}
	return &core.ProcResult{RowsAffected: n, OutputTables: []string{types.NormalizeName(outTable)}, Message: fmt.Sprintf("standardised %d rows into %s", n, types.NormalizeName(outTable))}, nil
}

func procImpute(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	cols, err := core.ArgString(args, 1, "column list")
	if err != nil {
		return nil, err
	}
	strategy := ImputeStrategy(strings.ToUpper(core.ArgStringDefault(args, 2, string(ImputeMean))))
	outTable, err := core.ArgString(args, 3, "output table")
	if err != nil {
		return nil, err
	}
	rel, err := readTable(ctx, table)
	if err != nil {
		return nil, err
	}
	out, replaced, err := Impute(rel, core.SplitList(cols), strategy)
	if err != nil {
		return nil, err
	}
	n, err := materialize(ctx, outTable, out)
	if err != nil {
		return nil, err
	}
	return &core.ProcResult{RowsAffected: n, OutputTables: []string{types.NormalizeName(outTable)}, Message: fmt.Sprintf("imputed %d values into %s", replaced, types.NormalizeName(outTable))}, nil
}

func procBin(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	column, err := core.ArgString(args, 1, "column")
	if err != nil {
		return nil, err
	}
	bins := int(core.ArgInt(args, 2, 10))
	outTable, err := core.ArgString(args, 3, "output table")
	if err != nil {
		return nil, err
	}
	rel, err := readTable(ctx, table)
	if err != nil {
		return nil, err
	}
	out, err := Bin(rel, column, bins)
	if err != nil {
		return nil, err
	}
	n, err := materialize(ctx, outTable, out)
	if err != nil {
		return nil, err
	}
	return &core.ProcResult{RowsAffected: n, OutputTables: []string{types.NormalizeName(outTable)}, Message: fmt.Sprintf("binned %s into %d bins", types.NormalizeName(column), bins)}, nil
}

func procOneHot(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	column, err := core.ArgString(args, 1, "column")
	if err != nil {
		return nil, err
	}
	outTable, err := core.ArgString(args, 2, "output table")
	if err != nil {
		return nil, err
	}
	maxCats := int(core.ArgInt(args, 3, 32))
	rel, err := readTable(ctx, table)
	if err != nil {
		return nil, err
	}
	out, newCols, err := OneHot(rel, column, maxCats)
	if err != nil {
		return nil, err
	}
	n, err := materialize(ctx, outTable, out)
	if err != nil {
		return nil, err
	}
	return &core.ProcResult{RowsAffected: n, OutputTables: []string{types.NormalizeName(outTable)}, Message: fmt.Sprintf("one-hot encoded %s into %d indicator columns", types.NormalizeName(column), len(newCols))}, nil
}

func procSplitData(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	trainTable, err := core.ArgString(args, 1, "train table")
	if err != nil {
		return nil, err
	}
	testTable, err := core.ArgString(args, 2, "test table")
	if err != nil {
		return nil, err
	}
	fraction := core.ArgFloat(args, 3, 0.8)
	seed := core.ArgInt(args, 4, 42)
	rel, err := readTable(ctx, table)
	if err != nil {
		return nil, err
	}
	train, test := SplitData(rel, fraction, seed)
	nTrain, err := materialize(ctx, trainTable, train)
	if err != nil {
		return nil, err
	}
	nTest, err := materialize(ctx, testTable, test)
	if err != nil {
		return nil, err
	}
	return &core.ProcResult{
		RowsAffected: nTrain + nTest,
		OutputTables: []string{types.NormalizeName(trainTable), types.NormalizeName(testTable)},
		Message:      fmt.Sprintf("split %d rows into %d train / %d test", len(rel.Rows), nTrain, nTest),
	}, nil
}

// ---------------------------------------------------------------------------
// Training procedures
//
// One body each: readDatasets yields one Dataset per partition of the input
// table. Linear and logistic regression, naive Bayes and k-means run one
// partition trainer (merged partials) for any partition count.
// DECISION_TREE lets the count pick: a tree for one partition, a forest of
// one tree per partition for several, because greedy splits do not merge.
// ---------------------------------------------------------------------------

func procLinearRegression(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	target, err := core.ArgString(args, 1, "target column")
	if err != nil {
		return nil, err
	}
	features, err := core.ArgString(args, 2, "feature list")
	if err != nil {
		return nil, err
	}
	modelTable, err := core.ArgString(args, 3, "model table")
	if err != nil {
		return nil, err
	}
	ridge := core.ArgFloat(args, 4, 1e-6)

	parts, _, err := readDatasets(ctx, table, "IDAX.LINEAR_REGRESSION",
		ExtractOptions{Features: core.SplitList(features), Target: target, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainLinearRegression(parts, ridge)
	if err != nil {
		return nil, err
	}
	return saveTrained(ctx, parts, modelTable, ModelKindLinear, model, model.N,
		map[string]float64{"RMSE": model.RMSE, "R2": model.R2},
		fmt.Sprintf("linear regression trained %s (RMSE=%.4f R2=%.4f)", trainedOn(parts, model.N), model.RMSE, model.R2))
}

func procLogisticRegression(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	target, err := core.ArgString(args, 1, "target column")
	if err != nil {
		return nil, err
	}
	features, err := core.ArgString(args, 2, "feature list")
	if err != nil {
		return nil, err
	}
	modelTable, err := core.ArgString(args, 3, "model table")
	if err != nil {
		return nil, err
	}
	iterations := int(core.ArgInt(args, 4, 200))
	learningRate := core.ArgFloat(args, 5, 0.1)

	parts, _, err := readDatasets(ctx, table, "IDAX.LOGISTIC_REGRESSION",
		ExtractOptions{Features: core.SplitList(features), Target: target, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainLogisticRegression(parts, iterations, learningRate, 1e-4)
	if err != nil {
		return nil, err
	}
	return saveTrained(ctx, parts, modelTable, ModelKindLogistic, model, model.N,
		map[string]float64{"ACCURACY": model.TrainAccuracy, "LOGLOSS": model.TrainLogLoss},
		fmt.Sprintf("logistic regression trained %s (accuracy=%.4f)", trainedOn(parts, model.N), model.TrainAccuracy))
}

func procKMeans(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	features, err := core.ArgString(args, 1, "feature list")
	if err != nil {
		return nil, err
	}
	k := int(core.ArgInt(args, 2, 3))
	modelTable, err := core.ArgString(args, 3, "model table")
	if err != nil {
		return nil, err
	}
	assignTable := core.ArgStringDefault(args, 4, "")
	idColumn := core.ArgStringDefault(args, 5, "")
	iterations := int(core.ArgInt(args, 6, 50))
	seed := core.ArgInt(args, 7, 7)

	parts, fleet, err := readDatasets(ctx, table, "IDAX.KMEANS",
		ExtractOptions{Features: core.SplitList(features), ID: idColumn, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	opts := KMeansOptions{K: k, MaxIterations: iterations, Seed: seed, Parallelism: ctx.Accelerator.Slices()}
	if fleet != nil {
		opts.Parallelism = fleet.Slices()
	}
	model, assignments, err := TrainKMeans(parts, opts)
	if err != nil {
		return nil, err
	}
	res, err := saveTrained(ctx, parts, modelTable, ModelKindKMeans, model, model.N,
		map[string]float64{"INERTIA": model.Inertia, "ITERATIONS": float64(model.Iterations), "K": float64(k)},
		fmt.Sprintf("k-means (k=%d) trained %s in %d iterations, inertia %.2f", k, trainedOn(parts, model.N), model.Iterations, model.Inertia))
	if err != nil || assignTable == "" {
		return res, err
	}
	// Assignments are written where their partition was read.
	if err := writeAssignments(ctx, fleet, assignTable, assignmentRows(parts, assignments, idColumn == "")); err != nil {
		return nil, err
	}
	res.OutputTables = append(res.OutputTables, types.NormalizeName(assignTable))
	return res, nil
}

func procNaiveBayes(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	target, err := core.ArgString(args, 1, "target column")
	if err != nil {
		return nil, err
	}
	features, err := core.ArgString(args, 2, "feature list")
	if err != nil {
		return nil, err
	}
	modelTable, err := core.ArgString(args, 3, "model table")
	if err != nil {
		return nil, err
	}
	parts, _, err := readDatasets(ctx, table, "IDAX.NAIVE_BAYES",
		ExtractOptions{Features: core.SplitList(features), Target: target, TargetCategorical: true, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	model, err := TrainNaiveBayes(parts)
	if err != nil {
		return nil, err
	}
	acc, err := classifierAccuracy(func(f []float64) string { c, _ := model.PredictClass(f); return c }, parts)
	if err != nil {
		return nil, err
	}
	return saveTrained(ctx, parts, modelTable, ModelKindNaiveBayes, model, model.N,
		map[string]float64{"ACCURACY": acc, "CLASSES": float64(len(model.Classes))},
		fmt.Sprintf("naive bayes trained %s, %d classes (accuracy=%.4f)", trainedOn(parts, model.N), len(model.Classes), acc))
}

func procDecisionTree(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	table, err := core.ArgString(args, 0, "input table")
	if err != nil {
		return nil, err
	}
	target, err := core.ArgString(args, 1, "target column")
	if err != nil {
		return nil, err
	}
	features, err := core.ArgString(args, 2, "feature list")
	if err != nil {
		return nil, err
	}
	modelTable, err := core.ArgString(args, 3, "model table")
	if err != nil {
		return nil, err
	}
	maxDepth := int(core.ArgInt(args, 4, 6))

	parts, _, err := readDatasets(ctx, table, "IDAX.DECISION_TREE",
		ExtractOptions{Features: core.SplitList(features), Target: target, TargetCategorical: true, SkipIncomplete: true})
	if err != nil {
		return nil, err
	}
	opts := DecisionTreeOptions{MaxDepth: maxDepth}
	if len(parts) == 1 {
		tree, err := TrainDecisionTree(parts[0], opts)
		if err != nil {
			return nil, err
		}
		acc := tree.Accuracy(parts[0])
		return saveTrained(ctx, parts, modelTable, ModelKindDecisionTree, tree, tree.N,
			map[string]float64{"ACCURACY": acc, "NODES": float64(tree.Nodes), "DEPTH": float64(tree.Depth())},
			fmt.Sprintf("decision tree with %d nodes (depth %d, accuracy=%.4f)", tree.Nodes, tree.Depth(), acc))
	}
	// Several partitions grow one tree each; the model is their voting
	// forest. Greedy splits do not decompose into per-partition sums, so
	// unlike the other trainers this one cannot merge exactly.
	forest, err := TrainDecisionForestDistributed(parts, opts)
	if err != nil {
		return nil, err
	}
	acc, err := classifierAccuracy(forest.PredictClass, parts)
	if err != nil {
		return nil, err
	}
	return saveTrained(ctx, parts, modelTable, ModelKindForest, forest, forest.N,
		map[string]float64{"ACCURACY": acc, "NODES": float64(forest.Nodes()), "DEPTH": float64(forest.Depth()), "TREES": float64(len(forest.Trees))},
		fmt.Sprintf("decision forest of %d shard-local trees, %d nodes (depth %d, accuracy=%.4f)", len(forest.Trees), forest.Nodes(), forest.Depth(), acc))
}

// ---------------------------------------------------------------------------
// Scoring
// ---------------------------------------------------------------------------

func procPredict(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
	modelTable, err := core.ArgString(args, 0, "model table")
	if err != nil {
		return nil, err
	}
	table, err := core.ArgString(args, 1, "input table")
	if err != nil {
		return nil, err
	}
	idColumn, err := core.ArgString(args, 2, "id column")
	if err != nil {
		return nil, err
	}
	outTable, err := core.ArgString(args, 3, "output table")
	if err != nil {
		return nil, err
	}

	kind, model, err := loadModelFromTable(ctx, modelTable)
	if err != nil {
		return nil, err
	}
	meta, err := ctx.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	idColumn = types.NormalizeName(idColumn)
	idKind := types.KindString
	if idx := meta.Schema.IndexOf(idColumn); idx >= 0 {
		idKind = meta.Schema.Columns[idx].Kind
	}
	schema := predictionSchema(idKind)

	// Placement: a whole-table input scores into the default accelerator, a
	// sharded one into its shard group, each prediction written on the shard
	// that computed it. When the id column is the input's hash distribution
	// key (and the input is not mid-migration), the prediction table inherits
	// the key: the identical member set places equal key values identically,
	// so scores stay co-located with their inputs and joins between them run
	// shard-local.
	be := scatterTarget(ctx, table)
	accName, distKey := "", ""
	if be != nil {
		accName = be.Name()
		if info, ok := plannerInfo(be, table); ok && !info.Migrating && info.DistKey != "" && info.DistKey == idColumn {
			distKey = "ID"
		}
	}
	score := func(key string) (string, int, error) {
		out, err := materializeTarget(ctx, outTable, accName, schema, key)
		if err != nil {
			return "", 0, err
		}
		written, err := readPartitions(ctx, be, table, "IDAX.PREDICT", func(rel *relalg.Relation, write writeFunc) (int, error) {
			rows, err := scorePartition(kind, model, rel, idColumn, true)
			if err != nil || len(rows) == 0 {
				return 0, err
			}
			return write(out, rows)
		})
		total := 0
		for _, n := range written {
			total += n
		}
		if err == nil && total == 0 {
			err = errNoUsableRows(table)
		}
		if err != nil {
			// A failed PREDICT leaves no output table, on every backend. The
			// drop's own error would only hide err.
			_ = ctx.AOTs.Drop(out)
			return "", 0, err
		}
		return out, total, nil
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
	if ep, ok := be.(epocher); ok && distKey != "" {
		epochBefore = ep.Epoch()
	}
	out, total, err := score(distKey)
	if err != nil {
		return nil, err
	}
	if distKey != "" {
		stable := true
		if ep, ok := be.(epocher); ok && ep.Epoch() != epochBefore {
			stable = false
		}
		if info, ok := plannerInfo(be, table); !ok || info.Migrating {
			stable = false
		}
		if !stable {
			distKey = ""
			if out, total, err = score(distKey); err != nil {
				return nil, err
			}
		}
	}
	msg := fmt.Sprintf("scored %d rows with %s model into %s", total, kind, out)
	if be != nil {
		colocated := ""
		if distKey != "" {
			colocated = ", co-located with input by " + idColumn
		}
		msg = fmt.Sprintf("scored %d rows shard-local across %d shards with %s model into %s (predictions written on their shard%s)", total, be.ShardCount(), kind, out, colocated)
	}
	return &core.ProcResult{RowsAffected: total, OutputTables: []string{out}, Message: msg}, nil
}

// predictionSchema is the schema of a PREDICT output table.
func predictionSchema(idKind types.Kind) types.Schema {
	return types.NewSchema(
		types.Column{Name: "ID", Kind: idKind},
		types.Column{Name: "PREDICTION", Kind: types.KindFloat},
		types.Column{Name: "LABEL", Kind: types.KindString},
	)
}

// ScoreRelation applies a trained model to every row of rel and returns the
// scored rows with their schema. It is exported so the benchmark harness can
// measure "client-side" scoring (same computation, but after extracting the
// data out of the database) against the in-database path. An empty relation
// (or one whose every row is incomplete) is an error; PREDICT scores each
// partition with scorePartition, which allows that, and fails only when no
// partition had a scoreable row.
func ScoreRelation(kind string, model any, rel *relalg.Relation, idColumn string) ([]types.Row, types.Schema, error) {
	rows, err := scorePartition(kind, model, rel, idColumn, false)
	if err != nil {
		return nil, types.Schema{}, err
	}
	idKind := types.KindString
	if idx := rel.Schema().IndexOf(idColumn); idx >= 0 {
		idKind = rel.Schema().Columns[idx].Kind
	}
	return rows, predictionSchema(idKind), nil
}

func scorePartition(kind string, model any, rel *relalg.Relation, idColumn string, allowEmpty bool) ([]types.Row, error) {
	var featureNames []string
	switch m := model.(type) {
	case *LinearModel:
		featureNames = m.FeatureNames
	case *LogisticModel:
		featureNames = m.FeatureNames
	case *KMeansModel:
		featureNames = m.FeatureNames
	case *NaiveBayesModel:
		featureNames = m.FeatureNames
	case *DecisionTreeModel:
		featureNames = m.FeatureNames
	case *ForestModel:
		featureNames = m.FeatureNames
	default:
		return nil, fmt.Errorf("analytics: unsupported model type %T", model)
	}
	ds, err := Extract(rel, ExtractOptions{Features: featureNames, ID: idColumn, SkipIncomplete: true, AllowEmpty: allowEmpty})
	if err != nil {
		return nil, err
	}

	rows := make([]types.Row, ds.Rows())
	for i := 0; i < ds.Rows(); i++ {
		var prediction float64
		var label string
		switch m := model.(type) {
		case *LinearModel:
			prediction = m.Predict(ds.Features[i])
		case *LogisticModel:
			prediction = m.PredictProbability(ds.Features[i])
			if prediction >= 0.5 {
				label = "1"
			} else {
				label = "0"
			}
		case *KMeansModel:
			c := m.Predict(ds.Features[i])
			prediction = float64(c)
			label = fmt.Sprintf("CLUSTER_%d", c)
		case *NaiveBayesModel:
			cls, score := m.PredictClass(ds.Features[i])
			prediction = score
			label = cls
		case *DecisionTreeModel:
			label = m.PredictClass(ds.Features[i])
		case *ForestModel:
			label = m.PredictClass(ds.Features[i])
		}
		rows[i] = types.Row{ds.IDs[i], types.NewFloat(prediction), types.NewString(label)}
	}
	return rows, nil
}
