package analytics

import (
	"math"
	"reflect"
	"testing"

	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// splitDataset deals the dataset's rows round-robin into n partitions — the
// shape per-shard extraction produces, with every partition seeing a
// different subset of the same population.
func splitDataset(ds *Dataset, n int) []*Dataset {
	parts := make([]*Dataset, n)
	for i := range parts {
		parts[i] = &Dataset{FeatureNames: ds.FeatureNames}
	}
	for i := 0; i < ds.Rows(); i++ {
		p := parts[i%n]
		p.Features = append(p.Features, ds.Features[i])
		if ds.Target != nil {
			p.Target = append(p.Target, ds.Target[i])
		}
		if ds.Labels != nil {
			p.Labels = append(p.Labels, ds.Labels[i])
		}
		if ds.IDs != nil {
			p.IDs = append(p.IDs, ds.IDs[i])
		}
	}
	return parts
}

func relClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	denom := math.Abs(want)
	if denom < 1 {
		denom = 1
	}
	if math.Abs(got-want)/denom > tol {
		t.Fatalf("%s: got %v, want %v (tolerance %v)", name, got, want, tol)
	}
}

func TestDistributedLinearRegressionMatchesSingle(t *testing.T) {
	ds := extractXY(t, syntheticRelation(2000), false)
	single, err := linearRegressionOracle(ds, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 7} {
		dist, err := TrainLinearRegression(splitDataset(ds, shards), 1e-6)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if dist.N != single.N {
			t.Fatalf("%d shards: N = %d, want %d", shards, dist.N, single.N)
		}
		relClose(t, "intercept", dist.Intercept, single.Intercept, 1e-9)
		for j := range single.Coefficients {
			relClose(t, "coefficient", dist.Coefficients[j], single.Coefficients[j], 1e-9)
		}
		relClose(t, "RMSE", dist.RMSE, single.RMSE, 1e-6)
		relClose(t, "R2", dist.R2, single.R2, 1e-6)
	}
	// A partition list where one shard is empty still trains on the total.
	parts := splitDataset(ds, 3)
	parts = append(parts, nil, &Dataset{FeatureNames: ds.FeatureNames})
	dist, err := TrainLinearRegression(parts, 1e-6)
	if err != nil || dist.N != single.N {
		t.Fatalf("empty shards: N=%d err=%v", dist.N, err)
	}
}

func TestDistributedLogisticRegressionMatchesSingle(t *testing.T) {
	rel := syntheticRelation(1500)
	rel2 := rel.Clone()
	rel2.Cols = append(rel2.Cols, expr.InputColumn{Name: "TARGET", Kind: types.KindInt})
	rel2.Rows = nil
	for _, r := range rel.Rows {
		v := int64(0)
		if r[4].Str == "POS" {
			v = 1
		}
		rel2.Rows = append(rel2.Rows, append(r.Clone(), types.NewInt(v)))
	}
	ds, err := Extract(rel2, ExtractOptions{Features: []string{"X1", "X2"}, Target: "TARGET"})
	if err != nil {
		t.Fatal(err)
	}
	single, err := logisticRegressionOracle(ds, 120, 0.3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := TrainLogisticRegression(splitDataset(ds, 4), 120, 0.3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	relClose(t, "intercept", dist.Intercept, single.Intercept, 1e-6)
	for j := range single.Coefficients {
		relClose(t, "coefficient", dist.Coefficients[j], single.Coefficients[j], 1e-6)
	}
	relClose(t, "accuracy", dist.TrainAccuracy, single.TrainAccuracy, 1e-9)
	relClose(t, "logloss", dist.TrainLogLoss, single.TrainLogLoss, 1e-6)
}

func TestDistributedNaiveBayesMatchesSingle(t *testing.T) {
	ds := extractXY(t, syntheticRelation(1500), true)
	single, err := naiveBayesOracle(ds)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := TrainNaiveBayes(splitDataset(ds, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Classes) != len(single.Classes) || dist.N != single.N {
		t.Fatalf("shape: classes %v vs %v, N %d vs %d", dist.Classes, single.Classes, dist.N, single.N)
	}
	for _, class := range single.Classes {
		relClose(t, "prior "+class, dist.Priors[class], single.Priors[class], 1e-12)
		for j := range single.Means[class] {
			relClose(t, "mean", dist.Means[class][j], single.Means[class][j], 1e-9)
			relClose(t, "variance", dist.Variances[class][j], single.Variances[class][j], 1e-9)
		}
	}
}

func TestDistributedSummarizeMatchesSingle(t *testing.T) {
	rel := syntheticRelation(900)
	single, err := Summarize(rel, []string{"X1", "X2", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	// Split the relation's rows over three "shards" and merge the moments.
	var parts [][]ColumnMoments
	for s := 0; s < 3; s++ {
		sub := &relalg.Relation{Cols: rel.Cols}
		for i := s; i < len(rel.Rows); i += 3 {
			sub.Rows = append(sub.Rows, rel.Rows[i])
		}
		m, err := SummarizePartial(sub, []string{"X1", "X2", "Y"})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, m)
	}
	merged, err := MergeColumnMoments(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range single {
		if merged[i].Count != single[i].Count || merged[i].Nulls != single[i].Nulls {
			t.Fatalf("column %s counts: %+v vs %+v", single[i].Name, merged[i], single[i])
		}
		relClose(t, "mean", merged[i].Mean, single[i].Mean, 1e-9)
		relClose(t, "stddev", merged[i].StdDev, single[i].StdDev, 1e-9)
		relClose(t, "min", merged[i].Min, single[i].Min, 0)
		relClose(t, "max", merged[i].Max, single[i].Max, 0)
	}
}

// TestDistributedKMeansWithinTolerance pins partitioned Lloyd to the
// one-pass oracle run over the partitions concatenated in ordinal order: the
// same seeding, the same assignments and iteration count, and centroids equal
// up to the summation order of the per-partition cluster sums.
func TestDistributedKMeansWithinTolerance(t *testing.T) {
	// Well-separated clusters, and an unclustered population where Lloyd
	// runs many rounds, so per-round merge order matters.
	separated := &Dataset{FeatureNames: []string{"A", "B"}}
	r := newRNG(11)
	centers := [][]float64{{0, 0}, {20, 20}, {-20, 20}}
	for i := 0; i < 900; i++ {
		c := centers[i%3]
		separated.Features = append(separated.Features, []float64{c[0] + r.Float64(), c[1] + r.Float64()})
		separated.IDs = append(separated.IDs, types.NewInt(int64(i)))
	}
	for _, c := range []struct {
		ds *Dataset
		k  int
	}{{separated, 3}, {extractXY(t, syntheticRelation(2000), false), 4}} {
		checkKMeansAgainstOracle(t, c.ds, c.k)
	}
}

// checkKMeansAgainstOracle deals ds into 2, 4 and 7 partitions, plus a nil
// and an empty one, and compares TrainKMeans on them with kmeansOracle on
// their concatenation.
func checkKMeansAgainstOracle(t *testing.T, ds *Dataset, k int) {
	t.Helper()
	for _, shards := range []int{2, 4, 7} {
		parts := splitDataset(ds, shards)
		parts = append(parts[:1], append([]*Dataset{nil, {FeatureNames: ds.FeatureNames}}, parts[1:]...)...)
		concat := &Dataset{FeatureNames: ds.FeatureNames}
		for _, p := range parts {
			if p != nil {
				concat.Features = append(concat.Features, p.Features...)
			}
		}
		opts := KMeansOptions{K: k, MaxIterations: 50, Seed: 3, Parallelism: 3}
		want, wantAssign, err := kmeansOracle(concat, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, assignments, err := TrainKMeans(parts, opts)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if got.N != want.N || got.Iterations != want.Iterations {
			t.Fatalf("k=%d, %d shards: N %d, %d iterations; oracle N %d, %d iterations", k, shards, got.N, got.Iterations, want.N, want.Iterations)
		}
		var gotAssign []int
		for i, a := range assignments {
			if (a == nil) != (parts[i] == nil || parts[i].Rows() == 0) {
				t.Fatalf("%d shards: partition %d has %d assignments for %v", shards, i, len(a), parts[i])
			}
			gotAssign = append(gotAssign, a...)
		}
		if !reflect.DeepEqual(gotAssign, wantAssign) {
			t.Fatalf("k=%d, %d shards: assignments differ from the oracle's", k, shards)
		}
		for c := range want.Centroids {
			for j := range want.Centroids[c] {
				relClose(t, "centroid", got.Centroids[c][j], want.Centroids[c][j], 1e-9)
			}
		}
		relClose(t, "inertia", got.Inertia, want.Inertia, 1e-9)
	}
}

func TestDistributedDecisionForestWithinTolerance(t *testing.T) {
	ds := extractXY(t, syntheticRelation(1600), true)
	single, err := TrainDecisionTree(ds, DecisionTreeOptions{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := TrainDecisionForestDistributed(splitDataset(ds, 4), DecisionTreeOptions{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Trees) != 4 || forest.N != 1600 {
		t.Fatalf("forest shape: %d trees, N=%d", len(forest.Trees), forest.N)
	}
	singleAcc := single.Accuracy(ds)
	forestAcc := forest.Accuracy(ds)
	if math.Abs(singleAcc-forestAcc) > 0.05 {
		t.Fatalf("accuracy gap too large: single %.4f, forest %.4f", singleAcc, forestAcc)
	}
	// Forest models round-trip through model tables like any other kind.
	rows, err := ModelRows(ModelKindForest, forest, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := &relalg.Relation{Cols: []expr.InputColumn{
		{Name: "MODEL_KIND", Kind: types.KindString},
		{Name: "PARAM", Kind: types.KindString},
		{Name: "VALUE", Kind: types.KindFloat},
		{Name: "TEXT", Kind: types.KindString},
	}, Rows: rows}
	kind, loaded, err := LoadModel(rel)
	if err != nil || kind != ModelKindForest {
		t.Fatalf("load: %v %v", kind, err)
	}
	reloaded := loaded.(*ForestModel)
	if len(reloaded.Trees) != len(forest.Trees) {
		t.Fatalf("round trip lost trees: %d vs %d", len(reloaded.Trees), len(forest.Trees))
	}
	probe := ds.Features[7]
	if reloaded.PredictClass(probe) != forest.PredictClass(probe) {
		t.Fatal("round-tripped forest predicts differently")
	}
}

// Regression tests for the empty-input fix: Extract and Summarize must return
// clear errors, not zero-valued results, on empty or all-NULL input.
func TestExtractAndSummarizeEmptyInputErrors(t *testing.T) {
	empty := &relalg.Relation{Cols: syntheticRelation(1).Cols}
	if _, err := Extract(empty, ExtractOptions{Features: []string{"X1"}}); err == nil {
		t.Fatal("Extract on an empty relation must fail")
	}
	if _, err := Summarize(empty, []string{"X1"}); err == nil {
		t.Fatal("Summarize on an empty relation must fail")
	}

	// All-NULL feature column: every row is skipped.
	allNull := syntheticRelation(20)
	allNull.Rows = append([]types.Row(nil), allNull.Rows...)
	for i, r := range allNull.Rows {
		row := r.Clone()
		row[1] = types.Null()
		allNull.Rows[i] = row
	}
	if _, err := Extract(allNull, ExtractOptions{Features: []string{"X1"}, SkipIncomplete: true}); err == nil {
		t.Fatal("Extract with every row skipped must fail")
	}
	if _, err := Summarize(allNull, []string{"X1"}); err == nil {
		t.Fatal("Summarize on an all-NULL column must fail")
	}
	// AllowEmpty (per-shard extraction) suppresses the error.
	ds, err := Extract(empty, ExtractOptions{Features: []string{"X1"}, AllowEmpty: true})
	if err != nil || ds.Rows() != 0 {
		t.Fatalf("AllowEmpty: %v", err)
	}
	// Other columns of the relation stay summarisable.
	if _, err := Summarize(allNull, []string{"X2"}); err != nil {
		t.Fatalf("X2 should still summarise: %v", err)
	}

	// Scoring: the exported entry point errors on an unusable relation, but
	// the per-shard variant tolerates a partition whose every row is
	// incomplete (other shards may still hold scoreable rows).
	trainDS := extractXY(t, syntheticRelation(200), false)
	model, err := TrainLinearRegression([]*Dataset{trainDS}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScoreRelation(ModelKindLinear, model, allNull, "ID"); err == nil {
		t.Fatal("ScoreRelation on an all-skipped relation must fail")
	}
	rows, err := scorePartition(ModelKindLinear, model, allNull, "ID", true)
	if err != nil || len(rows) != 0 {
		t.Fatalf("scorePartition(allowEmpty): %d rows, %v", len(rows), err)
	}
}
