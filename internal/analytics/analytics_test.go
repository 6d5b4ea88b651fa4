package analytics

import (
	"math"
	"testing"
	"testing/quick"

	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// syntheticRelation builds a relation with columns X1, X2, Y (numeric) and
// LABEL (categorical) where Y = 3 + 2*X1 - X2 and LABEL = "POS" iff Y > 3.
func syntheticRelation(n int) *relalg.Relation {
	rel := &relalg.Relation{Cols: []expr.InputColumn{
		{Name: "ID", Kind: types.KindInt},
		{Name: "X1", Kind: types.KindFloat},
		{Name: "X2", Kind: types.KindFloat},
		{Name: "Y", Kind: types.KindFloat},
		{Name: "LABEL", Kind: types.KindString},
	}}
	r := newRNG(42)
	for i := 0; i < n; i++ {
		x1 := r.Float64() * 10
		x2 := r.Float64() * 5
		y := 3 + 2*x1 - x2
		label := "NEG"
		if y > 3 {
			label = "POS"
		}
		rel.Rows = append(rel.Rows, types.Row{
			types.NewInt(int64(i)), types.NewFloat(x1), types.NewFloat(x2), types.NewFloat(y), types.NewString(label),
		})
	}
	return rel
}

func extractXY(t *testing.T, rel *relalg.Relation, categorical bool) *Dataset {
	t.Helper()
	opts := ExtractOptions{Features: []string{"X1", "X2"}, Target: "Y", ID: "ID"}
	if categorical {
		opts.Target = "LABEL"
		opts.TargetCategorical = true
	}
	ds, err := Extract(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestExtractAndSummarize(t *testing.T) {
	rel := syntheticRelation(500)
	ds := extractXY(t, rel, false)
	if ds.Rows() != 500 || ds.Cols() != 2 || len(ds.Target) != 500 {
		t.Fatalf("extract: %d rows, %d cols", ds.Rows(), ds.Cols())
	}
	stats, err := Summarize(rel, []string{"X1", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Count != 500 || stats[0].Min < 0 || stats[0].Max > 10 {
		t.Fatalf("summary: %+v", stats[0])
	}
	if _, err := Summarize(rel, []string{"NOPE"}); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := Extract(rel, ExtractOptions{Features: []string{"MISSING"}}); err == nil {
		t.Fatal("unknown feature should fail")
	}
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	ds := extractXY(t, syntheticRelation(2000), false)
	model, err := TrainLinearRegression([]*Dataset{ds}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model.Intercept-3) > 0.01 ||
		math.Abs(model.Coefficients[0]-2) > 0.01 ||
		math.Abs(model.Coefficients[1]+1) > 0.01 {
		t.Fatalf("coefficients not recovered: %v %v", model.Intercept, model.Coefficients)
	}
	if model.R2 < 0.999 || model.RMSE > 0.01 {
		t.Fatalf("fit quality: R2=%v RMSE=%v", model.R2, model.RMSE)
	}
	pred := model.Predict([]float64{1, 1})
	if math.Abs(pred-4) > 0.02 {
		t.Fatalf("prediction = %v", pred)
	}
	// Empty input fails with the kind's own message, whatever the partition
	// list looks like.
	for _, parts := range [][]*Dataset{nil, {&Dataset{}}, {nil, &Dataset{}}} {
		_, linErr := TrainLinearRegression(parts, 0)
		_, logitErr := TrainLogisticRegression(parts, 10, 0.1, 0)
		_, nbErr := TrainNaiveBayes(parts)
		for kind, err := range map[string]error{"linear regression": linErr, "logistic regression": logitErr, "naive bayes": nbErr} {
			if want := "analytics: " + kind + " requires at least one row"; err == nil || err.Error() != want {
				t.Fatalf("%d empty partitions: %s error = %v, want %q", len(parts), kind, err, want)
			}
		}
	}
}

func TestLogisticRegressionSeparatesClasses(t *testing.T) {
	rel := syntheticRelation(2000)
	// Binary target derived from the label.
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
	model, err := TrainLogisticRegression([]*Dataset{ds}, 300, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if model.TrainAccuracy < 0.95 {
		t.Fatalf("accuracy = %v", model.TrainAccuracy)
	}
	if model.PredictClass([]float64{10, 0}) != 1 || model.PredictClass([]float64{0, 5}) != 0 {
		t.Fatal("predictions on obvious points wrong")
	}
}

func TestKMeansFindsSeparatedClusters(t *testing.T) {
	ds := &Dataset{FeatureNames: []string{"A", "B"}}
	r := newRNG(7)
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for i := 0; i < 600; i++ {
		c := centers[i%3]
		ds.Features = append(ds.Features, []float64{c[0] + r.Float64(), c[1] + r.Float64()})
		ds.IDs = append(ds.IDs, types.NewInt(int64(i)))
	}
	model, parts, err := TrainKMeans([]*Dataset{ds}, KMeansOptions{K: 3, MaxIterations: 50, Seed: 3, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	assignments := parts[0]
	if len(model.Centroids) != 3 || len(assignments) != 600 {
		t.Fatalf("model shape: %d centroids, %d assignments", len(model.Centroids), len(assignments))
	}
	// Points generated from the same centre must share a cluster.
	for i := 3; i < 600; i++ {
		if assignments[i] != assignments[i%3] {
			t.Fatalf("point %d assigned to %d, expected %d", i, assignments[i], assignments[i%3])
		}
	}
	if model.Inertia > 600*2 {
		t.Fatalf("inertia too high: %v", model.Inertia)
	}
}

func TestNaiveBayesAndDecisionTree(t *testing.T) {
	ds := extractXY(t, syntheticRelation(1500), true)
	nb, err := TrainNaiveBayes([]*Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	if acc := nb.Accuracy(ds); acc < 0.85 {
		t.Fatalf("naive bayes accuracy = %v", acc)
	}
	if len(nb.Classes) != 2 {
		t.Fatalf("classes: %v", nb.Classes)
	}

	dt, err := TrainDecisionTree(ds, DecisionTreeOptions{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := dt.Accuracy(ds); acc < 0.9 {
		t.Fatalf("decision tree accuracy = %v", acc)
	}
	if dt.Depth() > 5 || dt.Nodes < 3 {
		t.Fatalf("tree shape: depth=%d nodes=%d", dt.Depth(), dt.Nodes)
	}
}

func TestTransformations(t *testing.T) {
	rel := syntheticRelation(300)
	std, err := Standardize(rel, []string{"X1", "X2"})
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := Summarize(std, []string{"X1"})
	if math.Abs(stats[0].Mean) > 1e-9 || math.Abs(stats[0].StdDev-1) > 1e-9 {
		t.Fatalf("standardised stats: %+v", stats[0])
	}

	// Inject NULLs, impute them away.
	withNulls := rel.Clone()
	withNulls.Rows = append([]types.Row(nil), rel.Rows...)
	withNulls.Rows[0] = withNulls.Rows[0].Clone()
	withNulls.Rows[0][1] = types.Null()
	imputed, replaced, err := Impute(withNulls, []string{"X1"}, ImputeMean)
	if err != nil || replaced != 1 {
		t.Fatalf("impute: %d, %v", replaced, err)
	}
	if imputed.Rows[0][1].IsNull() {
		t.Fatal("NULL not imputed")
	}

	binned, err := Bin(rel, "X1", 4)
	if err != nil {
		t.Fatal(err)
	}
	binIdx := binned.Schema().IndexOf("X1_BIN")
	if binIdx < 0 {
		t.Fatal("bin column missing")
	}
	for _, r := range binned.Rows {
		if b, _ := r[binIdx].AsInt(); b < 0 || b > 3 {
			t.Fatalf("bin out of range: %d", b)
		}
	}

	oneHot, cols, err := OneHot(rel, "LABEL", 10)
	if err != nil || len(cols) != 2 {
		t.Fatalf("one-hot: %v, %v", cols, err)
	}
	idxPos := oneHot.Schema().IndexOf("LABEL_POS")
	if idxPos < 0 {
		t.Fatal("LABEL_POS missing")
	}

	train, test := SplitData(rel, 0.75, 99)
	if len(train.Rows)+len(test.Rows) != len(rel.Rows) {
		t.Fatal("split lost rows")
	}
	if len(train.Rows) < len(rel.Rows)/2 {
		t.Fatalf("train fraction too small: %d of %d", len(train.Rows), len(rel.Rows))
	}
	// The split is deterministic for a fixed seed.
	train2, _ := SplitData(rel, 0.75, 99)
	if len(train2.Rows) != len(train.Rows) {
		t.Fatal("split not deterministic")
	}
}

func TestModelSerializationRoundTrip(t *testing.T) {
	ds := extractXY(t, syntheticRelation(400), false)
	model, err := TrainLinearRegression([]*Dataset{ds}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ModelRows(ModelKindLinear, model, map[string]float64{"RMSE": model.RMSE})
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
	if err != nil || kind != ModelKindLinear {
		t.Fatalf("load: %v, %v", kind, err)
	}
	lm := loaded.(*LinearModel)
	if math.Abs(lm.Intercept-model.Intercept) > 1e-12 {
		t.Fatal("intercept lost in round trip")
	}
	scored, schema, err := ScoreRelation(kind, lm, syntheticRelation(50), "ID")
	if err != nil || len(scored) != 50 || schema.Len() != 3 {
		t.Fatalf("score: %d rows, %v", len(scored), err)
	}
}

// TestLinearSolverProperty: solving A x = b for a random diagonally-dominant
// matrix reproduces b when multiplied back.
func TestLinearSolverProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newRNG(seed)
		n := 4
		a := make([][]float64, n)
		x := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Float64()
			}
			a[i][i] += float64(n) // diagonally dominant => well conditioned
			x[i] = r.Float64() * 10
		}
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i][j] * x[j]
			}
		}
		aCopy := make([][]float64, n)
		for i := range a {
			aCopy[i] = append([]float64(nil), a[i]...)
		}
		got, err := solveLinearSystem(aCopy, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
