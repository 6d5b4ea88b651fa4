package analytics

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"idaax/internal/relalg"
	"idaax/internal/types"
)

// The reference oracles below train on one whole dataset in a single pass
// over its rows, with no partials and no merge. They pin what
// TrainLinearRegression, TrainLogisticRegression, TrainNaiveBayes and
// TrainKMeans must produce on one partition, and what the merged models must
// approach on several.

// linearRegressionOracle is the one-pass linear regression trainer over a
// whole dataset: it builds the normal equations (X'X + ridge*I) beta = X'y
// row by row and solves them. TrainLinearRegression on one partition must
// match it bit for bit.
func linearRegressionOracle(ds *Dataset, ridge float64) (*LinearModel, error) {
	n := ds.Rows()
	p := ds.Cols()
	if n == 0 {
		return nil, fmt.Errorf("analytics: linear regression requires at least one row")
	}
	if len(ds.Target) != n {
		return nil, fmt.Errorf("analytics: linear regression requires a numeric target")
	}
	if ridge < 0 {
		ridge = 0
	}
	d := p + 1 // intercept term

	// Build the normal equations.
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	xrow := make([]float64, d)
	for i := 0; i < n; i++ {
		xrow[0] = 1
		copy(xrow[1:], ds.Features[i])
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				xtx[a][b] += xrow[a] * xrow[b]
			}
			xty[a] += xrow[a] * ds.Target[i]
		}
	}
	for a := 1; a < d; a++ {
		xtx[a][a] += ridge
	}

	beta, err := solveLinearSystem(xtx, xty)
	if err != nil {
		return nil, err
	}

	model := &LinearModel{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		Intercept:    beta[0],
		Coefficients: beta[1:],
		Ridge:        ridge,
		N:            n,
	}

	// Training metrics.
	var ssRes, ssTot, mean float64
	for _, y := range ds.Target {
		mean += y
	}
	mean /= float64(n)
	for i := 0; i < n; i++ {
		pred := model.Predict(ds.Features[i])
		diff := ds.Target[i] - pred
		ssRes += diff * diff
		dt := ds.Target[i] - mean
		ssTot += dt * dt
	}
	model.RMSE = math.Sqrt(ssRes / float64(n))
	if ssTot > 0 {
		model.R2 = 1 - ssRes/ssTot
	}
	return model, nil
}

// logisticRegressionOracle is the one-pass batch-gradient-descent logistic
// regression trainer over a whole dataset. The target must be 0/1 (values >
// 0.5 are the positive class); features are standardised internally and the
// coefficients transformed back to the original scale.
// TrainLogisticRegression on one partition must match it bit for bit.
func logisticRegressionOracle(ds *Dataset, iterations int, learningRate, l2 float64) (*LogisticModel, error) {
	n := ds.Rows()
	p := ds.Cols()
	if n == 0 {
		return nil, fmt.Errorf("analytics: logistic regression requires at least one row")
	}
	if len(ds.Target) != n {
		return nil, fmt.Errorf("analytics: logistic regression requires a numeric 0/1 target")
	}
	if iterations <= 0 {
		iterations = 200
	}
	if learningRate <= 0 {
		learningRate = 0.1
	}
	if l2 < 0 {
		l2 = 0
	}

	// Standardise features.
	means := make([]float64, p)
	stds := make([]float64, p)
	for j := 0; j < p; j++ {
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := ds.Features[i][j]
			sum += v
			sumSq += v * v
		}
		means[j] = sum / float64(n)
		variance := sumSq/float64(n) - means[j]*means[j]
		if variance < 1e-12 {
			variance = 1
		}
		stds[j] = math.Sqrt(variance)
	}
	std := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		std[i] = make([]float64, p)
		for j := 0; j < p; j++ {
			std[i][j] = (ds.Features[i][j] - means[j]) / stds[j]
		}
		if ds.Target[i] > 0.5 {
			y[i] = 1
		}
	}

	w := make([]float64, p)
	b := 0.0
	for iter := 0; iter < iterations; iter++ {
		gradW := make([]float64, p)
		gradB := 0.0
		for i := 0; i < n; i++ {
			z := b
			for j := 0; j < p; j++ {
				z += w[j] * std[i][j]
			}
			pred := sigmoid(z)
			err := pred - y[i]
			for j := 0; j < p; j++ {
				gradW[j] += err * std[i][j]
			}
			gradB += err
		}
		scale := learningRate / float64(n)
		for j := 0; j < p; j++ {
			w[j] -= scale * (gradW[j] + l2*w[j])
		}
		b -= scale * gradB
	}

	// Transform coefficients back to the original feature scale.
	coeffs := make([]float64, p)
	intercept := b
	for j := 0; j < p; j++ {
		coeffs[j] = w[j] / stds[j]
		intercept -= w[j] * means[j] / stds[j]
	}

	model := &LogisticModel{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		Intercept:    intercept,
		Coefficients: coeffs,
		Iterations:   iterations,
		LearningRate: learningRate,
		N:            n,
	}

	// Training metrics.
	correct := 0
	logLoss := 0.0
	for i := 0; i < n; i++ {
		prob := model.PredictProbability(ds.Features[i])
		if (prob >= 0.5) == (y[i] == 1) {
			correct++
		}
		eps := 1e-12
		logLoss += -(y[i]*math.Log(prob+eps) + (1-y[i])*math.Log(1-prob+eps))
	}
	model.TrainAccuracy = float64(correct) / float64(n)
	model.TrainLogLoss = logLoss / float64(n)
	return model, nil
}

// naiveBayesOracle is the one-pass gaussian naive Bayes trainer over a whole
// labelled dataset. TrainNaiveBayes on one partition must match it bit for
// bit.
func naiveBayesOracle(ds *Dataset) (*NaiveBayesModel, error) {
	n := ds.Rows()
	p := ds.Cols()
	if n == 0 {
		return nil, fmt.Errorf("analytics: naive bayes requires at least one row")
	}
	if len(ds.Labels) != n {
		return nil, fmt.Errorf("analytics: naive bayes requires a categorical target")
	}

	counts := make(map[string]int)
	sums := make(map[string][]float64)
	sumSqs := make(map[string][]float64)
	for i := 0; i < n; i++ {
		label := ds.Labels[i]
		if _, ok := counts[label]; !ok {
			sums[label] = make([]float64, p)
			sumSqs[label] = make([]float64, p)
		}
		counts[label]++
		for j := 0; j < p; j++ {
			v := ds.Features[i][j]
			sums[label][j] += v
			sumSqs[label][j] += v * v
		}
	}

	model := &NaiveBayesModel{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		Priors:       make(map[string]float64),
		Means:        make(map[string][]float64),
		Variances:    make(map[string][]float64),
		N:            n,
	}
	for label, c := range counts {
		model.Classes = append(model.Classes, label)
		model.Priors[label] = float64(c) / float64(n)
		means := make([]float64, p)
		variances := make([]float64, p)
		for j := 0; j < p; j++ {
			means[j] = sums[label][j] / float64(c)
			v := sumSqs[label][j]/float64(c) - means[j]*means[j]
			if v < 1e-9 {
				v = 1e-9 // variance smoothing
			}
			variances[j] = v
		}
		model.Means[label] = means
		model.Variances[label] = variances
	}
	sort.Strings(model.Classes)
	return model, nil
}

// kmeansOracle is the one-dataset k-means trainer: Lloyd's algorithm with
// k-means++ initialisation, the assignment step parallelised across worker
// slices and the centroids recomputed in one pass over the rows. TrainKMeans
// on one partition must match it bit for bit.
func kmeansOracle(ds *Dataset, opts KMeansOptions) (*KMeansModel, []int, error) {
	n := ds.Rows()
	p := ds.Cols()
	if n == 0 {
		return nil, nil, fmt.Errorf("analytics: k-means requires at least one row")
	}
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("analytics: k-means requires K > 0")
	}
	if opts.K > n {
		opts.K = n
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 50
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-6
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	centroids := initKMeansPlusPlus(ds.Features, opts.K, newRNG(opts.Seed))
	assignments := make([]int, n)
	iterations := 0

	for iter := 0; iter < opts.MaxIterations; iter++ {
		iterations = iter + 1
		if _, err := assignParallel(ds, centroids, assignments, workers); err != nil {
			return nil, nil, err
		}

		// Recompute centroids.
		newCentroids := make([][]float64, opts.K)
		counts := make([]int, opts.K)
		for c := range newCentroids {
			newCentroids[c] = make([]float64, p)
		}
		for i := 0; i < n; i++ {
			c := assignments[i]
			counts[c]++
			for j := 0; j < p; j++ {
				newCentroids[c][j] += ds.Features[i][j]
			}
		}
		movement := 0.0
		for c := 0; c < opts.K; c++ {
			if counts[c] == 0 {
				// Empty cluster: keep the previous centroid.
				newCentroids[c] = centroids[c]
				continue
			}
			for j := 0; j < p; j++ {
				newCentroids[c][j] /= float64(counts[c])
				movement += math.Abs(newCentroids[c][j] - centroids[c][j])
			}
		}
		centroids = newCentroids
		if movement < opts.Tolerance {
			break
		}
	}
	inertia, err := assignParallel(ds, centroids, assignments, workers)
	if err != nil {
		return nil, nil, err
	}

	model := &KMeansModel{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		Centroids:    centroids,
		Inertia:      inertia,
		Iterations:   iterations,
		N:            n,
	}
	return model, assignments, nil
}

// bitsDiff returns "" when got and want are identical, comparing every float
// by its IEEE-754 bits (so a NaN matches a NaN with the same payload and -0
// does not match +0), and otherwise the path of the first difference.
func bitsDiff(path string, got, want reflect.Value) string {
	switch got.Kind() {
	case reflect.Float64:
		if g, w := got.Float(), want.Float(); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", path, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	case reflect.Pointer:
		if got.IsNil() || want.IsNil() {
			if got.IsNil() != want.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		return bitsDiff(path, got.Elem(), want.Elem())
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if d := bitsDiff(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if got.Len() != want.Len() || got.IsNil() != want.IsNil() {
			return fmt.Sprintf("%s: length %d vs %d", path, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if d := bitsDiff(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if got.Len() != want.Len() {
			return fmt.Sprintf("%s: %d keys vs %d", path, got.Len(), want.Len())
		}
		for _, k := range got.MapKeys() {
			w := want.MapIndex(k)
			if !w.IsValid() {
				return fmt.Sprintf("%s: key %v missing", path, k)
			}
			if d := bitsDiff(fmt.Sprintf("%s[%v]", path, k), got.MapIndex(k), w); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(got.Interface(), want.Interface()) {
			return fmt.Sprintf("%s: %v vs %v", path, got, want)
		}
	}
	return ""
}

// TestOraclesMatchOnePartition pins each partition trainer, given one
// partition, to its reference oracle bit for bit — models, or error messages
// when both refuse the input — over the unit corpus and the edge cases where
// a merge could plausibly change a bit: one row, one class, ridge 0, a
// constant feature, a -0 feature and a NaN feature.
func TestOraclesMatchOnePartition(t *testing.T) {
	// labelled carries both targets: Y for the regressions (the logistic
	// trainer reads Y > 0.5 as the positive class) and LABEL for naive Bayes.
	labelled := func(rel *relalg.Relation) *Dataset {
		ds := extractXY(t, rel, false)
		ds.Labels = extractXY(t, rel, true).Labels
		return ds
	}
	withColumn := func(ds *Dataset, j int, f func(i int, v float64) float64) *Dataset {
		for i, row := range ds.Features {
			row[j] = f(i, row[j])
		}
		return ds
	}
	onlyPositive := syntheticRelation(400)
	var positive []types.Row
	for _, r := range onlyPositive.Rows {
		if r[4].Str == "POS" {
			positive = append(positive, r)
		}
	}
	onlyPositive.Rows = positive

	cases := []struct {
		name  string
		ds    *Dataset
		ridge float64
	}{
		{"rows=50", labelled(syntheticRelation(50)), 1e-6},
		{"rows=2000", labelled(syntheticRelation(2000)), 1e-6},
		{"rows=7777", labelled(syntheticRelation(7777)), 1e-6},
		{"one row", labelled(syntheticRelation(1)), 1e-6},
		{"one class", labelled(onlyPositive), 1e-6},
		{"ridge 0", labelled(syntheticRelation(2000)), 0},
		{"constant feature", withColumn(labelled(syntheticRelation(500)), 1, func(int, float64) float64 { return 1.5 }), 1e-6},
		{"-0 feature", withColumn(labelled(syntheticRelation(500)), 1, func(int, float64) float64 { return math.Copysign(0, -1) }), 1e-6},
		{"NaN feature", withColumn(labelled(syntheticRelation(500)), 0, func(i int, v float64) float64 {
			if i == 17 {
				return math.NaN()
			}
			return v
		}), 1e-6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parts := []*Dataset{c.ds}
			check := func(kind string, got, want any, gotErr, wantErr error) {
				t.Helper()
				if gotErr != nil || wantErr != nil {
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, oracle %v", kind, gotErr, wantErr)
					}
					return
				}
				if d := bitsDiff(kind, reflect.ValueOf(got), reflect.ValueOf(want)); d != "" {
					t.Fatalf("one partition differs from the oracle at %s", d)
				}
			}
			lin, linErr := TrainLinearRegression(parts, c.ridge)
			linWant, linWantErr := linearRegressionOracle(c.ds, c.ridge)
			check("linear", lin, linWant, linErr, linWantErr)
			logit, logitErr := TrainLogisticRegression(parts, 60, 0.3, 1e-4)
			logitWant, logitWantErr := logisticRegressionOracle(c.ds, 60, 0.3, 1e-4)
			check("logistic", logit, logitWant, logitErr, logitWantErr)
			nb, nbErr := TrainNaiveBayes(parts)
			nbWant, nbWantErr := naiveBayesOracle(c.ds)
			check("naive bayes", nb, nbWant, nbErr, nbWantErr)
			// Parallelism 0 is GOMAXPROCS for both, so the pin holds at any
			// -cpu setting.
			kmOpts := KMeansOptions{K: 3, MaxIterations: 50, Seed: 3}
			km, kmAssign, kmErr := TrainKMeans(parts, kmOpts)
			kmWant, kmWantAssign, kmWantErr := kmeansOracle(c.ds, kmOpts)
			check("k-means", km, kmWant, kmErr, kmWantErr)
			if kmErr == nil && !reflect.DeepEqual(kmAssign[0], kmWantAssign) {
				t.Fatal("one-partition k-means assignments differ from the oracle's")
			}
		})
	}
}
