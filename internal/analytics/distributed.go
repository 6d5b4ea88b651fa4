package analytics

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"idaax/internal/par"
)

// This file implements partition training: every partition of the input
// table (one per shard, or one for a table read whole) reduces to a partial —
// sufficient statistics whose math is a sum over rows — and the coordinator
// folds the partials into one model. Linear and logistic regression, naive
// Bayes and column summaries merge exactly (their estimators are sums of
// per-row terms), so their trainers here serve every partition count; so does
// TrainKMeans (kmeans.go), whose per-round cluster sums merge the same way.
// Decision trees are the exception: greedy splits do not decompose into
// per-partition sums, so several partitions grow a voting forest (forest.go).

// forEachPart runs fn(i, parts[i]) concurrently for every non-empty partition
// and returns the first error.
func forEachPart(parts []*Dataset, fn func(i int, ds *Dataset) error) error {
	return par.Do(len(parts), func(i int) error {
		if ds := parts[i]; ds != nil && ds.Rows() > 0 {
			return fn(i, ds)
		}
		return nil
	})
}

// partStats validates a partition list and returns the shared feature names
// and total row count. Partitions may be nil/empty (shards holding no rows);
// when all are, the error names the model kind being trained.
func partStats(parts []*Dataset, kind string) (featureNames []string, total int, err error) {
	for _, ds := range parts {
		if ds == nil || ds.Rows() == 0 {
			continue
		}
		total += ds.Rows()
		if featureNames == nil {
			featureNames = ds.FeatureNames
			continue
		}
		if len(ds.FeatureNames) != len(featureNames) {
			return nil, 0, fmt.Errorf("analytics: partitions disagree on feature count (%d vs %d)", len(ds.FeatureNames), len(featureNames))
		}
		for j, name := range ds.FeatureNames {
			if name != featureNames[j] {
				return nil, 0, fmt.Errorf("analytics: partitions disagree on feature %d (%s vs %s)", j, name, featureNames[j])
			}
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("analytics: %s requires at least one row", kind)
	}
	return featureNames, total, nil
}

// ---------------------------------------------------------------------------
// Linear regression: per-shard Gram matrices (X'X, X'y) merge exactly.
// ---------------------------------------------------------------------------

// LinRegPartial is one shard's contribution to the normal equations: the
// local Gram matrix X'X and moment vector X'y (intercept column first), plus
// the target moments needed to finalise RMSE/R².
type LinRegPartial struct {
	XtX [][]float64
	XtY []float64
	N   int
}

// LinRegPartialFromDataset reduces one partition to its normal-equation
// contribution. The dataset must carry a numeric target.
func LinRegPartialFromDataset(ds *Dataset) (*LinRegPartial, error) {
	n := ds.Rows()
	if len(ds.Target) != n {
		return nil, fmt.Errorf("analytics: linear regression requires a numeric target")
	}
	d := ds.Cols() + 1
	p := &LinRegPartial{XtX: make([][]float64, d), XtY: make([]float64, d), N: n}
	for i := range p.XtX {
		p.XtX[i] = make([]float64, d)
	}
	xtx, xty := p.XtX, p.XtY
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
	return p, nil
}

// MergeLinRegPartials sums per-shard Gram matrices, adds ridge (which must
// be non-negative) to the non-intercept diagonal and solves the merged normal
// equations — the exact estimator one pass over all rows computes, because
// matrix sums commute with row grouping.
func MergeLinRegPartials(parts []*LinRegPartial, ridge float64) (beta []float64, n int, err error) {
	var xtx [][]float64
	var xty []float64
	for _, p := range parts {
		if p == nil {
			continue
		}
		if xtx == nil {
			d := len(p.XtY)
			xtx = make([][]float64, d)
			for i := range xtx {
				xtx[i] = append([]float64(nil), p.XtX[i]...)
			}
			xty = append([]float64(nil), p.XtY...)
			n = p.N
			continue
		}
		if len(p.XtY) != len(xty) {
			return nil, 0, fmt.Errorf("analytics: mismatched linear-regression partials (%d vs %d terms)", len(p.XtY), len(xty))
		}
		for a := range xtx {
			for b := range xtx[a] {
				xtx[a][b] += p.XtX[a][b]
			}
			xty[a] += p.XtY[a]
		}
		n += p.N
	}
	if xtx == nil || n == 0 {
		return nil, 0, fmt.Errorf("analytics: linear regression requires at least one row")
	}
	for a := 1; a < len(xtx); a++ {
		xtx[a][a] += ridge
	}
	beta, err = solveLinearSystem(xtx, xty)
	if err != nil {
		return nil, 0, err
	}
	return beta, n, nil
}

// TrainLinearRegression fits a linear regression with the normal equations
// (X'X + ridge*I) beta = X'y, solved by Gaussian elimination with partial
// pivoting; it is exact for the modest feature counts analytics pipelines
// use. Each partition reduces to a Gram-matrix partial, the partials merge
// and solve, and a second pass of per-partition residual sums finalises
// RMSE/R². One partition and many give the same model up to floating-point
// summation order.
func TrainLinearRegression(parts []*Dataset, ridge float64) (*LinearModel, error) {
	featureNames, total, err := partStats(parts, "linear regression")
	if err != nil {
		return nil, err
	}
	if ridge < 0 {
		ridge = 0
	}
	partials := make([]*LinRegPartial, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) error {
		p, err := LinRegPartialFromDataset(ds)
		partials[i] = p
		return err
	}); err != nil {
		return nil, err
	}
	beta, n, err := MergeLinRegPartials(partials, ridge)
	if err != nil {
		return nil, err
	}
	model := &LinearModel{
		FeatureNames: append([]string(nil), featureNames...),
		Intercept:    beta[0],
		Coefficients: beta[1:],
		Ridge:        ridge,
		N:            n,
	}

	// Metric scatter: Σy is the intercept component of the merged X'y, so the
	// global mean is known before the residual pass.
	var sumY float64
	for _, p := range partials {
		if p != nil {
			sumY += p.XtY[0]
		}
	}
	mean := sumY / float64(total)
	ssRes := make([]float64, len(parts))
	ssTot := make([]float64, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) error {
		var res, tot float64
		for r, features := range ds.Features {
			diff := ds.Target[r] - model.Predict(features)
			res += diff * diff
			dt := ds.Target[r] - mean
			tot += dt * dt
		}
		ssRes[i], ssTot[i] = res, tot
		return nil
	}); err != nil {
		return nil, err
	}
	var res, tot float64
	for i := range ssRes {
		res += ssRes[i]
		tot += ssTot[i]
	}
	model.RMSE = math.Sqrt(res / float64(total))
	if tot > 0 {
		model.R2 = 1 - res/tot
	}
	return model, nil
}

// ---------------------------------------------------------------------------
// Logistic regression: per-iteration gradient sums merge exactly.
// ---------------------------------------------------------------------------

// TrainLogisticRegression fits a binary logistic regression with batch
// gradient descent. The target must be 0/1 (values > 0.5 are the positive
// class). Features are standardised with moments merged across partitions
// for stable gradients, and the coefficients are transformed back to the
// original scale. Every iteration has each partition sum the gradient over
// its own rows and merges the per-partition sums — only 2(p+1) floats per
// partition per round travel, never rows.
func TrainLogisticRegression(parts []*Dataset, iterations int, learningRate, l2 float64) (*LogisticModel, error) {
	featureNames, n, err := partStats(parts, "logistic regression")
	if err != nil {
		return nil, err
	}
	for _, ds := range parts {
		if ds != nil && ds.Rows() > 0 && len(ds.Target) != ds.Rows() {
			return nil, fmt.Errorf("analytics: logistic regression requires a numeric 0/1 target")
		}
	}
	p := len(featureNames)
	if iterations <= 0 {
		iterations = 200
	}
	if learningRate <= 0 {
		learningRate = 0.1
	}
	if l2 < 0 {
		l2 = 0
	}

	// Global standardisation moments, merged across shards.
	sums := make([]float64, p)
	sumSqs := make([]float64, p)
	var mu sync.Mutex
	if err := forEachPart(parts, func(_ int, ds *Dataset) error {
		localSum := make([]float64, p)
		localSq := make([]float64, p)
		for i := 0; i < ds.Rows(); i++ {
			for j := 0; j < p; j++ {
				v := ds.Features[i][j]
				localSum[j] += v
				localSq[j] += v * v
			}
		}
		mu.Lock()
		for j := 0; j < p; j++ {
			sums[j] += localSum[j]
			sumSqs[j] += localSq[j]
		}
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	means := make([]float64, p)
	stds := make([]float64, p)
	for j := 0; j < p; j++ {
		means[j] = sums[j] / float64(n)
		variance := sumSqs[j]/float64(n) - means[j]*means[j]
		if variance < 1e-12 {
			variance = 1
		}
		stds[j] = math.Sqrt(variance)
	}

	// Standardize each partition once instead of re-deriving every cell on
	// every iteration.
	stdParts := make([][][]float64, len(parts))
	yParts := make([][]float64, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) error {
		std := make([][]float64, ds.Rows())
		y := make([]float64, ds.Rows())
		for r := 0; r < ds.Rows(); r++ {
			std[r] = make([]float64, p)
			for j := 0; j < p; j++ {
				std[r][j] = (ds.Features[r][j] - means[j]) / stds[j]
			}
			if ds.Target[r] > 0.5 {
				y[r] = 1
			}
		}
		stdParts[i] = std
		yParts[i] = y
		return nil
	}); err != nil {
		return nil, err
	}

	w := make([]float64, p)
	b := 0.0
	// One flat gradient frame per round: shard i owns the (p+1)-wide stripe
	// at frame[i*(p+1) : (i+1)*(p+1)] — p weight gradients followed by the
	// bias gradient. In a networked deployment this stripe is exactly the
	// fixed-width binary payload each shard ships back per iteration; here it
	// also means the round allocates nothing (the frame is zeroed and reused).
	// The merge folds stripes in shard-ordinal order, so the floating-point
	// summation order, and therefore the model, is fixed for a partitioning.
	stripe := p + 1
	frame := make([]float64, len(parts)*stripe)
	mergedW := make([]float64, p)
	for iter := 0; iter < iterations; iter++ {
		for k := range frame {
			frame[k] = 0
		}
		// Scatter: each shard sums gradients over its own standardized rows
		// into its stripe of the shared frame. The row loop reads and sums
		// through locals (the bias, the row, the bias gradient) rather than
		// the captured b and the frame; the additions and their order are
		// the same.
		bias := b
		if err := forEachPart(parts, func(i int, _ *Dataset) error {
			g := frame[i*stripe : (i+1)*stripe]
			y := yParts[i]
			gb := 0.0
			for r, row := range stdParts[i] {
				z := bias
				for j := 0; j < p; j++ {
					z += w[j] * row[j]
				}
				pred := sigmoid(z)
				errTerm := pred - y[r]
				for j := 0; j < p; j++ {
					g[j] += errTerm * row[j]
				}
				gb += errTerm
			}
			g[p] = gb
			return nil
		}); err != nil {
			return nil, err
		}
		// Merge the frame's stripes in shard order and update.
		scale := learningRate / float64(n)
		mergedB := 0.0
		for j := range mergedW {
			mergedW[j] = 0
		}
		for i := range parts {
			g := frame[i*stripe : (i+1)*stripe]
			for j := 0; j < p; j++ {
				mergedW[j] += g[j]
			}
			mergedB += g[p]
		}
		for j := 0; j < p; j++ {
			w[j] -= scale * (mergedW[j] + l2*w[j])
		}
		b -= scale * mergedB
	}

	coeffs := make([]float64, p)
	intercept := b
	for j := 0; j < p; j++ {
		coeffs[j] = w[j] / stds[j]
		intercept -= w[j] * means[j] / stds[j]
	}
	model := &LogisticModel{
		FeatureNames: append([]string(nil), featureNames...),
		Intercept:    intercept,
		Coefficients: coeffs,
		Iterations:   iterations,
		LearningRate: learningRate,
		N:            n,
	}

	// Metric scatter with the final model.
	correct := make([]int, len(parts))
	logLoss := make([]float64, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) error {
		hits, loss := 0, 0.0
		for r, features := range ds.Features {
			prob := model.PredictProbability(features)
			y := 0.0
			if ds.Target[r] > 0.5 {
				y = 1
			}
			if (prob >= 0.5) == (y == 1) {
				hits++
			}
			eps := 1e-12
			loss += -(y*math.Log(prob+eps) + (1-y)*math.Log(1-prob+eps))
		}
		correct[i], logLoss[i] = hits, loss
		return nil
	}); err != nil {
		return nil, err
	}
	totalCorrect := 0
	totalLoss := 0.0
	for i := range parts {
		totalCorrect += correct[i]
		totalLoss += logLoss[i]
	}
	model.TrainAccuracy = float64(totalCorrect) / float64(n)
	model.TrainLogLoss = totalLoss / float64(n)
	return model, nil
}

// ---------------------------------------------------------------------------
// Naive Bayes: per-class count/sum/sum-of-squares merge exactly.
// ---------------------------------------------------------------------------

// NaiveBayesPartial is one shard's per-class moment set.
type NaiveBayesPartial struct {
	Features int
	Counts   map[string]int
	Sums     map[string][]float64
	SumSqs   map[string][]float64
	N        int
}

// NaiveBayesPartialFromDataset reduces one labelled partition to its
// per-class moments.
func NaiveBayesPartialFromDataset(ds *Dataset) (*NaiveBayesPartial, error) {
	n := ds.Rows()
	if len(ds.Labels) != n {
		return nil, fmt.Errorf("analytics: naive bayes requires a categorical target")
	}
	p := ds.Cols()
	out := &NaiveBayesPartial{
		Features: p,
		Counts:   make(map[string]int),
		Sums:     make(map[string][]float64),
		SumSqs:   make(map[string][]float64),
		N:        n,
	}
	for i := 0; i < n; i++ {
		label := ds.Labels[i]
		if _, ok := out.Counts[label]; !ok {
			out.Sums[label] = make([]float64, p)
			out.SumSqs[label] = make([]float64, p)
		}
		out.Counts[label]++
		for j := 0; j < p; j++ {
			v := ds.Features[i][j]
			out.Sums[label][j] += v
			out.SumSqs[label][j] += v * v
		}
	}
	return out, nil
}

// MergeNaiveBayesPartials folds per-shard class moments and finalises the
// per-class priors, means and (smoothed) variances.
func MergeNaiveBayesPartials(featureNames []string, parts []*NaiveBayesPartial) (*NaiveBayesModel, error) {
	p := len(featureNames)
	counts := make(map[string]int)
	sums := make(map[string][]float64)
	sumSqs := make(map[string][]float64)
	n := 0
	for _, part := range parts {
		if part == nil {
			continue
		}
		if part.Features != p {
			return nil, fmt.Errorf("analytics: mismatched naive-bayes partials (%d vs %d features)", part.Features, p)
		}
		n += part.N
		for label, c := range part.Counts {
			if _, ok := counts[label]; !ok {
				sums[label] = make([]float64, p)
				sumSqs[label] = make([]float64, p)
			}
			counts[label] += c
			for j := 0; j < p; j++ {
				sums[label][j] += part.Sums[label][j]
				sumSqs[label][j] += part.SumSqs[label][j]
			}
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("analytics: naive bayes requires at least one row")
	}
	model := &NaiveBayesModel{
		FeatureNames: append([]string(nil), featureNames...),
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
				v = 1e-9
			}
			variances[j] = v
		}
		model.Means[label] = means
		model.Variances[label] = variances
	}
	sort.Strings(model.Classes)
	return model, nil
}

// TrainNaiveBayes fits a gaussian naive Bayes model over labelled
// partitions: each partition reduces to per-class count/sum/sum-of-squares
// moments, which merge exactly.
func TrainNaiveBayes(parts []*Dataset) (*NaiveBayesModel, error) {
	featureNames, _, err := partStats(parts, "naive bayes")
	if err != nil {
		return nil, err
	}
	partials := make([]*NaiveBayesPartial, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) error {
		p, err := NaiveBayesPartialFromDataset(ds)
		partials[i] = p
		return err
	}); err != nil {
		return nil, err
	}
	return MergeNaiveBayesPartials(featureNames, partials)
}
