package analytics

import (
	"fmt"
	"math"
	"runtime"

	"idaax/internal/par"
)

// KMeansModel holds cluster centroids.
type KMeansModel struct {
	FeatureNames []string
	Centroids    [][]float64
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia    float64
	Iterations int
	N          int
}

// KMeansOptions configures training.
type KMeansOptions struct {
	K             int
	MaxIterations int
	Seed          int64
	// Parallelism is the number of goroutines each partition uses for the
	// assignment step (the accelerator passes its slice count). <=0 means
	// GOMAXPROCS.
	Parallelism int
	// Tolerance stops iterating when total centroid movement falls below it.
	Tolerance float64
}

// TrainKMeans clusters the partitions with exact partitioned Lloyd and
// k-means++ seeding. Seeding runs over the non-empty partitions' rows
// concatenated in ordinal order. Every round each partition assigns its rows
// to the nearest centroid and sums its clusters, all partitions in parallel,
// and the coordinator merges the per-cluster sums and counts in ordinal order,
// starting from the first partition's sums. One partition therefore gives
// the one-pass result bit for bit, and several give the same clustering as
// one pass over their concatenation up to summation order. The assignment
// step is parallelised across worker slices within each partition, matching
// how the accelerator distributes row ranges. Returns the model and the
// assignments aligned with parts (nil for empty partitions).
func TrainKMeans(parts []*Dataset, opts KMeansOptions) (*KMeansModel, [][]int, error) {
	featureNames, n, err := partStats(parts, "k-means")
	if err != nil {
		return nil, nil, err
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

	rows := make([][]float64, 0, n)
	assignments := make([][]int, len(parts))
	for i, ds := range parts {
		if ds != nil && ds.Rows() > 0 {
			rows = append(rows, ds.Features...)
			assignments[i] = make([]int, ds.Rows())
		}
	}
	centroids := initKMeansPlusPlus(rows, opts.K, newRNG(opts.Seed))
	sums := make([][][]float64, len(parts))
	counts := make([][]int, len(parts))
	iterations := 0

	for iter := 0; iter < opts.MaxIterations; iter++ {
		iterations = iter + 1
		if err := forEachPart(parts, func(i int, ds *Dataset) error {
			if _, err := assignParallel(ds, centroids, assignments[i], workers); err != nil {
				return err
			}
			sum := make([][]float64, opts.K)
			count := make([]int, opts.K)
			for c := range sum {
				sum[c] = make([]float64, len(featureNames))
			}
			for r, c := range assignments[i] {
				count[c]++
				for j, v := range ds.Features[r] {
					sum[c][j] += v
				}
			}
			sums[i], counts[i] = sum, count
			return nil
		}); err != nil {
			return nil, nil, err
		}

		// Merge in ordinal order; the merged sums become the new centroids.
		var next [][]float64
		var count []int
		for i := range parts {
			if sums[i] == nil {
				continue
			}
			if next == nil {
				next, count = sums[i], counts[i]
				continue
			}
			for c := range next {
				count[c] += counts[i][c]
				for j := range next[c] {
					next[c][j] += sums[i][c][j]
				}
			}
		}
		movement := 0.0
		for c := range next {
			if count[c] == 0 {
				// Empty cluster: keep the previous centroid.
				next[c] = centroids[c]
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(count[c])
				movement += math.Abs(next[c][j] - centroids[c][j])
			}
		}
		centroids = next
		if movement < opts.Tolerance {
			break
		}
	}
	inertias := make([]float64, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) (err error) {
		inertias[i], err = assignParallel(ds, centroids, assignments[i], workers)
		return err
	}); err != nil {
		return nil, nil, err
	}
	inertia := 0.0
	for _, v := range inertias {
		inertia += v
	}

	model := &KMeansModel{
		FeatureNames: append([]string(nil), featureNames...),
		Centroids:    centroids,
		Inertia:      inertia,
		Iterations:   iterations,
		N:            n,
	}
	return model, assignments, nil
}

// Predict returns the index of the nearest centroid.
func (m *KMeansModel) Predict(features []float64) int {
	best, _ := nearestCentroid(features, m.Centroids)
	return best
}

// initKMeansPlusPlus picks k initial centroids from rows with k-means++:
// the first uniformly, each next one with probability proportional to its
// squared distance from the centroids chosen so far.
func initKMeansPlusPlus(rows [][]float64, k int, r *rng) [][]float64 {
	n := len(rows)
	centroids := make([][]float64, 0, k)
	first := r.Intn(n)
	centroids = append(centroids, append([]float64(nil), rows[first]...))
	dists := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		for i := 0; i < n; i++ {
			_, d := nearestCentroid(rows[i], centroids)
			dists[i] = d
			total += d
		}
		if total == 0 {
			// All points identical to chosen centroids; pick randomly.
			centroids = append(centroids, append([]float64(nil), rows[r.Intn(n)]...))
			continue
		}
		target := r.Float64() * total
		acc := 0.0
		chosen := n - 1
		for i := 0; i < n; i++ {
			acc += dists[i]
			if acc >= target {
				chosen = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), rows[chosen]...))
	}
	return centroids
}

func nearestCentroid(x []float64, centroids [][]float64) (int, float64) {
	best := 0
	bestDist := math.Inf(1)
	for c, centroid := range centroids {
		d := 0.0
		for j := range centroid {
			diff := x[j] - centroid[j]
			d += diff * diff
		}
		if d < bestDist {
			bestDist = d
			best = c
		}
	}
	return best, bestDist
}

func assignParallel(ds *Dataset, centroids [][]float64, assignments []int, workers int) (float64, error) {
	partial := make([]float64, max(workers, 1))
	err := par.Ranges(ds.Rows(), workers, func(w, lo, hi int) error {
		sum := 0.0
		for i := lo; i < hi; i++ {
			c, d := nearestCentroid(ds.Features[i], centroids)
			assignments[i] = c
			sum += d
		}
		partial[w] = sum
		return nil
	})
	total := 0.0
	for _, s := range partial {
		total += s
	}
	return total, err
}
