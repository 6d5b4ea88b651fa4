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
	// Parallelism is the number of goroutines used for the assignment step
	// (the accelerator passes its slice count). <=0 means GOMAXPROCS.
	Parallelism int
	// Tolerance stops iterating when total centroid movement falls below it.
	Tolerance float64
}

// TrainKMeans clusters the dataset with Lloyd's algorithm and k-means++
// initialisation. The assignment step is parallelised across worker slices,
// matching how the accelerator distributes row ranges.
func TrainKMeans(ds *Dataset, opts KMeansOptions) (*KMeansModel, []int, error) {
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

	centroids := initKMeansPlusPlus(ds, opts.K, newRNG(opts.Seed))
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

// Predict returns the index of the nearest centroid.
func (m *KMeansModel) Predict(features []float64) int {
	best, _ := nearestCentroid(features, m.Centroids)
	return best
}

func initKMeansPlusPlus(ds *Dataset, k int, r *rng) [][]float64 {
	n := ds.Rows()
	centroids := make([][]float64, 0, k)
	first := r.Intn(n)
	centroids = append(centroids, append([]float64(nil), ds.Features[first]...))
	dists := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		for i := 0; i < n; i++ {
			_, d := nearestCentroid(ds.Features[i], centroids)
			dists[i] = d
			total += d
		}
		if total == 0 {
			// All points identical to chosen centroids; pick randomly.
			centroids = append(centroids, append([]float64(nil), ds.Features[r.Intn(n)]...))
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
		centroids = append(centroids, append([]float64(nil), ds.Features[chosen]...))
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
