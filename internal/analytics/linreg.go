package analytics

import (
	"fmt"
	"math"
)

// LinearModel is a least-squares linear regression model.
type LinearModel struct {
	FeatureNames []string
	Intercept    float64
	Coefficients []float64
	// Ridge is the L2 regularisation applied during training (also stabilises
	// the normal equations numerically).
	Ridge float64
	// RMSE and R2 are training-set goodness-of-fit metrics.
	RMSE float64
	R2   float64
	N    int
}

// Predict returns the model's prediction for one feature vector.
func (m *LinearModel) Predict(features []float64) float64 {
	y := m.Intercept
	for j, c := range m.Coefficients {
		if j < len(features) {
			y += c * features[j]
		}
	}
	return y
}

// solveLinearSystem solves A x = b with Gaussian elimination and partial
// pivoting. A is modified in place.
func solveLinearSystem(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("analytics: singular matrix in linear solve (column %d); add regularisation or remove collinear features", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		x[col], x[pivot] = x[pivot], x[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			factor := a[r][col] / a[col][col]
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			x[r] -= factor * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for c := col + 1; c < n; c++ {
			sum -= a[col][c] * x[c]
		}
		x[col] = sum / a[col][col]
	}
	return x, nil
}
