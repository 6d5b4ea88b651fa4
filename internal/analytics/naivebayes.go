package analytics

import "math"

// NaiveBayesModel is a Gaussian naive Bayes classifier over numeric features
// with categorical class labels.
type NaiveBayesModel struct {
	FeatureNames []string
	Classes      []string
	Priors       map[string]float64
	// Means[class][feature] and Variances[class][feature] parameterise the
	// per-class gaussians.
	Means     map[string][]float64
	Variances map[string][]float64
	N         int
}

// PredictClass returns the most probable class and its log-probability score.
func (m *NaiveBayesModel) PredictClass(features []float64) (string, float64) {
	bestClass := ""
	bestScore := math.Inf(-1)
	for _, class := range m.Classes {
		score := math.Log(m.Priors[class])
		means := m.Means[class]
		variances := m.Variances[class]
		for j := range m.FeatureNames {
			if j >= len(features) {
				break
			}
			x := features[j]
			mu := means[j]
			va := variances[j]
			score += -0.5*math.Log(2*math.Pi*va) - (x-mu)*(x-mu)/(2*va)
		}
		if score > bestScore {
			bestScore = score
			bestClass = class
		}
	}
	return bestClass, bestScore
}

// Accuracy computes classification accuracy against a labelled dataset.
func (m *NaiveBayesModel) Accuracy(ds *Dataset) float64 {
	if ds.Rows() == 0 || len(ds.Labels) != ds.Rows() {
		return 0
	}
	correct := 0
	for i := 0; i < ds.Rows(); i++ {
		pred, _ := m.PredictClass(ds.Features[i])
		if pred == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Rows())
}
