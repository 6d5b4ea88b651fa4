package analytics

import "math"

// LogisticModel is a binary logistic regression model trained with batch
// gradient descent.
type LogisticModel struct {
	FeatureNames []string
	Intercept    float64
	Coefficients []float64
	Iterations   int
	LearningRate float64
	// TrainAccuracy and TrainLogLoss are training-set metrics.
	TrainAccuracy float64
	TrainLogLoss  float64
	N             int
}

// PredictProbability returns P(class = 1 | features).
func (m *LogisticModel) PredictProbability(features []float64) float64 {
	z := m.Intercept
	for j, c := range m.Coefficients {
		if j < len(features) {
			z += c * features[j]
		}
	}
	return sigmoid(z)
}

// PredictClass returns the 0/1 class using a 0.5 threshold.
func (m *LogisticModel) PredictClass(features []float64) int {
	if m.PredictProbability(features) >= 0.5 {
		return 1
	}
	return 0
}

func sigmoid(z float64) float64 {
	switch {
	case z > 35:
		return 1
	case z < -35:
		return 0
	default:
		return 1 / (1 + math.Exp(-z))
	}
}
