package analytics

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// TreeNode is one node of a CART classification tree.
type TreeNode struct {
	// Leaf nodes predict Class; internal nodes split on Feature < Threshold.
	Leaf      bool
	Class     string
	Feature   int
	Threshold float64
	Left      *TreeNode
	Right     *TreeNode
	// Samples and Impurity describe the training data that reached the node.
	Samples  int
	Impurity float64
}

// DecisionTreeModel is a CART classification tree over numeric features.
type DecisionTreeModel struct {
	FeatureNames []string
	Root         *TreeNode
	MaxDepth     int
	MinLeafSize  int
	Nodes        int
	N            int
}

// DecisionTreeOptions configures tree induction.
type DecisionTreeOptions struct {
	MaxDepth    int
	MinLeafSize int
	// MaxThresholdCandidates bounds the number of candidate split points per
	// feature (quantile sampling); 0 means all midpoints.
	MaxThresholdCandidates int
}

// TrainDecisionTree builds a classification tree with gini impurity splits.
func TrainDecisionTree(ds *Dataset, opts DecisionTreeOptions) (*DecisionTreeModel, error) {
	n := ds.Rows()
	if n == 0 {
		return nil, fmt.Errorf("analytics: decision tree requires at least one row")
	}
	if len(ds.Labels) != n {
		return nil, fmt.Errorf("analytics: decision tree requires a categorical target")
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 6
	}
	if opts.MinLeafSize <= 0 {
		opts.MinLeafSize = 5
	}
	if opts.MaxThresholdCandidates <= 0 {
		opts.MaxThresholdCandidates = 32
	}

	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	model := &DecisionTreeModel{
		FeatureNames: append([]string(nil), ds.FeatureNames...),
		MaxDepth:     opts.MaxDepth,
		MinLeafSize:  opts.MinLeafSize,
		N:            n,
	}
	model.Root = model.buildNode(ds, indices, 0, opts)
	model.Nodes = countNodes(model.Root)
	return model, nil
}

func (m *DecisionTreeModel) buildNode(ds *Dataset, indices []int, depth int, opts DecisionTreeOptions) *TreeNode {
	majority, impurity := majorityAndGini(ds, indices)
	node := &TreeNode{Samples: len(indices), Impurity: impurity, Class: majority, Leaf: true}
	if depth >= opts.MaxDepth || len(indices) < 2*opts.MinLeafSize || impurity == 0 {
		return node
	}

	bestFeature, bestThreshold, bestGain := -1, 0.0, 0.0
	for j := 0; j < ds.Cols(); j++ {
		threshold, gain := bestSplitForFeature(ds, indices, j, impurity, opts)
		if gain > bestGain {
			bestGain = gain
			bestFeature = j
			bestThreshold = threshold
		}
	}
	if bestFeature < 0 || bestGain < 1e-9 {
		return node
	}

	var left, right []int
	for _, i := range indices {
		if ds.Features[i][bestFeature] < bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeafSize || len(right) < opts.MinLeafSize {
		return node
	}
	node.Leaf = false
	node.Feature = bestFeature
	node.Threshold = bestThreshold
	node.Left = m.buildNode(ds, left, depth+1, opts)
	node.Right = m.buildNode(ds, right, depth+1, opts)
	return node
}

func bestSplitForFeature(ds *Dataset, indices []int, feature int, parentImpurity float64, opts DecisionTreeOptions) (float64, float64) {
	values := make([]float64, len(indices))
	for i, idx := range indices {
		values[i] = ds.Features[idx][feature]
	}
	sort.Float64s(values)
	// Candidate thresholds: midpoints of distinct neighbours, subsampled.
	var candidates []float64
	step := 1
	if opts.MaxThresholdCandidates > 0 && len(values) > opts.MaxThresholdCandidates {
		step = len(values) / opts.MaxThresholdCandidates
	}
	for i := step; i < len(values); i += step {
		if values[i] != values[i-1] {
			candidates = append(candidates, (values[i]+values[i-1])/2)
		}
	}
	bestThreshold, bestGain := 0.0, 0.0
	total := float64(len(indices))
	for _, threshold := range candidates {
		leftCounts := map[string]int{}
		rightCounts := map[string]int{}
		nl, nr := 0, 0
		for _, idx := range indices {
			if ds.Features[idx][feature] < threshold {
				leftCounts[ds.Labels[idx]]++
				nl++
			} else {
				rightCounts[ds.Labels[idx]]++
				nr++
			}
		}
		if nl == 0 || nr == 0 {
			continue
		}
		gain := parentImpurity - (float64(nl)/total)*giniOfCounts(leftCounts, nl) - (float64(nr)/total)*giniOfCounts(rightCounts, nr)
		if gain > bestGain {
			bestGain = gain
			bestThreshold = threshold
		}
	}
	return bestThreshold, bestGain
}

func majorityAndGini(ds *Dataset, indices []int) (string, float64) {
	counts := map[string]int{}
	for _, i := range indices {
		counts[ds.Labels[i]]++
	}
	best := ""
	bestCount := -1
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestCount {
			bestCount = counts[k]
			best = k
		}
	}
	return best, giniOfCounts(counts, len(indices))
}

// giniOfCounts sums the class terms in sorted class order: map order would
// vary the last bit of the impurity, and with it the trained tree, from one
// run to the next.
func giniOfCounts(counts map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, class := range slices.Sorted(maps.Keys(counts)) {
		p := float64(counts[class]) / float64(total)
		g -= p * p
	}
	return g
}

func countNodes(node *TreeNode) int {
	if node == nil {
		return 0
	}
	return 1 + countNodes(node.Left) + countNodes(node.Right)
}

// PredictClass walks the tree for one feature vector.
func (m *DecisionTreeModel) PredictClass(features []float64) string {
	node := m.Root
	for node != nil && !node.Leaf {
		if node.Feature < len(features) && features[node.Feature] < node.Threshold {
			node = node.Left
		} else {
			node = node.Right
		}
	}
	if node == nil {
		return ""
	}
	return node.Class
}

// Accuracy computes classification accuracy against a labelled dataset.
func (m *DecisionTreeModel) Accuracy(ds *Dataset) float64 {
	if ds.Rows() == 0 || len(ds.Labels) != ds.Rows() {
		return 0
	}
	correct := 0
	for i := 0; i < ds.Rows(); i++ {
		if m.PredictClass(ds.Features[i]) == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Rows())
}

// Depth returns the tree depth.
func (m *DecisionTreeModel) Depth() int { return depthOf(m.Root) }

func depthOf(node *TreeNode) int {
	if node == nil || node.Leaf {
		return 0
	}
	l := depthOf(node.Left)
	r := depthOf(node.Right)
	return 1 + int(math.Max(float64(l), float64(r)))
}
