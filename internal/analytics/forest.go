package analytics

import (
	"fmt"
	"sort"
)

// ForestModel is a voting ensemble of CART trees — the consolidation strategy
// for distributed decision-tree training, where every shard grows a tree on
// its own partition and scoring takes the majority vote. Tree induction's
// greedy splits do not decompose into mergeable per-shard statistics the way
// regression's Gram matrices do, so the ensemble is the honest merge: it
// agrees with a single tree trained on all rows within accuracy tolerance,
// not structurally.
type ForestModel struct {
	FeatureNames []string
	Trees        []*DecisionTreeModel
	N            int
}

// TrainDecisionForestDistributed grows one tree per non-empty partition.
func TrainDecisionForestDistributed(parts []*Dataset, opts DecisionTreeOptions) (*ForestModel, error) {
	featureNames, total, err := partStats(parts, "decision tree")
	if err != nil {
		return nil, err
	}
	trees := make([]*DecisionTreeModel, len(parts))
	if err := forEachPart(parts, func(i int, ds *Dataset) error {
		tree, err := TrainDecisionTree(ds, opts)
		trees[i] = tree
		return err
	}); err != nil {
		return nil, err
	}
	model := &ForestModel{FeatureNames: append([]string(nil), featureNames...), N: total}
	for _, tree := range trees {
		if tree != nil {
			model.Trees = append(model.Trees, tree)
		}
	}
	if len(model.Trees) == 0 {
		return nil, fmt.Errorf("analytics: decision forest trained no trees")
	}
	return model, nil
}

// PredictClass returns the majority vote of the ensemble; ties break to the
// lexicographically smallest class so predictions are deterministic.
func (m *ForestModel) PredictClass(features []float64) string {
	votes := make(map[string]int, len(m.Trees))
	for _, tree := range m.Trees {
		votes[tree.PredictClass(features)]++
	}
	best := ""
	bestCount := -1
	classes := make([]string, 0, len(votes))
	for c := range votes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		if votes[c] > bestCount {
			bestCount = votes[c]
			best = c
		}
	}
	return best
}

// Accuracy computes classification accuracy against a labelled dataset.
func (m *ForestModel) Accuracy(ds *Dataset) float64 {
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

// Nodes returns the total node count over all trees.
func (m *ForestModel) Nodes() int {
	total := 0
	for _, tree := range m.Trees {
		total += tree.Nodes
	}
	return total
}

// Depth returns the deepest tree's depth.
func (m *ForestModel) Depth() int {
	max := 0
	for _, tree := range m.Trees {
		if d := tree.Depth(); d > max {
			max = d
		}
	}
	return max
}
