package analytics

import "testing"

// benchSink keeps each measured result live so the compiler cannot drop the
// call.
var benchSink any

// BenchmarkExtract measures the read every training and scoring CALL starts
// with: a 10k-row relation turned into a Dataset with two features, a numeric
// target and an id column.
func BenchmarkExtract(b *testing.B) {
	rel := syntheticRelation(10000)
	opts := ExtractOptions{Features: []string{"X1", "X2"}, Target: "Y", ID: "ID", SkipIncomplete: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := Extract(rel, opts)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ds
	}
}

// BenchmarkTrainLogisticRegressionDistributed measures the partition trainer
// IDAX.LOGISTIC_REGRESSION runs on a 3-shard table: 10k rows dealt into three
// partitions, 50 gradient rounds.
func BenchmarkTrainLogisticRegressionDistributed(b *testing.B) {
	ds, err := Extract(syntheticRelation(10000), ExtractOptions{Features: []string{"X1", "X2"}, Target: "Y"})
	if err != nil {
		b.Fatal(err)
	}
	for i, y := range ds.Target {
		ds.Target[i] = 0
		if y > 3 {
			ds.Target[i] = 1
		}
	}
	parts := splitDataset(ds, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := TrainLogisticRegressionDistributed(parts, 50, 0.3, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = model
	}
}
