package analytics

import (
	"fmt"
	"testing"
)

// benchSink keeps each measured result live so the compiler cannot drop the
// call.
var benchSink any

// binaryDataset extracts n rows of syntheticRelation with features X1, X2 and
// the 0/1 target Y > 3, the input the logistic trainer benchmarks and gates
// use.
func binaryDataset(tb testing.TB, n int) *Dataset {
	tb.Helper()
	ds, err := Extract(syntheticRelation(n), ExtractOptions{Features: []string{"X1", "X2"}, Target: "Y"})
	if err != nil {
		tb.Fatal(err)
	}
	for i, y := range ds.Target {
		ds.Target[i] = 0
		if y > 3 {
			ds.Target[i] = 1
		}
	}
	return ds
}

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

// BenchmarkTrainLinearRegression measures IDAX.LINEAR_REGRESSION's trainer on
// an unsharded table: 10k rows in one partition.
func BenchmarkTrainLinearRegression(b *testing.B) {
	ds, err := Extract(syntheticRelation(10000), ExtractOptions{Features: []string{"X1", "X2"}, Target: "Y"})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parts=1", func(b *testing.B) {
		parts := []*Dataset{ds}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model, err := TrainLinearRegression(parts, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = model
		}
	})
}

// BenchmarkTrainLogisticRegression measures IDAX.LOGISTIC_REGRESSION's
// trainer with 50 gradient rounds over 10k rows: one partition (an unsharded
// table) and three (a 3-shard table, rows dealt round-robin).
func BenchmarkTrainLogisticRegression(b *testing.B) {
	ds := binaryDataset(b, 10000)
	for _, n := range []int{1, 3} {
		parts := splitDataset(ds, n)
		b.Run(fmt.Sprintf("parts=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model, err := TrainLogisticRegression(parts, 50, 0.3, 1e-4)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = model
			}
		})
	}
}

// TestExtractAllocs gates Extract at about one allocation per row (the row's
// feature slice); an allocation per cell would double it.
func TestExtractAllocs(t *testing.T) {
	const rows = 10000
	rel := syntheticRelation(rows)
	opts := ExtractOptions{Features: []string{"X1", "X2"}, Target: "Y", ID: "ID", SkipIncomplete: true}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Extract(rel, opts); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / rows; perRow > 1.1 {
		t.Fatalf("Extract: %.0f allocations for %d rows, %.3f per row (want <= 1.1)", allocs, rows, perRow)
	}
}

// TestLogisticRegressionAllocs gates the one-partition logistic trainer: about
// one allocation per row (its standardized copy) to set up, and two per
// gradient round (the scatter closures), with nothing per row per round.
func TestLogisticRegressionAllocs(t *testing.T) {
	const rows = 10000
	parts := []*Dataset{binaryDataset(t, rows)}
	train := func(iterations int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := TrainLogisticRegression(parts, iterations, 0.3, 1e-4); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := train(1), train(101)
	if perRow := one / rows; perRow > 1.1 {
		t.Fatalf("1 round: %.0f allocations for %d rows, %.3f per row (want <= 1.1)", one, rows, perRow)
	}
	if perRound := (many - one) / 100; perRound > 2.5 {
		t.Fatalf("%.0f allocations at 101 rounds vs %.0f at 1: %.2f per round (want <= 2.5)", many, one, perRound)
	}
}
