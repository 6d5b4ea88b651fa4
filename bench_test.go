package idaax_test

import (
	"strings"
	"testing"

	"idaax"
	"idaax/internal/bench"
)

// The Benchmark* functions below regenerate the evaluation tables (one per
// experiment / figure, registered in internal/bench). Each benchmark
// runs the full experiment once per iteration and reports the rendered table
// via b.Log, so `go test -bench=. -benchmem` reproduces the paper-style
// results end to end. Use -short (or the small scale in cmd/idaabench) for a
// quick pass.

func benchScale(b *testing.B) bench.Scale {
	b.Helper()
	if testing.Short() {
		return bench.SmallScale()
	}
	// Benchmarks default to the small scale as well so the suite stays in the
	// minutes range; cmd/idaabench -scale full regenerates the full tables.
	return bench.SmallScale()
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := bench.Run(id, scale)
		if err != nil {
			b.Fatalf("experiment %s failed: %v", id, err)
		}
		if i == 0 {
			b.Logf("\n%s", table.Format())
		}
	}
}

// BenchmarkE1PipelineMaterialization reproduces E1: multi-stage pipeline with
// DB2-materialised intermediates vs accelerator-only tables.
func BenchmarkE1PipelineMaterialization(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2QueryAcceleration reproduces E2: analytical queries on the DB2
// row engine vs the accelerator.
func BenchmarkE2QueryAcceleration(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE3LoadPaths reproduces E3: the three ingestion paths.
func BenchmarkE3LoadPaths(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkE4TransactionOverhead reproduces E4: AOT DML under the DB2
// transaction context.
func BenchmarkE4TransactionOverhead(b *testing.B) { runExperiment(b, "e4") }

// BenchmarkE5ScoringPushdown reproduces E5: client-side vs in-database scoring.
func BenchmarkE5ScoringPushdown(b *testing.B) { runExperiment(b, "e5") }

// BenchmarkE6Training reproduces E6: in-database model training.
func BenchmarkE6Training(b *testing.B) { runExperiment(b, "e6") }

// BenchmarkE7Ablation reproduces E7: the offload/AOT/loader ablation.
func BenchmarkE7Ablation(b *testing.B) { runExperiment(b, "e7") }

// BenchmarkE8Governance reproduces E8: privilege enforcement and its cost.
func BenchmarkE8Governance(b *testing.B) { runExperiment(b, "e8") }

// BenchmarkF1Architecture reproduces the architecture figure as a component
// and data-path inventory.
func BenchmarkF1Architecture(b *testing.B) { runExperiment(b, "f1") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths behind the experiments
// ---------------------------------------------------------------------------

// BenchmarkOffloadedAggregation measures one offloaded aggregation query.
func BenchmarkOffloadedAggregation(b *testing.B) {
	sys := idaax.New(idaax.Config{AnalyticsPublic: true})
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE bench_orders (id BIGINT, product VARCHAR(16), amount DOUBLE)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO bench_orders VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(1, 'A', 10.5)")
	}
	s.MustExec(sb.String())
	s.MustExec("CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'BENCH_ORDERS')")
	s.MustExec("CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'BENCH_ORDERS')")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("SELECT product, SUM(amount) FROM bench_orders GROUP BY product"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAOTInsertSelect measures an accelerator-internal INSERT ... SELECT.
func BenchmarkAOTInsertSelect(b *testing.B) {
	sys := idaax.New(idaax.Config{AnalyticsPublic: true})
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE src_aot (id BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	var sb strings.Builder
	sb.WriteString("INSERT INTO src_aot VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("(1, 2.5)")
	}
	s.MustExec(sb.String())
	s.MustExec("CREATE TABLE dst_aot (id BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec("INSERT INTO dst_aot SELECT id, v * 2 FROM src_aot WHERE v > 1"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQLParser measures statement parsing throughput.
func BenchmarkSQLParser(b *testing.B) {
	const q = "SELECT c.region, COUNT(*) AS n, SUM(o.amount) FROM orders o INNER JOIN customers c ON o.customer_id = c.customer_id WHERE o.amount > 100 AND c.segment IN ('SMB','ENTERPRISE') GROUP BY c.region HAVING SUM(o.amount) > 1000 ORDER BY n DESC LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := idaax.ParseSQL(q); err != nil {
			b.Fatal(err)
		}
	}
}
