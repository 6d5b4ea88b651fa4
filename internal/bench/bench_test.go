package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestExperimentRegistry checks that every documented experiment is present
// and runnable at a tiny scale (E4, E8 and F1 are cheap enough to execute in a
// unit test; the heavier experiments are exercised by bench_test.go at the
// repository root and by cmd/idaabench).
func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"e1", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "f1"}
	if len(ids) != len(want) {
		t.Fatalf("experiments: %v", ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("experiment list mismatch: %v", ids)
		}
	}
	if _, err := Run("nope", SmallScale()); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestShardedScanExperiment(t *testing.T) {
	scale := SmallScale()
	scale.LoadRows = 4000
	table, err := Run("e9", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("expected one row per fleet size, got %d", len(table.Rows))
	}
	foundPruning := false
	for _, note := range table.Notes {
		if strings.Contains(note, "touched 1 of 4 shards") {
			foundPruning = true
		}
	}
	if !foundPruning {
		t.Fatalf("pruning note missing or pruning touched more than one shard: %v", table.Notes)
	}
}

// TestColocatedJoinExperiment is the join-placement smoke: E10 must run and
// the hash-co-located layout must move fewer rows than the random layout for
// every join class at every scale. CI runs it in -short mode.
func TestColocatedJoinExperiment(t *testing.T) {
	scale := SmallScale()
	scale.LoadRows = 4000
	if testing.Short() {
		scale.LoadRows = 1600
	}
	table, err := Run("e10", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("expected 3 join classes at two scales, got %d rows", len(table.Rows))
	}
	for _, row := range table.Rows {
		var movedRandom, movedHash int64
		fmt.Sscanf(row[5], "%d", &movedRandom)
		fmt.Sscanf(row[6], "%d", &movedHash)
		if movedHash >= movedRandom {
			t.Fatalf("%s at %s rows: hash layout moved %d rows, random %d — co-located placement not effective:\n%s",
				row[1], row[0], movedHash, movedRandom, table.Format())
		}
	}
	colocatedSeen := false
	for _, note := range table.Notes {
		if strings.Contains(note, " hash: colocated_joins=") && !strings.Contains(note, "colocated_joins=0") {
			colocatedSeen = true
		}
	}
	if !colocatedSeen {
		t.Fatalf("no co-located joins recorded on the hash layout:\n%s", table.Format())
	}
}

// TestRebalanceExperiment is the elastic-fleet smoke: E11 must run, queries
// must complete inside the online migration window (no stop-the-world), and
// the new member must own a meaningful share of the table afterwards. CI runs
// it in -short mode.
func TestRebalanceExperiment(t *testing.T) {
	scale := SmallScale()
	scale.LoadRows = 6000
	if testing.Short() {
		scale.LoadRows = 2400
	}
	table, err := Run("e11", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("expected online + stop-the-world rows, got %d:\n%s", len(table.Rows), table.Format())
	}
	online, reload := table.Rows[0], table.Rows[1]
	var onlineQueries int64
	fmt.Sscanf(online[3], "%d", &onlineQueries)
	if onlineQueries == 0 {
		t.Fatalf("no query completed during the online rebalance window:\n%s", table.Format())
	}
	if reload[3] != "0" {
		t.Fatalf("stop-the-world baseline ran queries in its window:\n%s", table.Format())
	}
	var onlineShare float64
	fmt.Sscanf(online[6], "%f%%", &onlineShare)
	if onlineShare < 15 {
		t.Fatalf("new member owns only %.1f%% after online rebalance:\n%s", onlineShare, table.Format())
	}
	var moved int64
	fmt.Sscanf(online[5], "%d", &moved)
	if moved <= 0 || moved >= int64(scale.LoadRows) {
		t.Fatalf("online rebalance moved %d of %d rows (expected a strict subset):\n%s", moved, scale.LoadRows, table.Format())
	}
}

// TestDistributedAnalyticsExperiment is the E12 smoke CI runs on every PR:
// shard-local training and scoring must gather no base rows to the
// coordinator at any scale, must write its predictions shard-local, and must
// emit exactly the machine-readable metrics the bench-regression comparison
// consumes.
func TestDistributedAnalyticsExperiment(t *testing.T) {
	scale := SmallScale()
	scale.ChurnRows = 3000
	if testing.Short() {
		scale.ChurnRows = 1200
	}
	table, err := Run("e12", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("expected one shard-local row per scale, got %d:\n%s", len(table.Rows), table.Format())
	}
	metrics := map[string]float64{}
	for _, m := range table.Metrics {
		metrics[m.Name] = m.Value
	}
	for _, suffix := range []string{"scale1", "scale2"} {
		if v, ok := metrics["rows_gathered_distributed_"+suffix]; !ok || v != 0 {
			t.Fatalf("rows_gathered_distributed_%s = %v (present %v), want exactly 0:\n%s", suffix, v, ok, table.Format())
		}
		if metrics["local_score_writes_distributed_"+suffix] <= 0 {
			t.Fatalf("local_score_writes_distributed_%s: no shard-local prediction writes:\n%s", suffix, table.Format())
		}
		if metrics["train_rows_per_sec_distributed_"+suffix] <= 0 {
			t.Fatalf("train_rows_per_sec_distributed_%s missing:\n%s", suffix, table.Format())
		}
	}
	for name := range metrics {
		if strings.Contains(name, "gather_") || strings.Contains(name, "speedup") {
			t.Fatalf("metric %s belongs to the removed gather arm:\n%s", name, table.Format())
		}
	}
}

// TestVectorizedExperiment is the E13 smoke CI runs on every PR. It asserts
// shape only: every row/vectorized pair is present, both engines return the
// same result cardinalities, and the report carries its metrics. The speed bar
// lives in the E13 bench-regression gate against BENCH_E13.json, where a
// dedicated run is not sharing the CPU with the rest of the test suite.
func TestVectorizedExperiment(t *testing.T) {
	scale := SmallScale()
	if testing.Short() {
		scale.QueryRows = []int{2000, 20000}
	}
	table, err := Run("e13", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8 {
		t.Fatalf("expected row/vectorized pairs for two queries at two scales, got %d:\n%s", len(table.Rows), table.Format())
	}
	for i := 0; i < len(table.Rows); i += 2 {
		row, vec := table.Rows[i], table.Rows[i+1]
		if row[5] != vec[5] {
			t.Fatalf("%s at %s rows: result cardinality differs between engines (%s vs %s):\n%s",
				row[1], row[0], row[5], vec[5], table.Format())
		}
	}
	metricNames := map[string]bool{}
	for _, m := range table.Metrics {
		metricNames[m.Name] = true
	}
	for _, want := range []string{
		"scan_filter_rows_per_sec_vec_scale2", "groupby_rows_per_sec_row_scale1",
		"scan_filter_speedup_scale2", "groupby_speedup_scale2",
	} {
		if !metricNames[want] {
			t.Fatalf("metric %s missing from report: %v", want, metricNames)
		}
	}
}

// TestJoinDictionaryExperiment is the E18 smoke CI runs on every PR. It
// asserts shape only: every join/dict row is present, result cardinalities
// match between engines, the dictionary sweep covers the spilled pair, and
// the metrics the bench gate reads are reported. The speedup bars (>= 2x on
// the co-located grouped join) are enforced by the CI bench-gate job against
// the checked-in baseline, not here, where a loaded machine would flake them.
func TestJoinDictionaryExperiment(t *testing.T) {
	scale := SmallScale()
	if testing.Short() {
		scale.QueryRows = []int{2000, 20000}
	}
	table, err := Run("e18", scale)
	if err != nil {
		t.Fatal(err)
	}
	var joinRows, dictRows [][]string
	for _, row := range table.Rows {
		switch row[0] {
		case "join":
			joinRows = append(joinRows, row)
		case "dict":
			dictRows = append(dictRows, row)
		default:
			t.Fatalf("unexpected section %q:\n%s", row[0], table.Format())
		}
	}
	if len(joinRows) != 8 || len(dictRows) != 12 {
		t.Fatalf("expected 8 join + 12 dict rows, got %d/%d:\n%s",
			len(joinRows), len(dictRows), table.Format())
	}
	for i := 0; i < len(joinRows); i += 2 {
		row, vec := joinRows[i], joinRows[i+1]
		if row[5] != vec[5] {
			t.Fatalf("%s at %s rows: result cardinality differs between engines (%s vs %s):\n%s",
				row[2], row[1], row[5], vec[5], table.Format())
		}
	}
	spilledSeen := false
	for _, row := range dictRows {
		if strings.Contains(row[2], "/spilled") {
			spilledSeen = true
		}
	}
	if !spilledSeen {
		t.Fatalf("dictionary sweep never drove a column past the threshold:\n%s", table.Format())
	}
	assertMetrics(t, table, "join_groupby_speedup_scale1", "join_groupby_speedup_scale2",
		"join_groupby_rows_per_sec_vec_scale2", "join_select_rows_per_sec_row_scale1",
		"dict_filter_speedup_card8", "dict_groupby_rows_per_sec_card256")
}

// assertMetrics fails unless every named metric is reported with a positive
// value — the shape the bench gate compares against its baseline.
func assertMetrics(t *testing.T, table *Table, names ...string) {
	t.Helper()
	metrics := map[string]float64{}
	for _, m := range table.Metrics {
		metrics[m.Name] = m.Value
	}
	for _, name := range names {
		if v, ok := metrics[name]; !ok || v <= 0 {
			t.Fatalf("metric %s = %v (present %v), want a positive value:\n%s", name, v, ok, table.Format())
		}
	}
}

// TestObservabilityOverheadExperiment is the E14 smoke. It asserts shape
// only: untraced/traced pairs for both queries at both scales, with a
// positive overhead ratio for each. The ~5% overhead bar is enforced by the
// CI bench-gate job against the checked-in baseline.
func TestObservabilityOverheadExperiment(t *testing.T) {
	scale := SmallScale()
	scale.QueryRows = []int{2000, 20000}
	table, err := Run("e14", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8 {
		t.Fatalf("expected untraced/traced pairs for two queries at two scales, got %d:\n%s", len(table.Rows), table.Format())
	}
	assertOverheads(t, table)
}

// TestOpsOverheadExperiment is the E15 smoke. It asserts shape only:
// idle/ops pairs for both queries at both scales, with a positive overhead
// ratio for each. The ~5% overhead bar is enforced by the CI bench-gate job
// against the checked-in baseline.
func TestOpsOverheadExperiment(t *testing.T) {
	scale := SmallScale()
	scale.QueryRows = []int{2000, 20000}
	table, err := Run("e15", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 8 {
		t.Fatalf("expected idle/ops pairs for two queries at two scales, got %d:\n%s", len(table.Rows), table.Format())
	}
	assertOverheads(t, table)
}

// assertOverheads checks that a paired-overhead table reports exactly four
// positive per-scale overhead ratios.
func assertOverheads(t *testing.T, table *Table) {
	t.Helper()
	overheads := 0
	for _, m := range table.Metrics {
		if !strings.Contains(m.Name, "_overhead_") || !(strings.HasSuffix(m.Name, "_scale1") || strings.HasSuffix(m.Name, "_scale2")) {
			continue
		}
		overheads++
		if m.Value <= 0 {
			t.Fatalf("%s = %.2f: bogus overhead ratio", m.Name, m.Value)
		}
	}
	if overheads != 4 {
		t.Fatalf("expected 4 overhead metrics, got %d:\n%s", overheads, table.Format())
	}
}

// TestDurabilityExperiment is the E16 smoke CI runs on every PR: group-committed
// WAL ingest must stay within the 2x acceptance bar, and every recovery run
// inside the experiment verifies exact row counts — a lossy recovery fails Run
// itself. wal=always appears in the report table but carries no gated metric:
// its throughput is the runner's raw fsync latency, which varies several-fold
// between machines and says nothing about the code.
func TestDurabilityExperiment(t *testing.T) {
	scale := SmallScale()
	scale.LoadRows = 10000
	scale.QueryRows = []int{4000, 12000}
	if testing.Short() {
		scale.LoadRows = 5000
		scale.QueryRows = []int{2000, 6000}
	}
	table, err := Run("e16", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3+len(scale.QueryRows) {
		t.Fatalf("expected 3 ingest modes + %d recovery sizes, got %d rows:\n%s",
			len(scale.QueryRows), len(table.Rows), table.Format())
	}
	metrics := map[string]float64{}
	for _, m := range table.Metrics {
		metrics[m.Name] = m.Value
	}
	v, ok := metrics["wal_slowdown_grouped"]
	if !ok {
		t.Fatalf("metric wal_slowdown_grouped missing:\n%s", table.Format())
	}
	if v <= 0 || v > 2.0 {
		t.Fatalf("wal_slowdown_grouped = %.2fx, outside the 2x acceptance bar:\n%s", v, table.Format())
	}
	if _, ok := metrics["wal_slowdown_always"]; ok {
		t.Fatalf("wal=always must not be regression-gated (fsync latency is hardware, not code):\n%s", table.Format())
	}
	for i := range scale.QueryRows {
		if _, ok := metrics[fmt.Sprintf("recovery_rows_per_sec_scale%d", i+1)]; !ok {
			t.Fatalf("recovery metric for scale %d missing:\n%s", i+1, table.Format())
		}
	}
}

// TestServingExperiment is the E17 smoke CI runs on every PR: the full wire
// path — loopback HTTP, session handling, admission control — must serve a
// mixed interactive/batch load in both modes. Tail latencies under
// deliberate saturation are too noisy to assert on here (the CI bench gate
// checks the served-throughput metrics against the baseline); the smoke pins
// the table shape and that both modes actually served traffic.
func TestServingExperiment(t *testing.T) {
	scale := SmallScale()
	scale.ChurnRows = 2000
	table, err := Run("e17", scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("expected 2 modes x 2 classes, got %d rows:\n%s", len(table.Rows), table.Format())
	}
	metrics := map[string]float64{}
	for _, m := range table.Metrics {
		metrics[m.Name] = m.Value
	}
	for _, name := range []string{"served_per_sec_admission", "served_per_sec_raw"} {
		if metrics[name] <= 0 {
			t.Fatalf("metric %s missing or non-positive:\n%s", name, table.Format())
		}
	}
}

// TestCompareMetrics pins the regression-comparison semantics the CI gate
// relies on.
func TestCompareMetrics(t *testing.T) {
	base := &Report{Experiments: []*Table{{
		ID: "E12",
		Metrics: []Metric{
			{Name: "thr", Value: 100, HigherIsBetter: true},
			{Name: "moved", Value: 1000, HigherIsBetter: false},
		},
	}}}
	ok := &Report{Experiments: []*Table{{
		ID: "E12",
		Metrics: []Metric{
			{Name: "thr", Value: 71, HigherIsBetter: true},
			{Name: "moved", Value: 1299, HigherIsBetter: false},
			{Name: "only_in_current", Value: 5, HigherIsBetter: true},
		},
	}}}
	if regs := CompareMetrics(base, ok, 0.30); len(regs) != 0 {
		t.Fatalf("within tolerance flagged: %v", regs)
	}
	bad := &Report{Experiments: []*Table{{
		ID: "E12",
		Metrics: []Metric{
			{Name: "thr", Value: 69, HigherIsBetter: true},
			{Name: "moved", Value: 1301, HigherIsBetter: false},
		},
	}}}
	regs := CompareMetrics(base, bad, 0.30)
	if len(regs) != 2 {
		t.Fatalf("expected 2 regressions, got %v", regs)
	}
}

// TestCompareMetricsMissingIsARegression pins that the gate can fail on what
// the current report lacks: a baseline metric or a whole baseline experiment
// that no longer appears is reported, never skipped.
func TestCompareMetricsMissingIsARegression(t *testing.T) {
	base := &Report{Experiments: []*Table{
		{ID: "E12", Metrics: []Metric{
			{Name: "thr", Value: 100, HigherIsBetter: true},
			{Name: "only_in_base", Value: 5, HigherIsBetter: true},
		}},
		{ID: "E13", Metrics: []Metric{{Name: "speedup", Value: 2, HigherIsBetter: true}}},
	}}
	current := &Report{Experiments: []*Table{
		{ID: "E12", Metrics: []Metric{{Name: "thr", Value: 100, HigherIsBetter: true}}},
	}}
	regs := CompareMetrics(base, current, 0.30)
	if len(regs) != 2 {
		t.Fatalf("expected the missing metric and the missing experiment, got %v", regs)
	}
	if !strings.Contains(regs[0], "only_in_base") || !strings.Contains(regs[1], "E13") {
		t.Fatalf("regressions do not name what is missing: %v", regs)
	}
}

func TestCheapExperimentsRun(t *testing.T) {
	scale := SmallScale()
	scale.TxnStatements = 20
	for _, id := range []string{"e4", "e8", "f1"} {
		table, err := Run(id, scale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		out := table.Format()
		if !strings.Contains(out, strings.ToUpper(id)) {
			t.Fatalf("%s: format missing id header:\n%s", id, out)
		}
		// Correctness experiments must not contain FAIL rows.
		if id == "e4" || id == "e8" {
			if strings.Contains(out, "FAIL") {
				t.Fatalf("%s reports FAIL:\n%s", id, out)
			}
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"A", "LONG_COLUMN"}}
	tb.AddRow("1", "x")
	tb.AddRow("22", "yyyy")
	tb.AddNote("note %d", 1)
	out := tb.Format()
	if !strings.Contains(out, "LONG_COLUMN") || !strings.Contains(out, "note 1") {
		t.Fatalf("format:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}
