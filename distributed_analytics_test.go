package idaax_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"idaax"
	"idaax/internal/analytics"
	"idaax/internal/expr"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// seedChurnLike creates a labelled training table and fills it with a
// deterministic workload: Y = 4 + 3*F1 - 2*F2 plus a 0/1 label. The same rows
// land in every system, so single- and multi-shard training see identical
// populations.
func seedChurnLike(t *testing.T, sys *idaax.System, accelerator string, rows int) {
	t.Helper()
	s := sys.AdminSession()
	ddl := fmt.Sprintf(
		"CREATE TABLE train (cid BIGINT NOT NULL, f1 DOUBLE, f2 DOUBLE, y DOUBLE, flag BIGINT) IN ACCELERATOR %s DISTRIBUTE BY HASH(cid)",
		accelerator)
	if _, err := s.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	const batch = 500
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO train VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			f1 := float64(i%97) * 0.13
			f2 := float64(i%61) * 0.21
			y := 4 + 3*f1 - 2*f2
			flag := 0
			if y > 10 {
				flag = 1
			}
			fmt.Fprintf(&sb, "(%d, %g, %g, %g, %d)", i, f1, f2, y, flag)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// modelPayload loads the JSON payload row of a model table.
func modelPayload(t *testing.T, sys *idaax.System, table string) []byte {
	t.Helper()
	res, err := sys.AdminSession().Query("SELECT TEXT FROM " + table + " WHERE PARAM = 'JSON'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("model table %s: %d payload rows", table, len(res.Rows))
	}
	return []byte(res.Rows[0][0])
}

func withinRel(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	denom := math.Abs(want)
	if denom < 1 {
		denom = 1
	}
	if math.Abs(got-want)/denom > tol {
		t.Fatalf("%s: distributed %v vs single %v (tolerance %v)", what, got, want, tol)
	}
}

// TestDistributedTrainingDifferential is the tentpole acceptance test:
// training on a hash-distributed table scatters per shard, merges partials,
// and produces the same model a single backend computes over identical rows —
// exactly (to floating-point summation order) for linear/logistic regression
// and naive Bayes, without gathering a single base row to the coordinator.
// The single system is pinned too: its one partition runs the single-backend
// trainers bit for bit.
func TestDistributedTrainingDifferential(t *testing.T) {
	const rows = 3000
	sharded := newShardedSystem(t, 3)
	defer sharded.Close()
	single := newTestSystem(t)
	defer single.Close()
	seedChurnLike(t, sharded, "SHARDS", rows)
	seedChurnLike(t, single, "IDAA1", rows)

	// Each CALL must scatter exactly once under its own name (KMEANS once
	// more, unnamed, for the shard-local assignment write), move no base row
	// to the coordinator, and save the partition trainer's model kind with N
	// and the contributing shard count.
	calls := []struct {
		proc, sql, model, kind string
		scatters               int64
	}{
		{"IDAX.LINEAR_REGRESSION", "CALL IDAX.LINEAR_REGRESSION('TRAIN', 'Y', 'F1,F2', 'M_LIN', 0.000001)", "M_LIN", analytics.ModelKindLinear, 1},
		{"IDAX.LOGISTIC_REGRESSION", "CALL IDAX.LOGISTIC_REGRESSION('TRAIN', 'FLAG', 'F1,F2', 'M_LOG', 80, 0.3)", "M_LOG", analytics.ModelKindLogistic, 1},
		{"IDAX.NAIVE_BAYES", "CALL IDAX.NAIVE_BAYES('TRAIN', 'FLAG', 'F1,F2', 'M_NB')", "M_NB", analytics.ModelKindNaiveBayes, 1},
		{"IDAX.KMEANS", "CALL IDAX.KMEANS('TRAIN', 'F1,F2', 3, 'M_KM', 'KM_ASSIGN', 'CID', 25, 7)", "M_KM", analytics.ModelKindKMeans, 2},
		{"IDAX.DECISION_TREE", "CALL IDAX.DECISION_TREE('TRAIN', 'FLAG', 'F1,F2', 'M_DT', 6)", "M_DT", analytics.ModelKindForest, 1},
	}
	for _, c := range calls {
		before, err := sharded.ShardGroupStats("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := sharded.AdminSession().Exec(c.sql)
		if err != nil {
			t.Fatalf("sharded %s: %v", c.sql, err)
		}
		if res.RowsAffected != rows {
			t.Fatalf("sharded %s trained on %d rows, want %d", c.sql, res.RowsAffected, rows)
		}
		after, err := sharded.ShardGroupStats("")
		if err != nil {
			t.Fatal(err)
		}
		if got := after.DistributedProcCalls[c.proc] - before.DistributedProcCalls[c.proc]; got != 1 {
			t.Fatalf("sharded %s: %d scatters counted under %s, want 1", c.sql, got, c.proc)
		}
		if got := after.AnalyticsScatters - before.AnalyticsScatters; got != c.scatters {
			t.Fatalf("sharded %s: %d analytics scatters, want %d", c.sql, got, c.scatters)
		}
		if after.RowsGathered != before.RowsGathered {
			t.Fatalf("sharded %s gathered %d base rows to the coordinator; the scatter path must move none",
				c.sql, after.RowsGathered-before.RowsGathered)
		}
		kind, metrics := modelMetrics(t, sharded, c.model)
		if kind != c.kind || metrics["N"] != fmt.Sprint(rows) || metrics["SHARDS"] != "3" {
			t.Fatalf("sharded %s: model kind %s, N %s, SHARDS %s; want %s, %d, 3",
				c.sql, kind, metrics["N"], metrics["SHARDS"], c.kind, rows)
		}
		if _, err := single.AdminSession().Exec(c.sql); err != nil {
			t.Fatalf("single %s: %v", c.sql, err)
		}
	}

	// Linear model: coefficients merge exactly (Gram matrices are row sums).
	var linD, linS struct {
		Linear *analytics.LinearModel `json:"linear"`
	}
	if err := json.Unmarshal(modelPayload(t, sharded, "M_LIN"), &linD); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(modelPayload(t, single, "M_LIN"), &linS); err != nil {
		t.Fatal(err)
	}
	withinRel(t, "linreg intercept", linD.Linear.Intercept, linS.Linear.Intercept, 1e-8)
	for j := range linS.Linear.Coefficients {
		withinRel(t, "linreg coefficient", linD.Linear.Coefficients[j], linS.Linear.Coefficients[j], 1e-8)
	}
	withinRel(t, "linreg RMSE", linD.Linear.RMSE, linS.Linear.RMSE, 1e-6)

	var logD, logS struct {
		Logistic *analytics.LogisticModel `json:"logistic"`
	}
	if err := json.Unmarshal(modelPayload(t, sharded, "M_LOG"), &logD); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(modelPayload(t, single, "M_LOG"), &logS); err != nil {
		t.Fatal(err)
	}
	withinRel(t, "logreg intercept", logD.Logistic.Intercept, logS.Logistic.Intercept, 1e-6)
	for j := range logS.Logistic.Coefficients {
		withinRel(t, "logreg coefficient", logD.Logistic.Coefficients[j], logS.Logistic.Coefficients[j], 1e-6)
	}
	withinRel(t, "logreg accuracy", logD.Logistic.TrainAccuracy, logS.Logistic.TrainAccuracy, 1e-9)

	var nbD, nbS struct {
		NaiveBayes *analytics.NaiveBayesModel `json:"naive_bayes"`
	}
	if err := json.Unmarshal(modelPayload(t, sharded, "M_NB"), &nbD); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(modelPayload(t, single, "M_NB"), &nbS); err != nil {
		t.Fatal(err)
	}
	if strings.Join(nbD.NaiveBayes.Classes, ",") != strings.Join(nbS.NaiveBayes.Classes, ",") {
		t.Fatalf("naive bayes classes differ: %v vs %v", nbD.NaiveBayes.Classes, nbS.NaiveBayes.Classes)
	}
	for _, class := range nbS.NaiveBayes.Classes {
		withinRel(t, "nb prior", nbD.NaiveBayes.Priors[class], nbS.NaiveBayes.Priors[class], 1e-12)
		for j := range nbS.NaiveBayes.Means[class] {
			withinRel(t, "nb mean", nbD.NaiveBayes.Means[class][j], nbS.NaiveBayes.Means[class][j], 1e-9)
			withinRel(t, "nb variance", nbD.NaiveBayes.Variances[class][j], nbS.NaiveBayes.Variances[class][j], 1e-9)
		}
	}

	// SUMMARY: moment merge equals the single-backend summary.
	sumD, err := sharded.AdminSession().Query("CALL IDAX.SUMMARY('TRAIN', 'F1,F2,Y')")
	if err != nil {
		t.Fatal(err)
	}
	sumS, err := single.AdminSession().Query("CALL IDAX.SUMMARY('TRAIN', 'F1,F2,Y')")
	if err != nil {
		t.Fatal(err)
	}
	if len(sumD.Rows) != len(sumS.Rows) {
		t.Fatalf("summary row counts differ: %d vs %d", len(sumD.Rows), len(sumS.Rows))
	}
	for i := range sumS.Rows {
		for c := range sumS.Rows[i] {
			dv, errD := strconv.ParseFloat(sumD.Rows[i][c], 64)
			sv, errS := strconv.ParseFloat(sumS.Rows[i][c], 64)
			if errD != nil || errS != nil {
				if sumD.Rows[i][c] != sumS.Rows[i][c] {
					t.Fatalf("summary cell (%d,%d): %q vs %q", i, c, sumD.Rows[i][c], sumS.Rows[i][c])
				}
				continue
			}
			withinRel(t, "summary "+sumS.Columns[c], dv, sv, 1e-9)
		}
	}

	pinSingleTrainers(t, single, sumS)
}

// pinSingleTrainers checks that a single accelerator — one partition — still
// runs the single-backend trainers bit for bit: each model table holds exactly
// the payload and metric rows the trainer produces directly over Extract of
// the same rows, and SUMMARY returns exactly Summarize's statistics.
func pinSingleTrainers(t *testing.T, single *idaax.System, summary *idaax.Result) {
	t.Helper()
	rel := readRelation(t, single, "SELECT * FROM train")
	extract := func(target string, categorical bool, id string) *analytics.Dataset {
		ds, err := analytics.Extract(rel, analytics.ExtractOptions{
			Features: []string{"F1", "F2"}, Target: target, TargetCategorical: categorical, ID: id, SkipIncomplete: true})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	lin, err := analytics.TrainLinearRegression(extract("Y", false, ""), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	logit, err := analytics.TrainLogisticRegression(extract("FLAG", false, ""), 80, 0.3, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	labelled := extract("FLAG", true, "")
	nb, err := analytics.TrainNaiveBayes(labelled)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism is IDAA1's slice count, as the procedure passes it.
	km, _, err := analytics.TrainKMeans(extract("", false, "CID"), analytics.KMeansOptions{K: 3, MaxIterations: 25, Seed: 7, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := analytics.TrainDecisionTree(labelled, analytics.DecisionTreeOptions{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	pins := []struct {
		table, kind string
		model       any
		metrics     map[string]float64
	}{
		{"M_LIN", analytics.ModelKindLinear, lin, map[string]float64{"RMSE": lin.RMSE, "R2": lin.R2, "N": float64(lin.N)}},
		{"M_LOG", analytics.ModelKindLogistic, logit, map[string]float64{"ACCURACY": logit.TrainAccuracy, "LOGLOSS": logit.TrainLogLoss, "N": float64(logit.N)}},
		{"M_NB", analytics.ModelKindNaiveBayes, nb, map[string]float64{"ACCURACY": nb.Accuracy(labelled), "CLASSES": float64(len(nb.Classes)), "N": float64(nb.N)}},
		{"M_KM", analytics.ModelKindKMeans, km, map[string]float64{"INERTIA": km.Inertia, "ITERATIONS": float64(km.Iterations), "K": 3, "N": float64(km.N)}},
		{"M_DT", analytics.ModelKindDecisionTree, dt, map[string]float64{"ACCURACY": dt.Accuracy(labelled), "NODES": float64(dt.Nodes), "DEPTH": float64(dt.Depth()), "N": float64(dt.N)}},
	}
	for _, p := range pins {
		want, err := analytics.ModelRows(p.kind, p.model, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(modelPayload(t, single, p.table)); got != want[0][3].AsString() {
			t.Fatalf("single %s payload differs from the single-backend trainer:\n got %s\nwant %s", p.table, got, want[0][3].AsString())
		}
		kind, metrics := modelMetrics(t, single, p.table)
		if kind != p.kind || len(metrics) != len(p.metrics) {
			t.Fatalf("single %s: kind %s, metrics %v; want %s, %v", p.table, kind, metrics, p.kind, p.metrics)
		}
		for name, v := range p.metrics {
			if metrics[name] != types.NewFloat(v).String() {
				t.Fatalf("single %s metric %s = %s, want %v", p.table, name, metrics[name], v)
			}
		}
	}

	stats, err := analytics.Summarize(rel, []string{"F1", "F2", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Rows) != len(stats) {
		t.Fatalf("single summary: %d rows, want %d", len(summary.Rows), len(stats))
	}
	for i, st := range stats {
		want := []string{st.Name, fmt.Sprint(st.Count), fmt.Sprint(st.Nulls),
			types.NewFloat(st.Mean).String(), types.NewFloat(st.StdDev).String(),
			types.NewFloat(st.Min).String(), types.NewFloat(st.Max).String()}
		if strings.Join(summary.Rows[i], "|") != strings.Join(want, "|") {
			t.Fatalf("single summary row %d: %v, want %v", i, summary.Rows[i], want)
		}
	}
}

// readRelation runs a query and returns its typed result as a relation.
func readRelation(t *testing.T, sys *idaax.System, sql string) *relalg.Relation {
	t.Helper()
	res, err := sys.Coordinator().Session(sys.AdminSession().User()).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("%s: no rows", sql)
	}
	rel := &relalg.Relation{Rows: res.Rows}
	for i, name := range res.Columns {
		rel.Cols = append(rel.Cols, expr.InputColumn{Name: name, Kind: res.Rows[0][i].Kind})
	}
	return rel
}

// modelMetrics returns a model table's kind and its metric rows, rendered.
func modelMetrics(t *testing.T, sys *idaax.System, table string) (string, map[string]string) {
	t.Helper()
	res, err := sys.AdminSession().Query("SELECT MODEL_KIND, PARAM, VALUE FROM " + table + " WHERE PARAM <> 'JSON'")
	if err != nil {
		t.Fatal(err)
	}
	kind := ""
	metrics := make(map[string]string, len(res.Rows))
	for _, r := range res.Rows {
		kind = r[0]
		metrics[r[1]] = r[2]
	}
	return kind, metrics
}

// TestDistributedScoringShardLocal checks the scoring half: PREDICT on a
// sharded table writes every prediction on the shard that computed it (no
// gather, no coordinator write), produces the same scores as a single
// backend, scores each row exactly once, and — because the id column is the
// distribution key — the prediction table inherits the key and stays
// co-located with its input.
func TestDistributedScoringShardLocal(t *testing.T) {
	const rows = 2000
	sharded := newShardedSystem(t, 3)
	defer sharded.Close()
	single := newTestSystem(t)
	defer single.Close()
	seedChurnLike(t, sharded, "SHARDS", rows)
	seedChurnLike(t, single, "IDAA1", rows)

	for _, sys := range []*idaax.System{sharded, single} {
		if _, err := sys.AdminSession().Exec("CALL IDAX.LINEAR_REGRESSION('TRAIN', 'Y', 'F1,F2', 'M_LIN', 0.000001)"); err != nil {
			t.Fatal(err)
		}
	}

	before, err := sharded.ShardGroupStats("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sharded.AdminSession().Exec("CALL IDAX.PREDICT('M_LIN', 'TRAIN', 'CID', 'SCORES')")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != rows {
		t.Fatalf("scored %d rows, want %d", res.RowsAffected, rows)
	}
	if !strings.Contains(res.Message, "co-located with input by CID") {
		t.Fatalf("prediction table did not inherit the distribution key: %q", res.Message)
	}
	if _, err := single.AdminSession().Exec("CALL IDAX.PREDICT('M_LIN', 'TRAIN', 'CID', 'SCORES')"); err != nil {
		t.Fatal(err)
	}

	after, err := sharded.ShardGroupStats("")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.AnalyticsRowsWrittenLocal - before.AnalyticsRowsWrittenLocal; got != rows {
		t.Fatalf("rows written shard-local: %d, want %d", got, rows)
	}

	// Exactly-once: every input row has exactly one score.
	dup, err := sharded.AdminSession().Query("SELECT id FROM scores GROUP BY id HAVING COUNT(*) > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dup.Rows) != 0 {
		t.Fatalf("%d ids scored more than once", len(dup.Rows))
	}

	// Same scores as the single backend.
	q := "SELECT id, prediction FROM scores ORDER BY id"
	got, err := sharded.AdminSession().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.AdminSession().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != rows || len(want.Rows) != rows {
		t.Fatalf("row counts: sharded %d, single %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i][0] != want.Rows[i][0] {
			t.Fatalf("row %d id: %s vs %s", i, got.Rows[i][0], want.Rows[i][0])
		}
		gv, _ := strconv.ParseFloat(got.Rows[i][1], 64)
		wv, _ := strconv.ParseFloat(want.Rows[i][1], 64)
		withinRel(t, "prediction", gv, wv, 1e-8)
	}

	// Co-location: joining input to scores on the shared key runs shard-local.
	preJoin, _ := sharded.ShardGroupStats("")
	if _, err := sharded.AdminSession().Query(
		"SELECT COUNT(*) FROM train t INNER JOIN scores s ON t.cid = s.id WHERE t.y > 10"); err != nil {
		t.Fatal(err)
	}
	postJoin, _ := sharded.ShardGroupStats("")
	if postJoin.ColocatedJoins <= preJoin.ColocatedJoins {
		t.Fatalf("train ⋈ scores did not run co-located (colocated joins %d -> %d)",
			preJoin.ColocatedJoins, postJoin.ColocatedJoins)
	}
}

// TestTrainAndScoreDuringRebalanceExactlyOnce runs training and scoring
// while the fleet is growing and rows are live-migrating between shards. The
// scatter holds the table's migration fence and snapshots all members under
// the commit fence, so every row must be trained on and scored exactly once —
// no row double-counted from both its source and destination shard, none
// missed mid-flight.
func TestTrainAndScoreDuringRebalanceExactlyOnce(t *testing.T) {
	const rows = 4000
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedChurnLike(t, sys, "SHARDS", rows)
	s := sys.AdminSession()

	if _, err := s.Exec("CALL IDAX.LINEAR_REGRESSION('TRAIN', 'Y', 'F1,F2', 'M_LIN', 0.000001)"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddShardMember("", "IDAA4", 2); err != nil {
		t.Fatal(err)
	}

	// Race the migration: train and score repeatedly until the rebalance
	// completes, asserting exact row coverage on every round.
	rounds := 0
	for {
		status, err := sys.RebalanceStatus("")
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Exec("CALL IDAX.LINEAR_REGRESSION('TRAIN', 'Y', 'F1,F2', 'M_MID', 0.000001)")
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != rows {
			t.Fatalf("training mid-rebalance saw %d rows, want %d", res.RowsAffected, rows)
		}
		out := fmt.Sprintf("SCORES_R%d", rounds)
		res, err = s.Exec(fmt.Sprintf("CALL IDAX.PREDICT('M_LIN', 'TRAIN', 'CID', '%s')", out))
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != rows {
			t.Fatalf("scoring mid-rebalance wrote %d rows, want %d", res.RowsAffected, rows)
		}
		dup, err := s.Query(fmt.Sprintf("SELECT id FROM %s GROUP BY id HAVING COUNT(*) > 1", out))
		if err != nil {
			t.Fatal(err)
		}
		if len(dup.Rows) != 0 {
			t.Fatalf("round %d: %d ids scored twice during migration", rounds, len(dup.Rows))
		}
		rounds++
		if !status.Active && len(status.MigratingTables) == 0 {
			break
		}
		if rounds > 50 {
			break
		}
	}
	if err := sys.WaitForRebalance(""); err != nil {
		t.Fatal(err)
	}

	// After the fleet settles the new member owns part of the table, and a
	// final scatter still covers every row exactly once.
	res, err := s.Exec("CALL IDAX.PREDICT('M_LIN', 'TRAIN', 'CID', 'SCORES_FINAL')")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != rows {
		t.Fatalf("post-rebalance scoring wrote %d rows, want %d", res.RowsAffected, rows)
	}
	st, err := sys.ShardGroupStats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("fleet did not grow: %d members", len(st.Shards))
	}
}

// TestDistributedKMeansAndForestEndToEnd covers the consolidation-merged
// algorithms end to end: k-means writes its assignments shard-local and the
// decision forest scores through the standard PREDICT path.
func TestDistributedKMeansAndForestEndToEnd(t *testing.T) {
	const rows = 1200
	sys := newShardedSystem(t, 3)
	defer sys.Close()
	seedChurnLike(t, sys, "SHARDS", rows)
	s := sys.AdminSession()

	res, err := s.Exec("CALL IDAX.KMEANS('TRAIN', 'F1,F2', 3, 'M_KM', 'KM_ASSIGN', 'CID', 25, 7)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != rows || !strings.Contains(res.Message, "shard-local") {
		t.Fatalf("kmeans: %+v", res)
	}
	cnt, err := s.Query("SELECT COUNT(*) FROM km_assign")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0] != fmt.Sprint(rows) {
		t.Fatalf("assignments: %s rows, want %d", cnt.Rows[0][0], rows)
	}
	clusters, err := s.Query("SELECT CLUSTER, COUNT(*) FROM km_assign GROUP BY CLUSTER")
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters.Rows) != 3 {
		t.Fatalf("expected 3 clusters, got %d", len(clusters.Rows))
	}

	// Without an id column, synthetic assignment ids must still be unique
	// fleet-wide (per-shard row numbers are renumbered to a global 0..N-1).
	if _, err := s.Exec("CALL IDAX.KMEANS('TRAIN', 'F1,F2', 3, 'M_KM2', 'KM_ASSIGN2')"); err != nil {
		t.Fatal(err)
	}
	dupIDs, err := s.Query("SELECT id FROM km_assign2 GROUP BY id HAVING COUNT(*) > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(dupIDs.Rows) != 0 {
		t.Fatalf("synthetic assignment ids collide across shards: %d duplicates", len(dupIDs.Rows))
	}
	total, err := s.Query("SELECT COUNT(*) FROM km_assign2")
	if err != nil {
		t.Fatal(err)
	}
	if total.Rows[0][0] != fmt.Sprint(rows) {
		t.Fatalf("synthetic-id assignments: %s rows, want %d", total.Rows[0][0], rows)
	}

	res, err = s.Exec("CALL IDAX.DECISION_TREE('TRAIN', 'FLAG', 'F1,F2', 'M_DT', 6)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Message, "decision forest of 3 shard-local trees") {
		t.Fatalf("forest message: %q", res.Message)
	}
	res, err = s.Exec("CALL IDAX.PREDICT('M_DT', 'TRAIN', 'CID', 'DT_SCORES')")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != rows {
		t.Fatalf("forest scored %d rows, want %d", res.RowsAffected, rows)
	}
	// Forest predictions must broadly agree with the labels they trained on.
	agree, err := s.Query("SELECT COUNT(*) FROM train t INNER JOIN dt_scores d ON t.cid = d.id WHERE t.flag = CAST(d.label AS BIGINT)")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := strconv.Atoi(agree.Rows[0][0])
	if n < rows*8/10 {
		t.Fatalf("forest agrees on only %d of %d rows", n, rows)
	}
}
