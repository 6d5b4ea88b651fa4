package bench

import (
	"fmt"
	"time"

	"idaax"
)

// RunE12DistributedAnalytics measures the shard-local analytics seam:
// training and scoring on a hash-distributed table scatter per shard with
// partial merging and shard-local prediction writes. The experiment reports
// throughput and, more fundamentally, data movement — rows gathered to the
// coordinator per train+score run (none: only partials travel) and rows
// written shard-local — at two data scales on a four-shard fleet.
func RunE12DistributedAnalytics(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Shard-local train/score (scatter + partial merge)",
		Columns: []string{"ROWS", "TRAIN_MS", "TRAIN_ROWS_PER_SEC", "SCORE_MS", "ROWS_GATHERED", "LOCAL_WRITES"},
	}
	const shards = 4
	slices := scale.Slices
	if slices <= 0 {
		slices = 2
	}
	sizes := []int{scale.ChurnRows, scale.ChurnRows * 4}
	features := "TENURE_MONTHS,MONTHLY_SPEND,SUPPORT_CALLS,LATE_PAYMENTS,DISCOUNT_RATE"

	for si, rows := range sizes {
		sys, group := newShardedSystem(shards, slices)
		if err := setupShardedChurn(sys, group, rows); err != nil {
			return nil, err
		}
		session := sys.AdminSession()

		before, err := sys.ShardGroupStats(group)
		if err != nil {
			return nil, err
		}
		trainStart := time.Now()
		trainCalls := []string{
			"CALL IDAX.LINEAR_REGRESSION('SHCHURN', 'MONTHLY_SPEND', 'TENURE_MONTHS,SUPPORT_CALLS,LATE_PAYMENTS,DISCOUNT_RATE', 'M_LIN')",
			fmt.Sprintf("CALL IDAX.LOGISTIC_REGRESSION('SHCHURN', 'CHURNED', '%s', 'M_LOG', 60, 0.2)", features),
			fmt.Sprintf("CALL IDAX.NAIVE_BAYES('SHCHURN', 'CHURNED', '%s', 'M_NB')", features),
		}
		for _, call := range trainCalls {
			if _, err := session.Exec(call); err != nil {
				return nil, fmt.Errorf("E12 train: %w", err)
			}
		}
		trainElapsed := time.Since(trainStart)

		scoreStart := time.Now()
		if _, err := session.Exec("CALL IDAX.PREDICT('M_LOG', 'SHCHURN', 'CUSTOMER_ID', 'E12_SCORES')"); err != nil {
			return nil, fmt.Errorf("E12 score: %w", err)
		}
		scoreElapsed := time.Since(scoreStart)

		after, err := sys.ShardGroupStats(group)
		if err != nil {
			return nil, err
		}
		gathered := after.RowsGathered - before.RowsGathered
		localWrites := after.AnalyticsRowsWrittenLocal - before.AnalyticsRowsWrittenLocal

		trainRowsPerSec := float64(rows*len(trainCalls)) / trainElapsed.Seconds()
		t.AddRow(itoa(rows), ms(trainElapsed), fmt.Sprintf("%.0f", trainRowsPerSec),
			ms(scoreElapsed), i64(gathered), i64(localWrites))

		suffix := fmt.Sprintf("_distributed_scale%d", si+1)
		t.AddMetric("train_rows_per_sec"+suffix, trainRowsPerSec, true)
		t.AddMetric("rows_gathered"+suffix, float64(gathered), false)
		t.AddMetric("local_score_writes"+suffix, float64(localWrites), true)
		sys.Close()
	}
	t.AddNote("Four shards; training runs linear regression (Gram-matrix merge), logistic regression (per-iteration gradient merge) and naive Bayes (class-moment merge); scoring writes predictions on the shard that computed them. Differential tests pin the models to a single-accelerator system's.")
	return t, nil
}

// setupShardedChurn creates the labelled churn table hash-distributed over
// the group and fills it through the routed insert path.
func setupShardedChurn(sys *idaax.System, accelerator string, rows int) error {
	session := sys.AdminSession()
	ddl := fmt.Sprintf("CREATE TABLE shchurn (customer_id BIGINT NOT NULL, tenure_months DOUBLE, monthly_spend DOUBLE, support_calls DOUBLE, late_payments DOUBLE, discount_rate DOUBLE, churned BIGINT) IN ACCELERATOR %s DISTRIBUTE BY HASH(customer_id)", accelerator)
	if _, err := session.Exec(ddl); err != nil {
		return err
	}
	const batch = 1000
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		sql := churnInsertSQL(lo, hi)
		if _, err := session.Exec(sql); err != nil {
			return err
		}
	}
	return nil
}

// churnInsertSQL renders deterministic churn rows [lo, hi).
func churnInsertSQL(lo, hi int) string {
	sb := make([]byte, 0, 64*(hi-lo))
	sb = append(sb, "INSERT INTO shchurn VALUES "...)
	for i := lo; i < hi; i++ {
		if i > lo {
			sb = append(sb, ", "...)
		}
		tenure := float64(1 + i%72)
		spend := 10 + float64(i%290)
		calls := float64(i % 12)
		late := float64(i % 6)
		discount := float64(i%40) / 100
		churned := 0
		if 1.5-0.06*tenure+0.35*calls+0.45*late-3.0*discount-0.004*spend > 0 {
			churned = 1
		}
		sb = append(sb, fmt.Sprintf("(%d, %g, %g, %g, %g, %g, %d)", i, tenure, spend, calls, late, discount, churned)...)
	}
	return string(sb)
}
