// Package pipeline runs multi-stage transformation pipelines of the kind SPSS
// Modeler and similar predictive-analytics tools generate: a chain of SQL
// statements where each stage materialises an intermediate table that feeds
// the next stage. The runner supports two materialisation strategies so the
// benefit of accelerator-only tables can be measured directly:
//
//   - MaterializeDB2 (the pre-AOT baseline): every stage result is written to
//     a regular DB2 table and must be replicated to the accelerator before the
//     next stage can use it there;
//   - MaterializeAOT (the paper's contribution): every stage result is written
//     to an accelerator-only table and never leaves the accelerator.
package pipeline

import (
	"fmt"
	"strings"
	"time"

	"idaax/internal/federation"
	"idaax/internal/types"
)

// Materialization selects where intermediate stage results live.
type Materialization int

const (
	// MaterializeDB2 writes stage outputs to regular DB2 tables and reloads
	// them into the accelerator before dependent stages run there.
	MaterializeDB2 Materialization = iota
	// MaterializeAOT writes stage outputs to accelerator-only tables.
	MaterializeAOT
)

// String names the strategy.
func (m Materialization) String() string {
	if m == MaterializeAOT {
		return "ACCELERATOR-ONLY"
	}
	return "DB2-MATERIALIZED"
}

// Stage is one step of a pipeline. The stage's query is executed and its
// result is materialised under Target with the declared schema.
type Stage struct {
	// Name identifies the stage in reports.
	Name string
	// Query is the SELECT producing the stage output. Earlier stages are
	// referenced by their Target names.
	Query string
	// Target is the table the stage materialises into.
	Target string
	// Columns declares the target schema as "NAME TYPE" pairs; it must match
	// the query's output arity.
	Columns []string
}

// Runner executes pipelines against a coordinator session.
type Runner struct {
	session *federation.Session
	coord   *federation.Coordinator
	// Accelerator is the accelerator used for AOT materialisation and reloads.
	Accelerator string
}

// NewRunner creates a pipeline runner. The session's user needs the privileges
// required by the stage queries.
func NewRunner(coord *federation.Coordinator, session *federation.Session, accelerator string) *Runner {
	if accelerator == "" {
		accelerator = coord.DefaultAccelerator()
	}
	return &Runner{session: session, coord: coord, Accelerator: accelerator}
}

// StageReport describes one executed stage.
type StageReport struct {
	Stage        string
	Target       string
	Rows         int
	Elapsed      time.Duration
	RowsToAccel  int64
	RowsFromAcc  int64
	Materialized string
}

// Report summarises a pipeline run.
type Report struct {
	Mode            Materialization
	Stages          []StageReport
	TotalRows       int
	Elapsed         time.Duration
	RowsMovedToAcc  int64
	RowsMovedToDB2  int64
	ReplicationRows int64
}

// Run executes the stages in order with the chosen materialisation strategy
// and returns a movement/latency report. Existing stage targets are dropped
// first so runs are repeatable.
func (r *Runner) Run(stages []Stage, mode Materialization) (*Report, error) {
	return r.run(stages, mode, true)
}

// RunLocalOnly executes the stages entirely in DB2: stage results are
// materialised in DB2 tables and are NOT added to or reloaded on the
// accelerator. It is the "no accelerator at all" baseline of the ablation
// experiment.
func (r *Runner) RunLocalOnly(stages []Stage) (*Report, error) {
	return r.run(stages, MaterializeDB2, false)
}

func (r *Runner) run(stages []Stage, mode Materialization, reloadToAccelerator bool) (*Report, error) {
	report := &Report{Mode: mode}
	start := time.Now()
	baselineMetrics := r.coord.Metrics()

	for _, stage := range stages {
		if err := r.dropTarget(stage.Target); err != nil {
			return nil, err
		}
	}

	for _, stage := range stages {
		stageStart := time.Now()
		before := r.coord.Metrics()

		if err := r.createTarget(stage, mode); err != nil {
			return nil, fmt.Errorf("pipeline: stage %s: %w", stage.Name, err)
		}
		res, err := r.session.Exec(fmt.Sprintf("INSERT INTO %s %s", stage.Target, stage.Query))
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %s: %w", stage.Name, err)
		}
		// In the DB2-materialisation baseline the stage output must be copied
		// to the accelerator before an accelerated successor stage can read it
		// there (ACCEL_ADD_TABLES + ACCEL_LOAD_TABLES round trip).
		if mode == MaterializeDB2 && reloadToAccelerator {
			if _, err := r.session.Exec(fmt.Sprintf("CALL SYSPROC.ACCEL_ADD_TABLES('%s', '%s')", r.Accelerator, stage.Target)); err != nil {
				return nil, fmt.Errorf("pipeline: stage %s: %w", stage.Name, err)
			}
			if _, err := r.session.Exec(fmt.Sprintf("CALL SYSPROC.ACCEL_LOAD_TABLES('%s', '%s')", r.Accelerator, stage.Target)); err != nil {
				return nil, fmt.Errorf("pipeline: stage %s: %w", stage.Name, err)
			}
		}

		after := r.coord.Metrics()
		report.Stages = append(report.Stages, StageReport{
			Stage:        stage.Name,
			Target:       types.NormalizeName(stage.Target),
			Rows:         res.RowsAffected,
			Elapsed:      time.Since(stageStart),
			RowsToAccel:  after.RowsMovedToAccelerator - before.RowsMovedToAccelerator,
			RowsFromAcc:  after.RowsMovedToDB2 - before.RowsMovedToDB2,
			Materialized: mode.String(),
		})
		report.TotalRows += res.RowsAffected
	}

	final := r.coord.Metrics()
	report.Elapsed = time.Since(start)
	report.RowsMovedToAcc = final.RowsMovedToAccelerator - baselineMetrics.RowsMovedToAccelerator
	report.RowsMovedToDB2 = final.RowsMovedToDB2 - baselineMetrics.RowsMovedToDB2
	report.ReplicationRows = final.ReplicationRowsCopied - baselineMetrics.ReplicationRowsCopied
	return report, nil
}

func (r *Runner) createTarget(stage Stage, mode Materialization) error {
	cols := strings.Join(stage.Columns, ", ")
	var ddl string
	if mode == MaterializeAOT {
		ddl = fmt.Sprintf("CREATE TABLE %s (%s) IN ACCELERATOR %s", stage.Target, cols, r.Accelerator)
	} else {
		ddl = fmt.Sprintf("CREATE TABLE %s (%s)", stage.Target, cols)
	}
	_, err := r.session.Exec(ddl)
	return err
}

func (r *Runner) dropTarget(target string) error {
	_, err := r.session.Exec("DROP TABLE IF EXISTS " + target)
	return err
}

// ChurnFeaturePipeline returns the four-stage customer/orders feature pipeline
// used by the E1/E7 experiments and the elt_pipeline example: filter recent
// orders, aggregate per customer, join demographics, derive model features.
func ChurnFeaturePipeline(prefix string) []Stage {
	p := strings.ToUpper(prefix)
	return []Stage{
		{
			Name:   "filter_orders",
			Target: p + "_STG1_RECENT_ORDERS",
			Columns: []string{
				"ORDER_ID BIGINT", "CUSTOMER_ID BIGINT", "PRODUCT VARCHAR(16)",
				"QUANTITY BIGINT", "AMOUNT DOUBLE",
			},
			Query: "SELECT order_id, customer_id, product, quantity, amount FROM orders WHERE amount > 50",
		},
		{
			Name:   "aggregate_per_customer",
			Target: p + "_STG2_CUST_AGG",
			Columns: []string{
				"CUSTOMER_ID BIGINT", "ORDER_COUNT BIGINT", "TOTAL_AMOUNT DOUBLE", "AVG_AMOUNT DOUBLE", "MAX_AMOUNT DOUBLE",
			},
			Query: "SELECT customer_id, COUNT(*), SUM(amount), AVG(amount), MAX(amount) FROM " + p + "_STG1_RECENT_ORDERS GROUP BY customer_id",
		},
		{
			Name:   "join_demographics",
			Target: p + "_STG3_JOINED",
			Columns: []string{
				"CUSTOMER_ID BIGINT", "REGION VARCHAR(16)", "SEGMENT VARCHAR(16)", "AGE BIGINT",
				"INCOME DOUBLE", "ORDER_COUNT BIGINT", "TOTAL_AMOUNT DOUBLE", "AVG_AMOUNT DOUBLE",
			},
			Query: "SELECT c.customer_id, c.region, c.segment, c.age, c.income, a.order_count, a.total_amount, a.avg_amount " +
				"FROM customers c INNER JOIN " + p + "_STG2_CUST_AGG a ON c.customer_id = a.customer_id",
		},
		{
			Name:   "derive_features",
			Target: p + "_STG4_FEATURES",
			Columns: []string{
				"CUSTOMER_ID BIGINT", "AGE BIGINT", "INCOME DOUBLE", "ORDER_COUNT BIGINT",
				"TOTAL_AMOUNT DOUBLE", "SPEND_RATIO DOUBLE", "HIGH_VALUE BIGINT",
			},
			Query: "SELECT customer_id, age, income, order_count, total_amount, total_amount / income, " +
				"CASE WHEN total_amount > 1000 THEN 1 ELSE 0 END FROM " + p + "_STG3_JOINED WHERE income > 0",
		},
	}
}
