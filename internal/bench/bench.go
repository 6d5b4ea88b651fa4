// Package bench implements the experiment harness that regenerates every
// table of the evaluation. The same experiment code is driven from
// `go test -bench` (bench_test.go) and from the cmd/idaabench binary, so every
// number can be reproduced either way. End-to-end claims about the served
// system are judged by the benchmark in benchmark/ (see benchmark/README.md).
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"idaax"
)

// Scale controls dataset sizes so experiments can run both as quick smoke
// benchmarks and at full size.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// PipelineOrders are the ORDERS sizes for the pipeline experiments (E1, E7).
	PipelineOrders []int
	// QueryRows are the ORDERS sizes for the query-acceleration experiment (E2).
	QueryRows []int
	// LoadRows is the row count for the load-path experiment (E3).
	LoadRows int
	// TxnStatements is the number of transactions for E4.
	TxnStatements int
	// ChurnRows is the labelled-row count for E5/E6.
	ChurnRows int
	// Slices is the accelerator parallelism (0 = number of CPUs).
	Slices int
}

// SmallScale finishes in a few seconds; used by unit tests and -short runs.
func SmallScale() Scale {
	return Scale{
		Name:           "small",
		PipelineOrders: []int{5000, 20000},
		QueryRows:      []int{5000, 20000, 60000},
		LoadRows:       20000,
		TxnStatements:  200,
		ChurnRows:      5000,
	}
}

// FullScale is the paper-sized scale (cmd/idaabench -scale full).
func FullScale() Scale {
	return Scale{
		Name:           "full",
		PipelineOrders: []int{50000, 200000},
		QueryRows:      []int{10000, 100000, 400000},
		LoadRows:       200000,
		TxnStatements:  1000,
		ChurnRows:      50000,
	}
}

// Table is one experiment's result table. Rows and notes are the
// human-readable rendering; Metrics are the machine-readable numbers the CI
// regression harness compares against a checked-in baseline.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Metrics []Metric   `json:"metrics,omitempty"`
}

// Metric is one named machine-readable result of an experiment.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// HigherIsBetter orients the regression check: a higher-is-better metric
	// regresses by dropping, a lower-is-better one by rising.
	HigherIsBetter bool `json:"higher_is_better"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-text note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddMetric records a machine-readable result for the JSON report.
func (t *Table) AddMetric(name string, value float64, higherIsBetter bool) {
	t.Metrics = append(t.Metrics, Metric{Name: name, Value: value, HigherIsBetter: higherIsBetter})
}

// Report is the JSON document cmd/idaabench -json writes: every experiment
// that ran, at which scale.
type Report struct {
	Scale       string   `json:"scale"`
	Experiments []*Table `json:"experiments"`
}

// FindExperiment returns the report's table for an experiment id.
func (r *Report) FindExperiment(id string) *Table {
	for _, t := range r.Experiments {
		if strings.EqualFold(t.ID, id) {
			return t
		}
	}
	return nil
}

// CompareMetrics checks a fresh report against a baseline and returns one
// message per regression: a higher-is-better metric that dropped more than
// tolerance (fraction, e.g. 0.30) below the baseline, or a lower-is-better
// one that rose more than tolerance above it. A baseline experiment or
// metric the current report lacks is a regression too, so a gate cannot pass
// by no longer measuring; metrics only the current report has are ignored,
// so baselines survive adding them.
func CompareMetrics(baseline, current *Report, tolerance float64) []string {
	var regressions []string
	for _, base := range baseline.Experiments {
		cur := current.FindExperiment(base.ID)
		if cur == nil {
			regressions = append(regressions, fmt.Sprintf("%s missing from the report", base.ID))
			continue
		}
		curByName := make(map[string]Metric, len(cur.Metrics))
		for _, m := range cur.Metrics {
			curByName[m.Name] = m
		}
		for _, bm := range base.Metrics {
			cm, ok := curByName[bm.Name]
			if !ok {
				regressions = append(regressions, fmt.Sprintf("%s %s missing from the report", base.ID, bm.Name))
				continue
			}
			if bm.HigherIsBetter {
				floor := bm.Value * (1 - tolerance)
				if cm.Value < floor {
					regressions = append(regressions, fmt.Sprintf(
						"%s %s regressed: %.4g < baseline %.4g - %.0f%% (floor %.4g)",
						base.ID, bm.Name, cm.Value, bm.Value, tolerance*100, floor))
				}
			} else {
				ceil := bm.Value * (1 + tolerance)
				if cm.Value > ceil {
					regressions = append(regressions, fmt.Sprintf(
						"%s %s regressed: %.4g > baseline %.4g + %.0f%% (ceiling %.4g)",
						base.ID, bm.Name, cm.Value, bm.Value, tolerance*100, ceil))
				}
			}
		}
	}
	return regressions
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Columns)
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	writeRow(seps)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		sb.WriteString("  note: " + note + "\n")
	}
	return sb.String()
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(scale Scale) (*Table, error)
}

// Experiments returns all experiments keyed by lower-case id.
func Experiments() map[string]Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Multi-stage pipeline: DB2 materialisation vs accelerator-only tables", Run: RunE1Pipeline},
		{ID: "E2", Title: "Analytical query acceleration: DB2 row engine vs accelerator", Run: RunE2QueryAcceleration},
		{ID: "E3", Title: "Load paths: DB2 insert+replication vs loader vs loader into AOT", Run: RunE3LoadPaths},
		{ID: "E4", Title: "AOT DML under the DB2 transaction context: correctness and overhead", Run: RunE4Transactions},
		{ID: "E5", Title: "Scoring: client-side extraction vs in-database procedure", Run: RunE5Scoring},
		{ID: "E6", Title: "In-database model training on the accelerator", Run: RunE6Training},
		{ID: "E7", Title: "Ablation: offload and AOT design choices", Run: RunE7Ablation},
		{ID: "E8", Title: "Governance: privilege enforcement before delegation", Run: RunE8Governance},
		{ID: "E9", Title: "Sharded scan throughput scaling across a multi-accelerator fleet", Run: RunE9ShardedScan},
		{ID: "E10", Title: "Join placement by layout: hash-co-located vs random distribution", Run: RunE10ColocatedJoin},
		{ID: "E11", Title: "Elastic fleet: online rebalance vs stop-the-world re-load", Run: RunE11Rebalance},
		{ID: "E12", Title: "Distributed analytics: shard-local train/score", Run: RunE12DistributedAnalytics},
		{ID: "E13", Title: "Vectorized batch engine vs row-at-a-time execution", Run: RunE13Vectorized},
		{ID: "E14", Title: "Tracing and metrics overhead on the hot query path", Run: RunE14Observability},
		{ID: "E15", Title: "Operations plane overhead under concurrent scrapes", Run: RunE15OpsOverhead},
		{ID: "E16", Title: "Durability: WAL ingest overhead and recovery time", Run: RunE16Durability},
		{ID: "E17", Title: "Serving layer: mixed interactive/batch load, admission control on vs off", Run: RunE17Serving},
		{ID: "E18", Title: "Batch hash joins and dictionary encoding", Run: RunE18JoinDictionary},
		{ID: "F1", Title: "Architecture inventory and data paths (Figure 1)", Run: RunF1Architecture},
	}
	out := make(map[string]Experiment, len(exps))
	for _, e := range exps {
		out[strings.ToLower(e.ID)] = e
	}
	return out
}

// IDs returns the experiment ids in order.
func IDs() []string {
	var ids []string
	for id := range Experiments() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func Run(id string, scale Scale) (*Table, error) {
	exp, ok := Experiments()[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return exp.Run(scale)
}

// ---------------------------------------------------------------------------
// Shared setup helpers
// ---------------------------------------------------------------------------

func newSystem(scale Scale) *idaax.System {
	return idaax.New(idaax.Config{AcceleratorSlices: scale.Slices, AnalyticsPublic: true})
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000.0)
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

func i64(n int64) string { return fmt.Sprintf("%d", n) }
