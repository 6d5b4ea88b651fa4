package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"idaax"
)

// RunE16Durability measures what durability costs and what recovery buys:
//
//   - Ingest: the same batched INSERT workload into an accelerator-only
//     table with the WAL off (in-memory system), with group-committed fsync
//     and with fsync-per-commit. The acceptance bar is WAL-on ingest within
//     2x of WAL-off.
//   - Recovery: tables of increasing size are checkpointed, topped up with a
//     WAL tail, killed without a clean shutdown and reopened; the reopen time
//     is the recovery time (checkpoint load + WAL replay + catch-up).
//
// Every run verifies counts exactly — a recovery that loses or duplicates
// rows fails the experiment rather than reporting a fast number.
func RunE16Durability(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Durability: WAL ingest overhead and recovery time",
		Columns: []string{"PHASE", "CONFIG", "ROWS", "ELAPSED_MS", "ROWS_PER_SEC", "RELATIVE"},
	}

	if err := runE16Ingest(t, scale); err != nil {
		return nil, fmt.Errorf("E16 ingest: %w", err)
	}
	if err := runE16Recovery(t, scale); err != nil {
		return nil, fmt.Errorf("E16 recovery: %w", err)
	}
	t.AddNote("ingest is %d rows in 500-row INSERT statements into an accelerator-only table; wal=grouped fsyncs on a 2ms group-commit interval, wal=always fsyncs before every commit returns. wal=off and wal=grouped report the fastest of %d interleaved runs each, wal=always one run.", scale.LoadRows, e16IngestRuns)
	t.AddNote("recovery reopens a store that was killed without a clean shutdown: a checkpoint holding ~91%% of the rows plus a WAL tail with the rest; the reopen verifies the exact row count before timing is reported.")
	return t, nil
}

const e16Batch = 500

func e16Insert(sys *idaax.System, table string, from, n int) error {
	s := sys.AdminSession()
	for done := 0; done < n; {
		batch := e16Batch
		if n-done < batch {
			batch = n - done
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for j := 0; j < batch; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			k := from + done + j
			fmt.Fprintf(&sb, "(%d, %g)", k, float64(k%9973)*0.5)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			return err
		}
		done += batch
	}
	return nil
}

func e16Count(sys *idaax.System, table string) (int, error) {
	res, err := sys.AdminSession().Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		return 0, err
	}
	var n int
	fmt.Sscanf(res.Rows[0][0], "%d", &n)
	return n, nil
}

// e16IngestRuns is how many times wal=off and wal=grouped ingest run, in
// interleaved pairs; each reports its fastest run. A CPU shared with other
// work only ever slows a run down, so the minimum of interleaved runs is the
// estimate least moved by it, and interleaving exposes both modes to the
// same background.
const e16IngestRuns = 3

func runE16Ingest(t *Table, scale Scale) error {
	rows := scale.LoadRows
	modes := []struct {
		name  string
		fsync string
		runs  int
	}{
		{"wal=off", "", e16IngestRuns},
		{"wal=grouped", "grouped", e16IngestRuns},
		{"wal=always", "always", 1},
	}
	best := make([]time.Duration, len(modes))
	for run := 0; run < e16IngestRuns; run++ {
		for i, m := range modes {
			if run >= m.runs {
				continue
			}
			elapsed, err := e16IngestOnce(scale, m.fsync, rows)
			if err != nil {
				return fmt.Errorf("%s: %w", m.name, err)
			}
			if best[i] == 0 || elapsed < best[i] {
				best[i] = elapsed
			}
		}
	}
	var offRate float64
	for i, m := range modes {
		rate := float64(rows) / best[i].Seconds()
		rel := "1.00x"
		if m.name == "wal=off" {
			offRate = rate
		} else if rate > 0 {
			rel = fmt.Sprintf("%.2fx", offRate/rate)
		}
		t.AddRow("ingest", m.name, itoa(rows), ms(best[i]), fmt.Sprintf("%.0f", rate), rel)
		// Gated metrics cover wal=off and wal=grouped only: wal=always ingest
		// is dominated by the runner's raw fsync latency, which says nothing
		// about the code — it is reported in the table but not regression-gated.
		if m.name != "wal=always" {
			t.AddMetric("ingest_rows_per_sec_"+strings.TrimPrefix(m.name, "wal="), rate, true)
		}
		if m.name == "wal=grouped" && rate > 0 {
			t.AddMetric("wal_slowdown_grouped", offRate/rate, false)
		}
	}
	return nil
}

// e16IngestOnce times one batched ingest of rows into a fresh system — in
// memory when fsync is "", otherwise durable with that fsync policy — and
// verifies the exact row count.
func e16IngestOnce(scale Scale, fsync string, rows int) (time.Duration, error) {
	cfg := idaax.Config{AcceleratorSlices: scale.Slices, AnalyticsPublic: true}
	if fsync != "" {
		dir, err := os.MkdirTemp("", "idaax-e16-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
		cfg.FsyncPolicy = fsync
	}
	sys, err := idaax.OpenDurable(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := sys.AdminSession().Exec("CREATE TABLE ing (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1"); err != nil {
		sys.Close()
		return 0, err
	}
	start := time.Now()
	err = e16Insert(sys, "ing", 0, rows)
	elapsed := time.Since(start)
	if err == nil {
		var n int
		if n, err = e16Count(sys, "ing"); err == nil && n != rows {
			err = fmt.Errorf("ingest wrote %d of %d rows", n, rows)
		}
	}
	if closeErr := sys.Close(); err == nil {
		err = closeErr
	}
	return elapsed, err
}

func runE16Recovery(t *Table, scale Scale) error {
	for si, rows := range scale.QueryRows {
		dir, err := os.MkdirTemp("", "idaax-e16-*")
		if err != nil {
			return err
		}
		err = func() error {
			tail := rows / 10
			cfg := idaax.Config{
				AcceleratorSlices: scale.Slices, AnalyticsPublic: true,
				DataDir: dir, FsyncPolicy: "always",
			}
			sys, err := idaax.OpenDurable(cfg)
			if err != nil {
				return err
			}
			if _, err := sys.AdminSession().Exec("CREATE TABLE rec (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1"); err != nil {
				return err
			}
			if err := e16Insert(sys, "rec", 0, rows); err != nil {
				return err
			}
			if err := sys.Checkpoint(); err != nil {
				return err
			}
			if err := e16Insert(sys, "rec", rows, tail); err != nil {
				return err
			}
			// Kill: no Close, no final checkpoint — recovery must load the
			// checkpoint and replay the WAL tail.

			start := time.Now()
			re, err := idaax.OpenDurable(cfg)
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			elapsed := time.Since(start)
			defer re.Close()
			n, err := e16Count(re, "rec")
			if err != nil {
				return err
			}
			if n != rows+tail {
				return fmt.Errorf("recovered %d of %d rows", n, rows+tail)
			}
			info := re.Coordinator().RecoveryInfo()
			if !info.Recovered || info.WALRecords == 0 {
				return fmt.Errorf("recovery replayed no WAL records: %+v", info)
			}
			rate := float64(n) / elapsed.Seconds()
			t.AddRow("recovery", "ckpt+wal", itoa(n), ms(elapsed), fmt.Sprintf("%.0f", rate), "-")
			t.AddMetric(fmt.Sprintf("recovery_rows_per_sec_scale%d", si+1), rate, true)
			return nil
		}()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}
