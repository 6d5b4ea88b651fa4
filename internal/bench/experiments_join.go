package bench

import (
	"fmt"
	"strings"
	"time"

	"idaax"
	"idaax/internal/colstore"
	"idaax/internal/types"
)

// RunE18JoinDictionary measures the two deep-vectorization paths together:
//
//   - join: the batch hash join vs the row-at-a-time join on a 3-shard
//     co-located layout (both tables DISTRIBUTE BY HASH on the join key), the
//     A/B switch being System.SetVectorizedExecution — the same switch the
//     differential suite in join_test.go uses to pin result equality;
//   - dict: grouped aggregation and an equality predicate over a string
//     column at several cardinalities, with dictionary encoding on (default
//     threshold) vs off (threshold 0). The highest cardinality deliberately
//     overflows the threshold, so its pair documents that a spilled column
//     costs nothing over a never-encoded one.
func RunE18JoinDictionary(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "Batch hash joins and dictionary encoding",
		Columns: []string{"SECTION", "ROWS", "CONFIG", "ELAPSED_MS", "ROWS_PER_SEC", "DETAIL", "RATIO"},
	}
	slices := scale.Slices
	if slices <= 0 {
		slices = 2
	}
	sizes := []int{scale.QueryRows[0], scale.QueryRows[len(scale.QueryRows)-1]}

	if err := runE18Joins(t, scale, sizes, slices); err != nil {
		return nil, err
	}
	if err := runE18Dictionary(t, scale, sizes[len(sizes)-1]); err != nil {
		return nil, err
	}
	return t, nil
}

// runE18Joins runs the join A/B at two fact-table scales on a co-located
// 3-shard fleet. Throughput counts fact (probe-side) rows per second.
func runE18Joins(t *Table, scale Scale, sizes []int, slices int) error {
	queries := []struct {
		key string
		sql string
	}{
		{"join_groupby", "SELECT d.code, COUNT(*), SUM(f.v), AVG(f.v) FROM e18_fact f JOIN e18_dim d ON f.gid = d.gid GROUP BY d.code"},
		{"join_select", "SELECT f.id, f.v, d.code FROM e18_fact f JOIN e18_dim d ON f.gid = d.gid WHERE f.v > 200 AND d.w < 37"},
	}
	for si, rows := range sizes {
		sys, accelerator := newShardedSystem(3, slices)
		if err := fillJoinTables(sys, accelerator, rows); err != nil {
			sys.Close()
			return err
		}
		session := sys.AdminSession()
		iters := 60000 / rows
		if iters < 3 {
			iters = 3
		}
		for _, q := range queries {
			var rowRate float64
			for _, vectorized := range []bool{false, true} {
				sys.SetVectorizedExecution(vectorized)
				// Warm-up run, also used to record the result cardinality.
				res, err := session.Query(q.sql)
				if err != nil {
					sys.Close()
					return fmt.Errorf("E18 %s (vectorized=%v): %w", q.key, vectorized, err)
				}
				resultRows := len(res.Rows)
				start := time.Now()
				for i := 0; i < iters; i++ {
					if _, err := session.Query(q.sql); err != nil {
						sys.Close()
						return fmt.Errorf("E18 %s (vectorized=%v): %w", q.key, vectorized, err)
					}
				}
				elapsed := time.Since(start)
				rate := float64(rows*iters) / elapsed.Seconds()

				key := "row"
				if vectorized {
					key = "vec"
				}
				ratio := "1.0x"
				if vectorized && rowRate > 0 {
					ratio = fmt.Sprintf("%.1fx", rate/rowRate)
					t.AddMetric(fmt.Sprintf("%s_speedup_scale%d", q.key, si+1), rate/rowRate, true)
				} else {
					rowRate = rate
				}
				t.AddRow("join", itoa(rows), q.key+"/"+key, ms(elapsed), fmt.Sprintf("%.0f", rate), itoa(resultRows), ratio)
				t.AddMetric(fmt.Sprintf("%s_rows_per_sec_%s_scale%d", q.key, key, si+1), rate, true)
			}
		}
		st, err := sys.ShardGroupStats(accelerator)
		if err != nil {
			sys.Close()
			return err
		}
		t.AddNote("scale %d: colocated_joins=%d, shard-local vectorized joins=%d — the vec rows ran the batch hash join on every shard, the row rows the row-at-a-time join on the same co-located layout.",
			si+1, st.ColocatedJoins, st.Group.VectorizedJoins)
		sys.Close()
	}
	return nil
}

// runE18Dictionary sweeps string-column cardinality with dictionary encoding
// on vs off. The A/B switch is the process-wide append-time threshold, so each
// configuration loads its own system.
func runE18Dictionary(t *Table, scale Scale, rows int) error {
	queries := []struct {
		key string
		sql string
	}{
		{"dict_groupby", "SELECT tag, COUNT(*), SUM(v) FROM e18_dict GROUP BY tag"},
		{"dict_filter", "SELECT COUNT(*) FROM e18_dict WHERE tag = 't-3'"},
	}
	cards := []int{8, 256, 2 * colstore.DefaultDictThreshold}
	iters := 150000 / rows
	if iters < 3 {
		iters = 3
	}
	for _, card := range cards {
		overflowed := card > colstore.DefaultDictThreshold
		rawRates := map[string]float64{}
		for _, threshold := range []int{0, colstore.DefaultDictThreshold} {
			prev := colstore.SetDictThreshold(threshold)
			sys := newSystem(scale)
			sys.SetVectorizedExecution(true)
			err := fillDictTable(sys, rows, card)
			if err == nil {
				session := sys.AdminSession()
				for _, q := range queries {
					if _, err = session.Query(q.sql); err != nil { // warm-up
						break
					}
					start := time.Now()
					for i := 0; i < iters; i++ {
						if _, err = session.Query(q.sql); err != nil {
							break
						}
					}
					if err != nil {
						break
					}
					elapsed := time.Since(start)
					rate := float64(rows*iters) / elapsed.Seconds()

					cfg, ratio := "raw", "1.0x"
					if threshold > 0 {
						cfg = "dict"
						if overflowed {
							cfg = "spilled"
						}
						if base := rawRates[q.key]; base > 0 {
							ratio = fmt.Sprintf("%.1fx", rate/base)
							if !overflowed {
								t.AddMetric(fmt.Sprintf("%s_speedup_card%d", q.key, card), rate/base, true)
							}
						}
						if !overflowed {
							t.AddMetric(fmt.Sprintf("%s_rows_per_sec_card%d", q.key, card), rate, true)
						}
					} else {
						rawRates[q.key] = rate
					}
					t.AddRow("dict", itoa(rows), fmt.Sprintf("%s/card=%d/%s", q.key, card, cfg),
						ms(elapsed), fmt.Sprintf("%.0f", rate), itoa(card), ratio)
				}
			}
			sys.Close()
			colstore.SetDictThreshold(prev)
			if err != nil {
				return fmt.Errorf("E18 dict card=%d threshold=%d: %w", card, threshold, err)
			}
		}
	}
	t.AddNote("dict section: the same queries over the same %d rows, dictionary threshold %d (on) vs 0 (off). card=%d exceeds the threshold, so its column spilled to raw strings — the pair shows a spilled column performs like a never-encoded one.",
		rows, colstore.DefaultDictThreshold, 2*colstore.DefaultDictThreshold)
	return nil
}

// fillJoinTables creates and loads the co-located fact/dim pair: both hashed
// on GID so every join in the experiment stays shard-local. The dim CODE
// column holds 24 distinct values, so it is dictionary-encoded at the default
// threshold and the grouped join exercises the dict-code fragment cache.
func fillJoinTables(sys *idaax.System, accelerator string, rows int) error {
	session := sys.AdminSession()
	dims := rows / 50
	if dims < 64 {
		dims = 64
	}
	ddls := []string{
		fmt.Sprintf("CREATE TABLE e18_fact (id BIGINT NOT NULL, gid BIGINT, v DOUBLE) IN ACCELERATOR %s DISTRIBUTE BY HASH(gid)", accelerator),
		fmt.Sprintf("CREATE TABLE e18_dim (gid BIGINT NOT NULL, code VARCHAR(8), w DOUBLE) IN ACCELERATOR %s DISTRIBUTE BY HASH(gid)", accelerator),
	}
	for _, ddl := range ddls {
		if _, err := session.Exec(ddl); err != nil {
			return err
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO e18_dim VALUES ")
	for i := 0; i < dims; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'c-%d', %g)", i, i%24, float64(i%75))
	}
	if _, err := session.Exec(sb.String()); err != nil {
		return err
	}
	const batch = 2000
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		sb.Reset()
		sb.WriteString("INSERT INTO e18_fact VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %g)", i, i%dims, float64((i*7)%1000))
		}
		if _, err := session.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// fillDictTable creates and bulk-loads the dictionary-sweep table on a plain
// single-accelerator system: TAG takes card distinct values.
func fillDictTable(sys *idaax.System, rows, card int) error {
	session := sys.AdminSession()
	if _, err := session.Exec("CREATE TABLE e18_dict (n BIGINT NOT NULL, tag VARCHAR(12), v DOUBLE) IN ACCELERATOR IDAA1"); err != nil {
		return err
	}
	const batch = 10000
	buf := make([]types.Row, 0, batch)
	for i := 0; i < rows; i++ {
		buf = append(buf, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("t-%d", i%card)),
			types.NewFloat(float64((i * 13) % 700)),
		})
		if len(buf) == batch || i == rows-1 {
			if err := fillTable(sys, "E18_DICT", buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}
