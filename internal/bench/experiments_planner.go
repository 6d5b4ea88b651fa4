package bench

import (
	"fmt"
	"strings"
	"time"

	"idaax"
)

// RunE10ColocatedJoin measures what the cost-based planner gains from data
// layout: the same ORDERS/CUSTOMERS pair is loaded into a 4-shard system
// twice at each of two data scales, once DISTRIBUTE BY RANDOM (round robin:
// the planner cannot co-locate the join, so it gathers or broadcasts) and
// once hash-distributed on the join key (ORDERS on CUSTOMER_ID, CUSTOMERS on
// ID: joins execute shard-local and only join results or aggregate partials
// reach the coordinator).
//
// The aggregate join shows the wall-clock win of co-location (two-phase
// partial aggregation over shard-local joins); the plain join materialises
// the same join output under both layouts, so its gain is in rows moved,
// which is the quantity that matters once shards live on real hardware.
func RunE10ColocatedJoin(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Join placement by layout: hash-co-located vs random distribution (4 shards)",
		Columns: []string{"ROWS", "QUERY", "RANDOM_MS", "HASH_MS", "SPEEDUP",
			"MOVED_RANDOM", "MOVED_HASH"},
	}
	slices := scale.Slices
	if slices <= 0 {
		slices = 2
	}
	const rounds = 4
	classes := []struct{ name, sql string }{
		{"agg-join", "SELECT c.segment, COUNT(*), SUM(o.amount) FROM orders o JOIN customers c ON o.customer_id = c.id GROUP BY c.segment"},
		{"plain-join", "SELECT o.oid, c.name FROM orders o JOIN customers c ON o.customer_id = c.id WHERE o.amount > 4 ORDER BY o.oid LIMIT 20"},
		{"pruned-join", "SELECT COUNT(*), SUM(o.amount) FROM orders o JOIN customers c ON o.customer_id = c.id WHERE o.customer_id IN (1, 2, 3)"},
	}
	layouts := []struct{ name, orders, customers string }{
		{"random", "RANDOM", "RANDOM"},
		{"hash", "HASH(customer_id)", "HASH(id)"},
	}

	// Two data scales; the movement advantage is roughly constant while the
	// wall-clock advantage grows with the data volume.
	for _, rows := range []int{scale.LoadRows, 5 * scale.LoadRows} {
		if rows < 400 {
			rows = 400
		}
		var elapsed [2][]time.Duration
		var moved [2][]int64
		for li, layout := range layouts {
			sys, accelerator := newShardedSystem(4, slices)
			if err := seedJoinPair(sys, accelerator, rows, layout.orders, layout.customers); err != nil {
				return nil, err
			}
			session := sys.AdminSession()
			for _, class := range classes {
				// Warm once so first-run allocation noise stays out.
				if _, err := session.Query(class.sql); err != nil {
					return nil, err
				}
				before, err := sys.ShardGroupStats(accelerator)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				for i := 0; i < rounds; i++ {
					if _, err := session.Query(class.sql); err != nil {
						return nil, err
					}
				}
				elapsed[li] = append(elapsed[li], time.Since(start))
				after, err := sys.ShardGroupStats(accelerator)
				if err != nil {
					return nil, err
				}
				moved[li] = append(moved[li], (after.RowsGathered-before.RowsGathered)/rounds)
			}
			st, err := sys.ShardGroupStats(accelerator)
			if err != nil {
				return nil, err
			}
			t.AddNote("rows=%d %s: colocated_joins=%d broadcast_joins=%d pruned_shard_scans_avoided=%d",
				rows, layout.name, st.ColocatedJoins, st.BroadcastJoins, st.ShardScansAvoided)
			sys.Close()
		}
		for ci, class := range classes {
			t.AddRow(itoa(rows), class.name, ms(elapsed[0][ci]), ms(elapsed[1][ci]),
				ratio(elapsed[0][ci], elapsed[1][ci]), i64(moved[0][ci]), i64(moved[1][ci]))
		}
	}
	t.AddNote("hash: ORDERS and CUSTOMERS share their distribution key, so joins run shard-local; random: the planner broadcasts or gathers base rows to the coordinator first")
	return t, nil
}

// seedJoinPair creates the ORDERS/CUSTOMERS pair with the given DISTRIBUTE
// BY clauses and loads it through the SQL INSERT path (rows flow through the
// router's partitioner).
func seedJoinPair(sys *idaax.System, accelerator string, rows int, ordersDist, customersDist string) error {
	session := sys.AdminSession()
	ddl := []string{
		fmt.Sprintf("CREATE TABLE orders (oid BIGINT NOT NULL, customer_id BIGINT, amount DOUBLE) IN ACCELERATOR %s DISTRIBUTE BY %s", accelerator, ordersDist),
		fmt.Sprintf("CREATE TABLE customers (id BIGINT NOT NULL, name VARCHAR(16), segment VARCHAR(8)) IN ACCELERATOR %s DISTRIBUTE BY %s", accelerator, customersDist),
	}
	for _, d := range ddl {
		if _, err := session.Exec(d); err != nil {
			return err
		}
	}
	customers := rows / 20
	if customers < 10 {
		customers = 10
	}
	const batch = 2000
	for lo := 0; lo < rows; lo += batch {
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO orders VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %g)", i, i%customers, float64(i%23)*0.5)
		}
		if _, err := session.Exec(sb.String()); err != nil {
			return err
		}
	}
	segments := []string{"SMB", "ENT", "GOV"}
	var sb strings.Builder
	sb.WriteString("INSERT INTO customers VALUES ")
	for i := 0; i < customers; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'C%05d', '%s')", i, i, segments[i%3])
	}
	if _, err := session.Exec(sb.String()); err != nil {
		return err
	}
	// Exact statistics sharpen the planner's estimates (and exercise the
	// ANALYZE path in every benchmark run).
	if _, err := session.Exec("CALL SYSPROC.ACCEL_ANALYZE('" + accelerator + "', 'orders,customers')"); err != nil {
		return err
	}
	return nil
}
