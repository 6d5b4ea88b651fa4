// Distributed training: a tour of shard-local analytics. A labelled table is
// hash-distributed over a 4-member shard group, and the IDAX.* procedures
// train where the rows live: each shard reduces its partition to a partial
// (Gram matrix, gradient sums, class moments, a local model) and the
// coordinator merges the partials into one model — no base row ever travels.
// Scoring scatters too, writing every prediction on the shard that computed
// it; because the id column is the distribution key, the prediction table
// inherits the key and joins against the input run shard-local.
//
//	go run ./examples/distributed_training
package main

import (
	"fmt"

	"idaax"
)

const rows = 8000

func main() {
	sys := idaax.New(idaax.Config{
		Accelerators: []idaax.AcceleratorConfig{
			{Name: "IDAA1", Slices: 2}, {Name: "IDAA2", Slices: 2},
			{Name: "IDAA3", Slices: 2}, {Name: "IDAA4", Slices: 2},
		},
		AnalyticsPublic: true,
	})
	defer sys.Close()
	session := sys.AdminSession()

	fmt.Println("== 1. A labelled table, hash-distributed over 4 shards ==")
	session.MustExec("CREATE TABLE signups (uid BIGINT NOT NULL, visits DOUBLE, spend DOUBLE, tickets DOUBLE, churned BIGINT) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(uid)")
	for lo := 0; lo < rows; lo += 1000 {
		stmt := "INSERT INTO signups VALUES "
		for i := lo; i < lo+1000; i++ {
			if i > lo {
				stmt += ", "
			}
			visits := float64(1 + i%37)
			spend := float64(i%220) * 0.8
			tickets := float64(i % 7)
			churned := 0
			if 2.2-0.09*visits+0.5*tickets-0.01*spend > 0 {
				churned = 1
			}
			stmt += fmt.Sprintf("(%d, %g, %g, %g, %d)", i, visits, spend, tickets, churned)
		}
		session.MustExec(stmt)
	}
	fmt.Printf("loaded %d rows over 4 shards\n", rows)

	fmt.Println("\n== 2. Training scatters; only partials travel ==")
	st0, _ := sys.ShardGroupStats("")
	res := session.MustExec("CALL IDAX.LOGISTIC_REGRESSION('SIGNUPS', 'CHURNED', 'VISITS,SPEND,TICKETS', 'CHURN_MODEL', 120, 0.3)")
	fmt.Println(res.Message)
	res = session.MustExec("CALL IDAX.SUMMARY('SIGNUPS', 'VISITS,SPEND,TICKETS')")
	fmt.Println(res.Message)

	st, _ := sys.ShardGroupStats("")
	fmt.Printf("analytics scatters: %d, per-shard partials: %d, base rows gathered to the coordinator: %d\n",
		st.AnalyticsScatters, st.AnalyticsPartials, st.RowsGathered)
	fmt.Printf("per-procedure scatter counts: %v\n", st.DistributedProcCalls)

	fmt.Println("\n== 3. Scoring writes predictions shard-local, co-located with the input ==")
	res = session.MustExec("CALL IDAX.PREDICT('CHURN_MODEL', 'SIGNUPS', 'UID', 'CHURN_SCORES')")
	fmt.Println(res.Message)
	st2, _ := sys.ShardGroupStats("")
	fmt.Printf("predictions written on their own shard: %d\n", st2.AnalyticsRowsWrittenLocal)
	fmt.Printf("RowsGathered across train + score: %d -> %d\n", st0.RowsGathered, st2.RowsGathered)

	// The score table inherited HASH(uid), so this join never gathers.
	res = session.MustExec("SELECT COUNT(*) FROM signups s INNER JOIN churn_scores c ON s.uid = c.id WHERE c.label = '1'")
	st3, _ := sys.ShardGroupStats("")
	fmt.Printf("predicted churners: %s (join ran co-located: %v)\n",
		res.Rows[0][0], st3.ColocatedJoins > st2.ColocatedJoins)
}
