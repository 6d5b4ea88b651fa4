package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// op is one statement a client sends, with what the benchmark expects back.
// The expectations are cheap enough to check on every statement of a timed
// run; the oracle checks content on top.
type op struct {
	class  int // index into classNames
	sql    string
	exec   bool // POST /v1/exec (DDL, DML, CALL) instead of /v1/query
	stream bool // NDJSON-streamed /v1/query
	// rows credits the statement with rows it wrote, trained on or scored;
	// a query is credited with the rows it returned instead.
	rows         int
	userBytes    int    // bytes of user data an INSERT ... VALUES carries
	wantRows     int    // result rows, -1 = unchecked
	wantAffected int    // rows_affected, -1 = unchecked
	wantScalar   string // first cell of the first row, "" = unchecked
}

func query(class, sql string, wantRows int) op {
	return op{class: classID(class), sql: sql, wantRows: wantRows, wantAffected: -1}
}

func execute(class, sql string, rows, wantAffected int) op {
	return op{class: classID(class), sql: sql, exec: true, rows: rows, wantRows: -1, wantAffected: wantAffected}
}

func classID(name string) int {
	for i, c := range classNames {
		if c == name {
			return i
		}
	}
	panic("unknown statement class " + name)
}

// stream is one client's seeded statement sequence. Statements come in
// rounds (one statement, one pass over the five analytic classes, one ELT
// cycle); a timed run lets every client finish its round, so per-statement
// ratios are taken over whole rounds.
type stream struct {
	next     func() op
	boundary func() bool // the next op starts a round
}

// sample is what a client saw of one statement.
type sample struct {
	class      int
	client     int
	start      time.Time
	dur        time.Duration
	rows       int
	userBytes  int
	queued     time.Duration // server-reported admission wait
	elapsed    time.Duration // server-reported execution time
	firstChunk time.Duration // streamed only: time to the first rows frame
	chunks     int
	failed     bool // error, 429 or 503
	wrong      bool // answered, but not what the generator predicted
}

// do sends one statement and checks it against the op's expectations. keep
// asks for the result rows (the oracle wants them; timed runs do not).
func (c *client) do(o op, keep bool) (sample, [][]string, error) {
	s := sample{class: o.class, start: time.Now()}
	var rows [][]string
	var scalar string
	var affected int
	var err error
	switch {
	case o.stream:
		res, e := c.wc.QueryStream(o.sql, streamChunkRows, func(chunk [][]string) error {
			if s.chunks == 0 {
				s.firstChunk = time.Since(s.start)
			}
			s.chunks++
			s.rows += len(chunk)
			if keep {
				rows = append(rows, chunk...)
			}
			return nil
		})
		if err = e; e == nil {
			s.queued, s.elapsed = msDuration(res.QueuedMS), msDuration(res.ElapsedMS)
		}
	default:
		send := c.wc.Query
		if o.exec {
			send = c.wc.Exec
		}
		res, e := send(o.sql)
		if err = e; e == nil {
			s.queued, s.elapsed = msDuration(res.QueuedMS), msDuration(res.ElapsedMS)
			s.rows, affected = len(res.Rows), res.RowsAffected
			if len(res.Rows) > 0 && len(res.Rows[0]) > 0 {
				scalar = res.Rows[0][0]
			}
			if keep {
				rows = res.Rows
			}
		}
	}
	s.dur = time.Since(s.start)
	if err != nil {
		s.failed = true
		return s, nil, fmt.Errorf("%s: %w", clip(o.sql), err)
	}
	switch {
	case o.wantRows >= 0 && s.rows != o.wantRows:
		err = fmt.Errorf("%s: %d rows, want %d", clip(o.sql), s.rows, o.wantRows)
	case o.wantAffected >= 0 && affected != o.wantAffected:
		err = fmt.Errorf("%s: %d rows affected, want %d", clip(o.sql), affected, o.wantAffected)
	case o.wantScalar != "" && scalar != o.wantScalar:
		err = fmt.Errorf("%s: got %q, want %q", clip(o.sql), scalar, o.wantScalar)
	}
	s.wrong = err != nil
	if o.exec {
		s.rows, s.userBytes = o.rows, o.userBytes
	}
	return s, rows, err
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// workload is one traffic mix with its data, its oracle and its ladder.
type workload struct {
	name    string
	durable bool
	// resize adapts the shared scale to this workload (nil: as is).
	resize func(sc scale) scale
	load   func(e *env) error
	stream func(e *env, client int) *stream
	// oracle verifies every statement class's output and route before
	// anything is timed.
	oracle func(e *env) error
	// ladder replays the traced pass's fixed sample down the layer ladder.
	ladder func(e *env, t *tracer) (*ladderResult, error)
}

var workloads = []*workload{
	{name: wlPoint, resize: pointScale, load: loadReadData, stream: pointStream, oracle: pointOracle, ladder: pointLadder},
	{name: wlAnalytic, load: loadReadData, stream: analyticStream, oracle: analyticOracle, ladder: analyticLadder},
	{name: wlWide, load: loadReadData, stream: wideStream, oracle: wideOracle, ladder: wideLadder},
	{name: wlELT, durable: true, load: loadELTData, stream: eltStream, oracle: eltOracle, ladder: eltLadder},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clientRand seeds one client's parameter stream.
func clientRand(e *env, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(e.seed, streamClient, uint64(client)))))
}

// loadReadData is the data set of the three read workloads: identical for all
// of them, in memory, inserted in key order.
func loadReadData(e *env) error {
	if err := e.exec(ddlCustomers, ddlOrders, ddlProducts); err != nil {
		return err
	}
	if err := e.loadCSV("customers", customersCSV(e.seed, e.sc)); err != nil {
		return err
	}
	if err := e.loadCSV("products", productsCSV(e.seed, e.sc)); err != nil {
		return err
	}
	return e.loadCSV("orders", ordersCSV(e.seed, e.sc))
}

// ---------------------------------------------------------------------------
// point_lookup
// ---------------------------------------------------------------------------

const rangeWidth = 10

func pointScale(sc scale) scale {
	sc.customers = sc.pointCustomers
	return sc
}

func pointSQL(id int) string {
	return "SELECT segment, age, income FROM customers WHERE customer_id = " + strconv.Itoa(id)
}

func rangeSQL(lo int) string {
	return "SELECT segment, age, income FROM customers WHERE customer_id >= " + strconv.Itoa(lo) +
		" AND customer_id < " + strconv.Itoa(lo+rangeWidth)
}

// pointOp draws the next statement: 80 % single-key reads, 20 % ten-key
// ranges, uniform keys.
func pointOp(e *env, r *rand.Rand) (op, int) {
	if r.Intn(5) == 0 {
		lo := r.Intn(e.sc.customers - rangeWidth)
		return query("range", rangeSQL(lo), rangeWidth), lo
	}
	id := r.Intn(e.sc.customers)
	return query("point", pointSQL(id), 1), id
}

func pointStream(e *env, client int) *stream {
	r := clientRand(e, client)
	return &stream{
		next:     func() op { o, _ := pointOp(e, r); return o },
		boundary: func() bool { return true },
	}
}

// ---------------------------------------------------------------------------
// analytic_mix
// ---------------------------------------------------------------------------

// analyticStmt is one analytic class instance in the three forms the ladder
// needs: the statement itself, what a member runs for it (the partial
// aggregate, without ORDER BY/LIMIT), and what the coordinator runs over the
// members' partials (empty when the coordinator only concatenates).
type analyticStmt struct {
	sql, memberSQL, mergeSQL string
}

// analyticSQL renders class c (an index into analyticClasses). The parameter
// ranges are narrow so statements of one class do comparable work.
func analyticSQL(c int, r *rand.Rand) analyticStmt {
	switch analyticClasses[c] {
	case "filter":
		w := fmt.Sprintf(" FROM orders WHERE amount > %d AND qty >= %d", 200+r.Intn(100), 2+r.Intn(3))
		return analyticStmt{
			sql:       "SELECT COUNT(*), SUM(amount)" + w,
			memberSQL: "SELECT COUNT(*) AS n, SUM(amount) AS total" + w,
			mergeSQL:  "SELECT SUM(n), SUM(total) FROM partials",
		}
	case "groupby":
		w := fmt.Sprintf(" FROM orders WHERE amount > %d GROUP BY region", r.Intn(100))
		return analyticStmt{
			sql:       "SELECT region, COUNT(*), SUM(amount), AVG(qty)" + w,
			memberSQL: "SELECT region, COUNT(*) AS n, SUM(amount) AS total, SUM(qty) AS q" + w,
			mergeSQL:  "SELECT region, SUM(n), SUM(total), SUM(q) FROM partials GROUP BY region",
		}
	case "topk":
		w := fmt.Sprintf(" FROM orders WHERE qty >= %d GROUP BY customer_id", 1+r.Intn(3))
		return analyticStmt{
			sql:       "SELECT customer_id, SUM(amount) AS total" + w + " ORDER BY total DESC LIMIT 10",
			memberSQL: "SELECT customer_id, SUM(amount) AS total" + w,
			mergeSQL:  "SELECT customer_id, SUM(total) AS total FROM partials GROUP BY customer_id ORDER BY total DESC LIMIT 10",
		}
	case "join":
		w := fmt.Sprintf(" FROM orders o JOIN customers c ON o.customer_id = c.customer_id WHERE o.amount > %d GROUP BY c.segment", r.Intn(100))
		return analyticStmt{
			sql:       "SELECT c.segment, COUNT(*), SUM(o.amount)" + w,
			memberSQL: "SELECT c.segment AS segment, COUNT(*) AS n, SUM(o.amount) AS total" + w,
			mergeSQL:  "SELECT segment, SUM(n), SUM(total) FROM partials GROUP BY segment",
		}
	default: // bcast
		sql := fmt.Sprintf("SELECT p.category, COUNT(*), SUM(o.amount) FROM orders o JOIN products p ON o.product_id = p.product_id WHERE o.amount > %d GROUP BY p.category", 450+r.Intn(30))
		return analyticStmt{sql: sql}
	}
}

// analyticRows is how many rows each class returns (bcast: one per category
// that occurs, which at 50 products is all of them).
func analyticRows(e *env, c int) int {
	switch analyticClasses[c] {
	case "filter":
		return 1
	case "groupby":
		return len(regions)
	case "topk":
		return 10
	case "join":
		return len(segments)
	default:
		return min(len(categories), e.sc.products)
	}
}

// analyticStream runs the five classes once per round, each round in a fresh
// seeded order. A fixed round-robin lets the two closed loops lock into one
// phase (which pairs of classes overlap on the two cores) for a whole run, and
// which phase depends on the seed: throughput then differs by 10 % between
// seeds while repeating to 1 % at one seed. Shuffled rounds average the
// phases inside every run.
func analyticStream(e *env, client int) *stream {
	r := clientRand(e, client)
	var order []int
	return &stream{
		next: func() op {
			if len(order) == 0 {
				order = r.Perm(len(analyticClasses))
			}
			c := order[0]
			order = order[1:]
			return query(analyticClasses[c], analyticSQL(c, r).sql, analyticRows(e, c))
		},
		boundary: func() bool { return len(order) == 0 },
	}
}

// ---------------------------------------------------------------------------
// wide_result
// ---------------------------------------------------------------------------

func wideSQL(lo, n int) string {
	return "SELECT id, customer_id, amount, qty, region, product_id FROM orders WHERE id >= " +
		strconv.Itoa(lo) + " AND id < " + strconv.Itoa(lo+n)
}

// wideOp is one buffered or streamed read of a uniform id window.
func wideOp(e *env, r *rand.Rand, streamed bool) (op, int) {
	lo := r.Intn(e.sc.orders - e.sc.wideRows)
	o := query("buffered", wideSQL(lo, e.sc.wideRows), e.sc.wideRows)
	if streamed {
		o.class, o.stream = classID("streamed"), true
	}
	return o, lo
}

// wideStream sends one buffered and one streamed statement per round, in a
// seeded order (a fixed alternation phase-locks the two clients, like
// analytic_mix's round-robin would).
func wideStream(e *env, client int) *stream {
	r := clientRand(e, client)
	pos, streamedFirst := 0, false
	return &stream{
		next: func() op {
			if pos%2 == 0 {
				streamedFirst = r.Intn(2) == 0
			}
			o, _ := wideOp(e, r, (pos%2 == 0) == streamedFirst)
			pos++
			return o
		},
		boundary: func() bool { return pos%2 == 0 },
	}
}

// ---------------------------------------------------------------------------
// elt_durable
// ---------------------------------------------------------------------------

// eltTables are one tenant's accelerator-only tables, in creation order; the
// model and score tables are created by the procedures.
var eltTables = []struct{ name, cols string }{
	{"RAW", "(id BIGINT NOT NULL, customer_id BIGINT NOT NULL, amount DOUBLE, qty BIGINT, region VARCHAR(8))"},
	{"S1", "(id BIGINT NOT NULL, customer_id BIGINT NOT NULL, amount DOUBLE, qty BIGINT)"},
	{"S2", "(customer_id BIGINT NOT NULL, n_orders BIGINT, total DOUBLE, avg_qty DOUBLE)"},
	{"FEAT", "(customer_id BIGINT NOT NULL, n_orders DOUBLE, total DOUBLE, avg_qty DOUBLE, age DOUBLE, income DOUBLE, label BIGINT)"},
}

func eltCreates(prefix string) []string {
	var out []string
	for _, t := range eltTables {
		out = append(out, "CREATE TABLE "+prefix+t.name+" "+t.cols+" IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(customer_id)")
	}
	return out
}

func tenantPrefix(tenant int) string { return "T" + strconv.Itoa(tenant) + "_" }

// loadELTData loads CUSTOMERS (stage 3 joins it) and creates both tenants'
// empty AOTs, so every cycle can end with DROP + CREATE and no DROP ever
// fails.
func loadELTData(e *env) error {
	if err := e.exec(ddlCustomers); err != nil {
		return err
	}
	if err := e.loadCSV("customers", customersCSV(e.seed, e.sc)); err != nil {
		return err
	}
	for t := 0; t < clientCount; t++ {
		if err := e.exec(eltCreates(tenantPrefix(t))...); err != nil {
			return err
		}
	}
	return nil
}

// eltLabelCut splits the per-customer totals of stage 2 roughly in half: a
// customer's expected total is its expected surviving rows times the mean
// surviving amount.
func eltLabelCut(sc scale) int {
	rowsPerKey := float64(sc.eltBatches*sc.eltBatchRows) / float64(sc.eltKeys)
	return int(rowsPerKey * 0.9 * 0.9 * 275)
}

// eltCycle renders one cycle of one tenant: ingest, three INSERT ... SELECT
// stages, train, score, read-back, then DROP and re-CREATE (which keeps table
// sizes, and so cycle time, steady — there is no MVCC vacuum). The row
// counts of every stage are predicted from the generated rows.
type eltCycle struct {
	ops      []op
	s1, feat int // predicted rows of stage 1 and of stages 2, 3 and the scores
}

// eltInsertSQL renders one ingest batch; it returns how many of its rows pass
// stage 1 and adds their customers to keys.
func eltInsertSQL(e *env, tenant, cycle, batch int, keys map[int64]bool) (string, int) {
	var sb strings.Builder
	sb.Grow(e.sc.eltBatchRows * 40)
	sb.WriteString("INSERT INTO " + tenantPrefix(tenant) + "RAW VALUES ")
	buf := make([]byte, 0, 64)
	passed := 0
	for i := 0; i < e.sc.eltBatchRows; i++ {
		n := batch*e.sc.eltBatchRows + i
		r := eltRowAt(e.seed, e.sc, tenant, cycle, n)
		if r.passesStage1() {
			passed++
			keys[r.customerID] = true
		}
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, '(')
		buf = strconv.AppendInt(buf, int64(n), 10)
		buf = append(buf, ", "...)
		buf = strconv.AppendInt(buf, r.customerID, 10)
		buf = append(buf, ", "...)
		buf = appendMoney(buf, r.amount)
		buf = append(buf, ", "...)
		buf = strconv.AppendInt(buf, r.qty, 10)
		buf = append(buf, ", '"...)
		buf = append(buf, r.region...)
		buf = append(buf, "')"...)
		sb.Write(buf)
	}
	return sb.String(), passed
}

func newELTCycle(e *env, tenant, cycle int) *eltCycle {
	p := tenantPrefix(tenant)
	c := &eltCycle{}
	keys := make(map[int64]bool)
	for b := 0; b < e.sc.eltBatches; b++ {
		sql, passed := eltInsertSQL(e, tenant, cycle, b, keys)
		c.s1 += passed
		o := execute("insert", sql, e.sc.eltBatchRows, e.sc.eltBatchRows)
		o.userBytes = len(sql)
		c.ops = append(c.ops, o)
	}
	c.feat = len(keys)
	c.ops = append(c.ops,
		execute("stage1", fmt.Sprintf("INSERT INTO %sS1 SELECT id, customer_id, amount, qty FROM %sRAW WHERE amount > %d AND qty >= %d", p, p, eltMinAmount, eltMinQty), c.s1, c.s1),
		execute("stage2", fmt.Sprintf("INSERT INTO %sS2 SELECT customer_id, COUNT(*), SUM(amount), AVG(qty) FROM %sS1 GROUP BY customer_id", p, p), c.feat, c.feat),
		execute("stage3", fmt.Sprintf("INSERT INTO %sFEAT SELECT a.customer_id, a.n_orders, a.total, a.avg_qty, c.age, c.income, CASE WHEN a.total > %d THEN 1 ELSE 0 END FROM %sS2 a JOIN customers c ON a.customer_id = c.customer_id", p, eltLabelCut(e.sc), p), c.feat, c.feat),
		execute("train", fmt.Sprintf("CALL IDAX.LOGISTIC_REGRESSION('%sFEAT', 'LABEL', 'N_ORDERS,TOTAL,AVG_QTY,AGE,INCOME', '%sMODEL', 40, 0.2)", p, p), c.feat, -1),
		execute("score", fmt.Sprintf("CALL IDAX.PREDICT('%sMODEL', '%sFEAT', 'CUSTOMER_ID', '%sSCORES')", p, p, p), c.feat, -1),
	)
	for _, rb := range []struct {
		table string
		want  int
	}{{"SCORES", c.feat}, {"FEAT", c.feat}, {"S1", c.s1}} {
		o := query("readback", "SELECT COUNT(*) FROM "+p+rb.table, 1)
		o.wantScalar = strconv.Itoa(rb.want)
		c.ops = append(c.ops, o)
	}
	for _, t := range []string{"RAW", "S1", "S2", "FEAT", "MODEL", "SCORES"} {
		c.ops = append(c.ops, execute("ddl", "DROP TABLE "+p+t, 0, -1))
	}
	for _, sql := range eltCreates(p) {
		c.ops = append(c.ops, execute("ddl", sql, 0, -1))
	}
	return c
}

// eltStream is tenant `client` looping cycles; a round is one cycle.
func eltStream(e *env, client int) *stream {
	var cur *eltCycle
	cycle, pos := 0, 0
	return &stream{
		next: func() op {
			if cur == nil || pos == len(cur.ops) {
				cur, pos = newELTCycle(e, client, cycle), 0
				cycle++
			}
			o := cur.ops[pos]
			pos++
			return o
		},
		boundary: func() bool { return cur == nil || pos == len(cur.ops) },
	}
}
