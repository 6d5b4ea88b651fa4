package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"idaax/internal/accel"
	"idaax/internal/colstore"
	"idaax/internal/expr"
	"idaax/internal/planner"
	"idaax/internal/relalg"
	"idaax/internal/shard"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
	"idaax/internal/vexec"
	"idaax/internal/vfs"
	"idaax/internal/wal"
)

// The traced pass. In-program spans are a later issue, so the per-layer times
// come from outside: a fixed seeded sample of statements is replayed by one
// client down a ladder of the layers' exported entry points —
//
//	wire.Client.Query -> Session.Exec -> sqlparse.Parse -> planner.PlanSelect
//	  -> shard.Router.Query -> accel.Accelerator.Query (per member)
//	  -> vexec.Plan.Run -> colstore.Table.ScanBatches
//
// — one span per rung. A layer's self time is its rung's median minus the
// rungs below it. The rungs are separate replays of the same statement, not
// nested spans of one execution; the README says what that approximates.

// Rung names, top to bottom.
const (
	rungClient = "wire.Client.Query"
	rungExec   = "idaax.Session.Exec"
	rungParse  = "sqlparse.Parse"
	rungPlan   = "planner.PlanSelect"
	rungShard  = "shard.Router.Query"
	rungAccel  = "accel.Accelerator.Query"
	rungRelalg = "relalg.ExecuteSelect"
	rungVexec  = "vexec.Plan.Run"
	rungScan   = "colstore.Table.ScanBatches"

	// The write side's rungs below Session.Exec.
	rungShardInsert = "shard.Router.Insert"
	rungColInsert   = "colstore.Table.Insert"
	rungWALAppend   = "wal.Log.Append"
	rungCheckpoint  = "System.Checkpoint"
)

// span is one traced interval, as trace-<workload>.json lists them.
type span struct {
	TraceID int64            `json:"trace_id"`
	Name    string           `json:"name"`
	Layer   string           `json:"layer"`
	Parent  string           `json:"parent,omitempty"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch     time.Time
	nextTrace int64
	spans     []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// clientSpans turns the traced window's statements, as their clients saw
// them, into spans.
func (t *tracer) clientSpans(w *window) {
	for _, s := range w.samples {
		t.nextTrace++
		start := s.start.Sub(t.epoch).Nanoseconds()
		t.spans = append(t.spans, span{
			TraceID: t.nextTrace,
			Name:    rungClient,
			Layer:   "wire",
			StartNS: start,
			EndNS:   start + s.dur.Nanoseconds(),
			Counts:  map[string]int64{"class": int64(s.class), "client": int64(s.client), "rows": int64(s.rows), "chunks": int64(s.chunks)},
		})
	}
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Classes  []string `json:"classes"`
		Spans    []span   `json:"spans"`
	}{workload, classNames, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}

// ladderResult is what the replay measured.
type ladderResult struct {
	// rungs holds each rung's durations in µs, per statement class.
	rungs map[int]map[string][]float64
	// n is how many statements of each class were replayed.
	n map[int]int

	// The client rung's replay, bracketed by snapshots: the exact counts.
	before, after  snapshot
	stmts, rowsOut int
	chunks         int

	parseAllocs, planAllocs, vexecAllocs []float64 // mallocs per call
	vexecRowsPerUS                       []float64
	memberSkew                           []float64 // slowest member ÷ mean member

	shardInsertRowsPerS, colInsertRowsPerS []float64

	// The CALL statements of the replay (ELT), and what they alone moved.
	procCalls int
	procRoute route
}

// ladder drives one replay.
type ladder struct {
	e   *env
	t   *tracer
	res *ladderResult
}

func newLadder(e *env, t *tracer) *ladder {
	return &ladder{e: e, t: t, res: &ladderResult{rungs: map[int]map[string][]float64{}, n: map[int]int{}}}
}

// rung times fn, records its span and files the duration under the class.
func (l *ladder) rung(trace int64, class int, name, layer, parent string, counts map[string]int64, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	l.record(trace, class, name, layer, parent, counts, start, time.Since(start))
	return nil
}

// memberRung is a rung that runs on the members: its time is the slowest
// member's, which is what a scatter waits for.
func (l *ladder) memberRung(trace int64, class int, name, layer, parent string, ms []*accel.Accelerator, fn func(i int, m *accel.Accelerator) error) ([]time.Duration, error) {
	start := time.Now()
	each := make([]time.Duration, len(ms))
	var slowest time.Duration
	for i, m := range ms {
		t0 := time.Now()
		if err := fn(i, m); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", name, m.Name(), err)
		}
		each[i] = time.Since(t0)
		slowest = max(slowest, each[i])
	}
	l.record(trace, class, name, layer, parent, map[string]int64{"members": int64(len(ms))}, start, slowest)
	return each, nil
}

func (l *ladder) record(trace int64, class int, name, layer, parent string, counts map[string]int64, start time.Time, d time.Duration) {
	s := start.Sub(l.t.epoch).Nanoseconds()
	l.t.spans = append(l.t.spans, span{TraceID: trace, Name: name, Layer: layer, Parent: parent, StartNS: s, EndNS: s + d.Nanoseconds(), Counts: counts})
	if l.res.rungs[class] == nil {
		l.res.rungs[class] = map[string][]float64{}
	}
	l.res.rungs[class][name] = append(l.res.rungs[class][name], float64(d.Nanoseconds())/1000)
}

// mallocs counts the heap allocations fn makes. Only this goroutine runs.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// replayed is one statement of the fixed sample with the forms its path needs.
type replayed struct {
	o    op
	path string // pruned, gather, twophase, colocated or broadcast
	// memberSQL is what each member runs (empty: the statement itself);
	// mergeSQL is what the coordinator runs over the members' partials.
	memberSQL, mergeSQL string
}

// clientPass replays the whole sample through the wire client, bracketed by
// counter snapshots: every exact count of the ledger comes from here.
func (l *ladder) clientPass(ops []op) (first int64, err error) {
	first = l.t.nextTrace + 1
	l.t.nextTrace += int64(len(ops))
	l.res.before = l.e.snapshot()
	for i, o := range ops {
		isCall := strings.HasPrefix(o.sql, "CALL ")
		var beforeCall snapshot
		if isCall {
			beforeCall = l.e.snapshot()
		}
		var smp sample
		err := l.rung(first+int64(i), o.class, rungClient, "wire", "", nil, func() (err error) {
			smp, _, err = l.e.clients[0].do(o, false)
			return err
		})
		if err != nil {
			return 0, err
		}
		if isCall {
			l.res.procCalls++
			l.res.procRoute.add(routeBetween(beforeCall, l.e.snapshot()))
		}
		l.res.n[o.class]++
		l.res.stmts++
		if !o.exec {
			l.res.rowsOut += smp.rows
		}
		l.res.chunks += smp.chunks
	}
	l.res.after = l.e.snapshot()
	return first, nil
}

// replaySelects takes the sample down the read ladder.
func (l *ladder) replaySelects(stmts []replayed) (*ladderResult, error) {
	ops := make([]op, len(stmts))
	for i, st := range stmts {
		ops[i] = st.o
	}
	first, err := l.clientPass(ops)
	if err != nil {
		return l.res, err
	}
	for i, st := range stmts {
		if err := l.descend(first+int64(i), st); err != nil {
			return l.res, fmt.Errorf("%s: %w", clip(st.o.sql), err)
		}
	}
	return l.res, nil
}

func parseSelect(sql string) (*sqlparse.SelectStmt, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", clip(sql))
	}
	return sel, nil
}

// pushedPredicates rebuilds the simple conjuncts the accelerator pushes into
// the scan of one FROM item (its own extraction is not exported).
func pushedPredicates(sel *sqlparse.SelectStmt, item sqlparse.FromItem, schema types.Schema) []colstore.SimplePredicate {
	var preds []colstore.SimplePredicate
	var visit func(e sqlparse.Expr)
	visit = func(e sqlparse.Expr) {
		b, ok := e.(*sqlparse.BinaryExpr)
		if !ok {
			return
		}
		if b.Op == sqlparse.OpAnd {
			visit(b.Left)
			visit(b.Right)
			return
		}
		ref, lit, op, ok := vexec.SimpleComparison(b)
		if !ok || (ref.Table != "" && !strings.EqualFold(ref.Table, item.Name())) {
			return
		}
		if idx := schema.IndexOf(ref.Name); idx >= 0 {
			preds = append(preds, colstore.NewSimplePredicate(idx, op, lit))
		}
	}
	if sel.Where != nil {
		visit(sel.Where)
	}
	return preds
}

// descend replays one SELECT on every rung below the client.
func (l *ladder) descend(trace int64, st replayed) error {
	e, class, sql := l.e, st.o.class, st.o.sql
	sess := e.sys.Session(benchUser)
	if err := l.rung(trace, class, rungExec, "federation", rungClient, nil, func() error {
		_, err := sess.Exec(sql)
		return err
	}); err != nil {
		return err
	}

	var sel *sqlparse.SelectStmt
	if err := l.rung(trace, class, rungParse, "sqlparse", rungExec, nil, func() (err error) {
		sel, err = parseSelect(sql)
		return err
	}); err != nil {
		return err
	}
	l.res.parseAllocs = append(l.res.parseAllocs, mallocs(func() { _, _ = sqlparse.Parse(sql) }))

	var pl *planner.Plan
	cat := e.router.PlannerCatalog()
	if err := l.rung(trace, class, rungPlan, "planner", rungShard, nil, func() error {
		pl = planner.PlanSelect(sel, cat)
		return nil
	}); err != nil {
		return err
	}
	l.res.planAllocs = append(l.res.planAllocs, mallocs(func() { planner.PlanSelect(sel, cat) }))

	var result *relalg.Relation
	if err := l.rung(trace, class, rungShard, "shard", rungExec, nil, func() (err error) {
		result, err = e.router.Query(0, sel)
		return err
	}); err != nil {
		return err
	}

	// The members the statement reaches, and what each of them runs.
	ms := e.router.Members()
	if st.path == "pruned" {
		if len(pl.Candidates) != 1 {
			return fmt.Errorf("planner did not prune to one shard")
		}
		ms = ms[pl.Candidates[0] : pl.Candidates[0]+1]
	}
	msel := sel
	if st.memberSQL != "" {
		var err error
		if msel, err = parseSelect(st.memberSQL); err != nil {
			return err
		}
	}
	opts := relalg.Options{Parallelism: e.router.Slices()}

	// accel: every member's share.
	partials := make([]*relalg.Relation, len(ms))
	gathered := make([][]types.Row, len(ms))
	overrides := map[string]*relalg.Relation{}
	if st.path == "broadcast" {
		// The router gathers each broadcast table once, before the scatter.
		for i, scan := range pl.Scans {
			if !scan.Broadcast {
				continue
			}
			item := pl.Sel.From[i]
			var rows []types.Row
			for _, m := range ms {
				part, err := m.ScanVisible(m.Registry.Snapshot(0), item.Table, pl.Sel, item)
				if err != nil {
					return err
				}
				rows = append(rows, part...)
			}
			overrides[types.NormalizeName(item.Name())] = relalg.FromTable(item.Name(), scan.Info.Schema, rows)
		}
	}
	each, err := l.memberRung(trace, class, rungAccel, "accel", rungShard, ms, func(i int, m *accel.Accelerator) (err error) {
		switch st.path {
		case "gather":
			gathered[i], err = m.ScanVisible(m.Registry.Snapshot(0), sel.From[0].Table, sel, sel.From[0])
		case "broadcast":
			partials[i], err = m.BuildFromRelation(0, m.Registry.Snapshot(0), pl.Sel, overrides, pl.Methods)
		default:
			partials[i], err = m.Query(0, msel)
		}
		return err
	})
	if err != nil {
		return err
	}
	var slowest, total time.Duration
	for _, d := range each {
		slowest = max(slowest, d)
		total += d
	}
	if total > 0 {
		l.res.memberSkew = append(l.res.memberSkew, float64(slowest)*float64(len(each))/float64(total))
	}

	// relalg: what the coordinator runs over what the members handed it.
	var from *relalg.Relation
	coordSel := sel
	switch st.path {
	case "gather":
		var rows []types.Row
		for _, part := range gathered {
			rows = append(rows, part...)
		}
		t, err := ms[0].Table(sel.From[0].Table)
		if err != nil {
			return err
		}
		from = relalg.FromTable(sel.From[0].Name(), t.Schema(), rows)
	case "broadcast":
		from, coordSel = &relalg.Relation{Cols: partials[0].Cols}, pl.Sel
		for _, p := range partials {
			from.Rows = append(from.Rows, p.Rows...)
		}
	case "twophase", "colocated":
		var rows []types.Row
		for _, p := range partials {
			rows = append(rows, p.Rows...)
		}
		from = relalg.FromTable("partials", partials[0].Schema(), rows)
		var err error
		if coordSel, err = parseSelect(st.mergeSQL); err != nil {
			return err
		}
	}
	if from != nil {
		counts := map[string]int64{"rows_in": int64(len(from.Rows))}
		var merged *relalg.Relation
		if err := l.rung(trace, class, rungRelalg, "relalg", rungShard, counts, func() (err error) {
			merged, err = relalg.ExecuteSelect(from, coordSel, opts)
			return err
		}); err != nil {
			return err
		}
		if len(merged.Rows) != len(result.Rows) {
			return fmt.Errorf("the ladder's merge returns %d rows, the router %d", len(merged.Rows), len(result.Rows))
		}
	}

	// vexec: the members' batch plans, on the paths that use the engine.
	if st.path == "pruned" || st.path == "twophase" || st.path == "colocated" {
		rows := 0
		run := func(_ int, m *accel.Accelerator) error {
			n, err := runVexec(m, msel)
			rows += n
			return err
		}
		each, err := l.memberRung(trace, class, rungVexec, "vexec", rungAccel, ms, run)
		if err != nil {
			return err
		}
		var spent time.Duration
		for _, d := range each {
			spent += d
		}
		l.res.vexecRowsPerUS = append(l.res.vexecRowsPerUS, float64(rows)/(float64(spent.Nanoseconds())/1000))
		l.res.vexecAllocs = append(l.res.vexecAllocs, mallocs(func() { _ = run(0, ms[0]) }))
	}

	// colstore: the scans alone, with the predicates the accelerator pushes.
	parent := rungVexec
	if st.path == "gather" || st.path == "broadcast" {
		parent = rungAccel
	}
	_, err = l.memberRung(trace, class, rungScan, "colstore", parent, ms, func(_ int, m *accel.Accelerator) error {
		vis := m.Registry.Snapshot(0).Visible
		for _, item := range msel.From {
			t, err := m.Table(item.Table)
			if err != nil {
				return err
			}
			preds := pushedPredicates(msel, item, t.Schema())
			if parent == rungAccel {
				t.ScanMaterialize(1, vis, preds)
				continue
			}
			if _, err := t.ScanBatches(1, vis, preds, func(int, *colstore.Batch) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// runVexec plans and runs one member's share on the batch engine, returning
// the row versions it considered.
func runVexec(m *accel.Accelerator, sel *sqlparse.SelectStmt) (int, error) {
	vis := m.Registry.Snapshot(0).Visible
	if len(sel.From) == 1 {
		t, err := m.Table(sel.From[0].Table)
		if err != nil {
			return 0, err
		}
		plan, ok := vexec.PlanQuery(sel, t.Schema())
		if !ok {
			return 0, fmt.Errorf("vexec declined the statement")
		}
		_, stats, err := plan.Run(t, m.Slices(), vis)
		return stats.VersionsConsidered, err
	}
	pl, err := m.Explain(sel)
	if err != nil {
		return 0, err
	}
	lt, err := m.Table(pl.Sel.From[0].Table)
	if err != nil {
		return 0, err
	}
	rt, err := m.Table(pl.Sel.From[1].Table)
	if err != nil {
		return 0, err
	}
	plan, ok := vexec.PlanJoin(pl.Sel, lt.Schema(), rt.Schema(), pl.Methods[0])
	if !ok {
		return 0, fmt.Errorf("vexec declined the join")
	}
	_, stats, err := plan.Run(lt, rt, m.Slices(), vis)
	return stats.Total().VersionsConsidered, err
}

// ladderRand seeds the fixed sample; it differs from every client's stream.
func ladderRand(e *env) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(e.seed, streamClient, 2<<32))))
}

func pointLadder(e *env, t *tracer) (*ladderResult, error) {
	r := ladderRand(e)
	var stmts []replayed
	for i := 0; i < e.sc.ladderPoint; i++ {
		o, _ := pointOp(e, r)
		path := "pruned"
		if classNames[o.class] == "range" {
			path = "gather"
		}
		stmts = append(stmts, replayed{o: o, path: path})
	}
	return newLadder(e, t).replaySelects(stmts)
}

func analyticLadder(e *env, t *tracer) (*ladderResult, error) {
	r := ladderRand(e)
	paths := map[string]string{"filter": "twophase", "groupby": "twophase", "topk": "twophase", "join": "colocated", "bcast": "broadcast"}
	var stmts []replayed
	for i := 0; i < e.sc.ladderClass; i++ {
		for c, class := range analyticClasses {
			a := analyticSQL(c, r)
			stmts = append(stmts, replayed{
				o:         query(class, a.sql, analyticRows(e, c)),
				path:      paths[class],
				memberSQL: a.memberSQL, mergeSQL: a.mergeSQL,
			})
		}
	}
	return newLadder(e, t).replaySelects(stmts)
}

func wideLadder(e *env, t *tracer) (*ladderResult, error) {
	r := ladderRand(e)
	var stmts []replayed
	for i := 0; i < e.sc.ladderWide; i++ {
		o, _ := wideOp(e, r, i%2 == 1)
		stmts = append(stmts, replayed{o: o, path: "gather"})
	}
	return newLadder(e, t).replaySelects(stmts)
}

// eltLadder replays whole cycles of tenant 0 through the client, then takes
// a sample of the cycle's INSERT batches down the write ladder. Below
// Session.Exec the rungs run on scratch objects built from the layers' public
// constructors (an in-memory router, a bare column table, a log of its own),
// so they time the layer and leave the system's tables as the stream expects
// them. The INSERT ... SELECT stages and the CALLs stop at the client rung:
// replaying them in process would write their rows twice.
func eltLadder(e *env, t *tracer) (*ladderResult, error) {
	l := newLadder(e, t)
	var ops []op
	var inserts []op
	for c := 0; c < e.sc.ladderCycles; c++ {
		cyc := newELTCycle(e, 0, 2<<20+c)
		ops = append(ops, cyc.ops...)
		inserts = append(inserts, cyc.ops[:min(10, e.sc.eltBatches)]...)
	}
	first, err := l.clientPass(ops)
	if err != nil {
		return l.res, err
	}

	const scratch = "T0_SCRATCH"
	raw := tenantPrefix(0) + "RAW"
	if err := e.exec(strings.Replace(eltCreates(tenantPrefix(0))[0], raw, scratch, 1)); err != nil {
		return l.res, err
	}
	live, err := e.router.Members()[0].Table(scratch)
	if err != nil {
		return l.res, err
	}
	schema := live.Schema()
	members := []*accel.Accelerator{accel.New("L0", 1), accel.New("L1", 1), accel.New("L2", 1)}
	router, err := shard.NewRouter("LADDER", members)
	if err != nil {
		return l.res, err
	}
	if err := router.CreateTable(scratch, schema, "CUSTOMER_ID"); err != nil {
		return l.res, err
	}
	bare := colstore.NewTable(scratch, schema, "CUSTOMER_ID")

	sess := e.sys.Session(benchUser)
	class := classID("insert")
	for i, o := range inserts {
		trace := first + int64(i) // the span joins the trace of a replayed INSERT
		sql := strings.Replace(o.sql, raw, scratch, 1)
		if err := l.rung(trace, class, rungExec, "federation", rungClient, nil, func() error {
			_, err := sess.Exec(sql)
			return err
		}); err != nil {
			return l.res, err
		}
		var rows []types.Row
		if err := l.rung(trace, class, rungParse, "sqlparse", rungExec, nil, func() error {
			st, err := sqlparse.Parse(sql)
			if err != nil {
				return err
			}
			ins := st.(*sqlparse.InsertStmt)
			rows, err = expr.BuildInsertRows(ins.Columns, ins.Rows, schema)
			return err
		}); err != nil {
			return l.res, err
		}
		l.res.parseAllocs = append(l.res.parseAllocs, mallocs(func() { _, _ = sqlparse.Parse(sql) }))
		txn := int64(i + 1)
		t0 := time.Now()
		if err := l.rung(trace, class, rungShardInsert, "shard", rungExec, nil, func() error {
			_, err := router.Insert(txn, scratch, rows)
			router.CommitTxn(txn)
			return err
		}); err != nil {
			return l.res, err
		}
		l.res.shardInsertRowsPerS = append(l.res.shardInsertRowsPerS, float64(len(rows))/time.Since(t0).Seconds())
		t0 = time.Now()
		if err := l.rung(trace, class, rungColInsert, "colstore", rungShardInsert, nil, func() error {
			_, err := bare.Insert(txn, rows)
			return err
		}); err != nil {
			return l.res, err
		}
		l.res.colInsertRowsPerS = append(l.res.colInsertRowsPerS, float64(len(rows))/time.Since(t0).Seconds())
	}
	if err := e.exec("DROP TABLE " + scratch); err != nil {
		return l.res, err
	}

	// wal: durable appends of the workload's mean record size to a log of the
	// ladder's own, under the workload's flush policy.
	walBytes := l.res.after.wal.Bytes - l.res.before.wal.Bytes
	walRecords := l.res.after.wal.Records - l.res.before.wal.Records
	if walRecords > 0 {
		log, err := wal.Open(vfs.OS(e.dataDir), "ladder-wal", 1, wal.SyncAlways, 0)
		if err != nil {
			return l.res, err
		}
		payload := make([]byte, walBytes/walRecords)
		for i := 0; i < 200; i++ {
			if err := l.rung(first, class, rungWALAppend, "wal", rungExec, nil, func() error { return log.Append(payload, true) }); err != nil {
				_ = log.Close() // the append error is the one to report
				return l.res, err
			}
		}
		if err := log.Close(); err != nil {
			return l.res, err
		}
		if err := os.RemoveAll(filepath.Join(e.dataDir, "ladder-wal")); err != nil {
			return l.res, err
		}
	}

	// durable: forced checkpoints of the system as the replay left it.
	for i := 0; i < 3; i++ {
		if err := l.rung(first, noClass, rungCheckpoint, "durable", "", nil, e.sys.Checkpoint); err != nil {
			return l.res, err
		}
	}
	return l.res, nil
}
