package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The output and route oracle. Before anything is timed, every statement
// class is checked twice: its rows against what the generator (or the row
// engine) says they must be, and its path against the router's and members'
// public counters — a class that silently changes path fails the run instead
// of measuring something else.

// route is what one statement moved in the public counters.
type route struct {
	pruned, twoPhase, frames, frameBytes int64
	colocated, broadcast                 int64
	gathered, scansAvoided               int64
	fallbacks, vectorized, queriesRun    int64
	rowsScanned, blocksPruned            int64
	scatters, partials, writtenLocal     int64
}

func routeBetween(a, b snapshot) route {
	return route{
		pruned:       b.shard.QueriesPruned - a.shard.QueriesPruned,
		twoPhase:     b.shard.TwoPhaseAggregates - a.shard.TwoPhaseAggregates,
		frames:       b.shard.TwoPhaseFrames - a.shard.TwoPhaseFrames,
		frameBytes:   b.shard.TwoPhaseFrameBytes - a.shard.TwoPhaseFrameBytes,
		colocated:    b.shard.ColocatedJoins - a.shard.ColocatedJoins,
		broadcast:    b.shard.BroadcastJoins - a.shard.BroadcastJoins,
		gathered:     b.shard.RowsGathered - a.shard.RowsGathered,
		scansAvoided: b.shard.ShardScansAvoided - a.shard.ShardScansAvoided,
		fallbacks:    b.shard.Group.VexecFallbacks - a.shard.Group.VexecFallbacks,
		vectorized:   b.shard.Group.VectorizedQueries - a.shard.Group.VectorizedQueries,
		queriesRun:   b.shard.Group.QueriesRun - a.shard.Group.QueriesRun,
		rowsScanned:  b.shard.Group.RowsScanned - a.shard.Group.RowsScanned,
		blocksPruned: b.shard.Group.BlocksPruned - a.shard.Group.BlocksPruned,
		scatters:     b.shard.AnalyticsScatters - a.shard.AnalyticsScatters,
		partials:     b.shard.AnalyticsPartials - a.shard.AnalyticsPartials,
		writtenLocal: b.shard.AnalyticsRowsWrittenLocal - a.shard.AnalyticsRowsWrittenLocal,
	}
}

// add accumulates the counters the ledger reads per procedure call.
func (r *route) add(o route) {
	r.gathered += o.gathered
	r.scatters += o.scatters
	r.partials += o.partials
	r.writtenLocal += o.writtenLocal
}

// observe runs one statement on client 0 and returns its rows and route.
func (e *env) observe(o op) ([][]string, route, error) {
	before := e.snapshot()
	_, rows, err := e.clients[0].do(o, true)
	return rows, routeBetween(before, e.snapshot()), err
}

func wantRoute(class string, checks ...bool) error {
	for i, ok := range checks {
		if !ok {
			return fmt.Errorf("%s left its intended path (route check %d)", class, i+1)
		}
	}
	return nil
}

func customerCells(seed int64, id int) []string {
	c := customerRow(seed, id)
	return []string{c.segment, strconv.FormatInt(c.age, 10), renderFloat(c.income)}
}

// sameRows compares two result sets as multisets; numeric cells may differ in
// the last bits (two engines sum in different orders).
func sameRows(got, want [][]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	key := func(rows [][]string) func(i, j int) bool {
		return func(i, j int) bool { return strings.Join(rows[i], "\x00") < strings.Join(rows[j], "\x00") }
	}
	got, want = append([][]string(nil), got...), append([][]string(nil), want...)
	sort.Slice(got, key(got))
	sort.Slice(want, key(want))
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] == want[i][j] {
				continue
			}
			g, gerr := strconv.ParseFloat(got[i][j], 64)
			w, werr := strconv.ParseFloat(want[i][j], 64)
			if gerr != nil || werr != nil || math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
				return fmt.Errorf("row %d cell %d is %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func oracleRand(e *env) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(e.seed, streamClient, 1<<32))))
}

// pointOracle: point and range rows equal the generator's rows; a point read
// is answered by one shard, a range gathers its rows from all of them. (At
// point_lookup's table size a shard is one zone-map block, so there is no
// block pruning to assert.)
func pointOracle(e *env) error {
	r := oracleRand(e)
	seen := map[int]int{}
	for seen[classID("point")] < 20 || seen[classID("range")] < 20 {
		o, key := pointOp(e, r)
		seen[o.class]++
		rows, rt, err := e.observe(o)
		if err != nil {
			return err
		}
		var want [][]string
		for id := key; id < key+o.wantRows; id++ {
			want = append(want, customerCells(e.seed, id))
		}
		if err := sameRows(rows, want); err != nil {
			return fmt.Errorf("%s: %w", o.sql, err)
		}
		if classNames[o.class] == "point" {
			err = wantRoute("point", rt.pruned == 1, rt.queriesRun == 1, rt.fallbacks == 0)
		} else {
			err = wantRoute("range", rt.pruned == 0, rt.gathered == rangeWidth, rt.fallbacks == 0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// analyticOracle: every class equals the same statement on the row engine,
// and takes its intended plan (two-phase, co-located, broadcast) without a
// vexec fallback.
func analyticOracle(e *env) error {
	r := oracleRand(e)
	for c, class := range analyticClasses {
		o := query(class, analyticSQL(c, r).sql, analyticRows(e, c))
		rows, rt, err := e.observe(o)
		if err != nil {
			return err
		}
		e.sys.SetVectorizedExecution(false)
		want, _, err := e.observe(o)
		e.sys.SetVectorizedExecution(true)
		if err != nil {
			return err
		}
		if err := sameRows(rows, want); err != nil {
			return fmt.Errorf("%s: vectorized differs from the row engine: %w", o.sql, err)
		}
		members := int64(len(e.router.Members()))
		switch class {
		case "filter", "groupby", "topk":
			err = wantRoute(class, rt.twoPhase == 1, rt.frames == members, rt.vectorized == members, rt.fallbacks == 0)
		case "join":
			err = wantRoute(class, rt.twoPhase == 1, rt.colocated == 1, rt.broadcast == 0, rt.vectorized == members, rt.fallbacks == 0)
		case "bcast":
			err = wantRoute(class, rt.broadcast == 1, rt.colocated == 1, rt.fallbacks == 0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// wideOracle: exactly wideRows rows with the generator's content, buffered
// and streamed alike, gathered from all shards after zone-map pruning.
func wideOracle(e *env) error {
	r := oracleRand(e)
	for i := 0; i < 4; i++ {
		o, lo := wideOp(e, r, i%2 == 1)
		rows, rt, err := e.observe(o)
		if err != nil {
			return err
		}
		want := make([][]string, 0, e.sc.wideRows)
		for id := lo; id < lo+e.sc.wideRows; id++ {
			od := orderRow(e.seed, e.sc, id)
			want = append(want, []string{strconv.Itoa(id), strconv.FormatInt(od.customerID, 10), renderFloat(od.amount),
				strconv.FormatInt(od.qty, 10), od.region, strconv.FormatInt(od.productID, 10)})
		}
		if err := sameRows(rows, want); err != nil {
			return fmt.Errorf("%s (streamed=%v): %w", o.sql, o.stream, err)
		}
		if err := wantRoute(classNames[o.class], rt.pruned == 0, rt.gathered == int64(e.sc.wideRows), rt.blocksPruned > 0, rt.fallbacks == 0); err != nil {
			return err
		}
	}
	return nil
}

// eltOracle runs one whole cycle per tenant with every predicted row count
// checked, and asserts training and scoring ran shard-local.
func eltOracle(e *env) error {
	for t := 0; t < clientCount; t++ {
		cyc := newELTCycle(e, t, 0)
		before := e.snapshot()
		for _, o := range cyc.ops {
			if _, _, err := e.clients[t].do(o, false); err != nil {
				return err
			}
		}
		rt := routeBetween(before, e.snapshot())
		members := int64(len(e.router.Members()))
		if err := wantRoute("train/score", rt.scatters >= 2, rt.partials == rt.scatters*members,
			rt.writtenLocal == int64(cyc.feat), rt.fallbacks == 0); err != nil {
			return err
		}
	}
	return nil
}

// eltReopenOracle fills tenant 0's tables once more, closes the system,
// recovers it from disk and checks that every stage still has the predicted
// row count. It returns how long recovery took.
func eltReopenOracle(e *env) (reopenMS float64, err error) {
	cyc := newELTCycle(e, 0, 1<<20)
	var readbacks []op
	for _, o := range cyc.ops {
		if classNames[o.class] == "ddl" {
			break
		}
		if classNames[o.class] == "readback" {
			readbacks = append(readbacks, o)
		}
		if _, _, err := e.clients[0].do(o, false); err != nil {
			return 0, err
		}
	}
	took, err := e.reopen()
	if err != nil {
		return 0, err
	}
	s := e.sys.AdminSession()
	for _, o := range readbacks {
		res, err := s.Exec(o.sql)
		if err != nil {
			return 0, fmt.Errorf("after reopen: %s: %w", o.sql, err)
		}
		if got := res.Rows[0][0]; got != o.wantScalar {
			return 0, fmt.Errorf("after reopen: %s is %s, want %s", o.sql, got, o.wantScalar)
		}
	}
	return float64(took.Microseconds()) / 1000, nil
}
