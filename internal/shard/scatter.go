package shard

import (
	"fmt"
	"slices"
	"sync/atomic"

	"idaax/internal/accel"
	"idaax/internal/obs"
	"idaax/internal/par"
	"idaax/internal/planner"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// Query executes a SELECT across the shard fleet. The cost-based planner
// (internal/planner) decides among four strategies:
//
//  1. Shard pruning: distribution-key predicates (equality, IN lists, and
//     bounded integer ranges) restrict the statement to the shards that can
//     hold matching rows; when a single shard remains, the whole statement —
//     aggregation and ordering included — runs there. While a table is
//     migrating, pruning is restricted to keys whose owner every active
//     placement map agrees on (double-routing); moved keys scan all
//     candidates, so no in-flight row is ever missed.
//  2. Co-located execution: when every table is hash-distributed and joined
//     on its distribution key, the joins run entirely shard-local; grouped
//     queries additionally split into per-shard partial aggregation with
//     finalisation at the coordinator (two-phase), so only group rows travel.
//     A single table is trivially co-located: every candidate shard applies
//     the WHERE clause exactly and the coordinator runs the rest of the
//     statement over the union without filtering again.
//  3. Broadcast: when part of the join graph is co-located, the remaining
//     (smaller) tables are replicated to every participating shard and the
//     join still runs shard-local.
//  4. Scatter-gather: base rows of every referenced table are gathered from
//     the candidate shards in parallel (simple WHERE conjuncts pushed into
//     each shard's columnar scans) and the full statement executes on the
//     union at the coordinator — the general fallback.
//
// All plans return results identical to running the same statement on a
// single accelerator holding all rows — including while a rebalance is
// migrating rows, because batch moves commit atomically under the router's
// commit fence. If the fleet membership changes under a running statement
// (member detached, shifting shard ordinals), the statement transparently
// retries against the new view.
func (r *Router) Query(txnID int64, sel *sqlparse.SelectStmt) (*relalg.Relation, error) {
	return r.QueryTraced(txnID, sel, nil)
}

// QueryTraced is Query with a trace span (see accel.Backend.QueryTraced).
// Each rebalance-racing retry runs under its own "attempt" child so the trace
// shows the discarded execution alongside the one whose result was returned;
// the retries attribute on sp counts them. sp may be nil.
func (r *Router) QueryTraced(txnID int64, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	const maxRetries = 8
	for attempt := 0; ; attempt++ {
		epoch := r.Epoch()
		asp := sp
		if attempt > 0 {
			sp.Add(obs.KeyRetries, 1)
			asp = sp.Child("attempt")
		}
		rel, err := r.queryOnce(txnID, sel, asp)
		if asp != sp {
			asp.Finish()
		}
		if r.Epoch() == epoch || attempt >= maxRetries {
			return rel, err
		}
		// Membership changed while the statement ran; its shard ordinals may
		// be stale, so run it again on the settled view.
	}
}

func (r *Router) queryOnce(txnID int64, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	atomic.AddInt64(&r.stats.QueriesRouted, 1)
	psp := sp.Child("plan")
	pl := planner.PlanSelect(sel, r.PlannerCatalog())
	psp.Finish()
	if pl == nil {
		// Nothing to plan (no FROM clause): the coordinator evaluates it.
		return r.executeGather(txnID, sel, nil, sp)
	}
	return r.executePlanned(txnID, sel, pl, sp)
}

// queryOneShard runs the whole statement on a single member (the pruned fast
// path) under a per-shard trace span.
func (r *Router) queryOneShard(txnID int64, sel *sqlparse.SelectStmt, m *accel.Accelerator, sp *obs.Span) (*relalg.Relation, error) {
	ssp := sp.Child("shard")
	ssp.Label(obs.LabelShard, m.Name())
	rel, err := m.QueryTraced(txnID, sel, ssp)
	ssp.Finish()
	return rel, err
}

// executePlanned runs a SELECT according to the planner's placement decision.
func (r *Router) executePlanned(txnID int64, sel *sqlparse.SelectStmt, pl *planner.Plan, sp *obs.Span) (*relalg.Relation, error) {
	r.noteAvoidedScans(pl)
	switch pl.Placement {
	case planner.PlacementColocated, planner.PlacementBroadcast:
		return r.executeShardLocal(txnID, sel, pl, sp)
	default:
		// Gather; single-table statements never land here (the planner marks
		// them co-located), so no two-phase opportunity is lost.
		return r.executeGather(txnID, sel, pl, sp)
	}
}

// participantsOf maps the plan's candidate shard set to member ordinals
// (nil candidates = every member). An empty candidate set — a provably
// unsatisfiable distribution-key predicate — collapses to shard 0, which
// returns the correct empty (or zero-aggregate) result shape.
func participantsOf(total int, candidates []int, empty bool) []int {
	if empty {
		return []int{0}
	}
	if candidates == nil {
		return allOrdinals(total)
	}
	out := make([]int, 0, len(candidates))
	for _, s := range candidates {
		if s >= 0 && s < total {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return []int{0}
	}
	return out
}

func allOrdinals(total int) []int {
	out := make([]int, total)
	for i := range out {
		out[i] = i
	}
	return out
}

// noteAvoidedScans accounts the per-table shard scans the plan's candidate
// sets eliminate.
func (r *Router) noteAvoidedScans(pl *planner.Plan) {
	total := len(r.Members())
	avoided := 0
	for _, scan := range pl.Scans {
		if !scan.Known {
			continue
		}
		if scan.EmptyCandidates {
			avoided += total - 1 // still touches one shard for the result shape
		} else if scan.Candidates != nil {
			avoided += total - len(scan.Candidates)
		}
	}
	if avoided > 0 {
		atomic.AddInt64(&r.stats.ShardScansAvoided, int64(avoided))
	}
}

// localRoute is how executeShardLocal runs a co-located plan over n members,
// and Explain reads it too, so EXPLAIN reports what the members run. With a
// single remaining shard, fast is its ordinal: the whole statement —
// aggregation, ordering, limits — is answerable by that shard alone (and by
// its own snapshot), so the hot pruned path skips the fleet-wide snapshot
// set entirely. Otherwise a grouped statement two-phase accepts runs as
// per-shard partial aggregates (twoPhase), and any other statement, like
// every broadcast plan, builds the FROM relation on each participant (fast
// -1, twoPhase nil).
func localRoute(sel *sqlparse.SelectStmt, pl *planner.Plan, n int) (fast int, twoPhase *twoPhasePlan) {
	if pl.Placement != planner.PlacementColocated {
		return -1, nil
	}
	if p := participantsOf(n, pl.Candidates, pl.EmptyCandidates); len(p) == 1 {
		return p[0], nil
	}
	if relalg.NeedsAggregation(sel) {
		if plan, ok := planTwoPhase(sel); ok {
			return -1, plan
		}
	}
	return -1, nil
}

// executeShardLocal runs co-located and broadcast plans: every participating
// shard builds the FROM relation locally and filters it exactly — joins in
// planned order and methods, broadcast tables substituted by their gathered
// full content — and the coordinator executes the rest of the statement over
// the union of the per-shard results. Grouped co-located statements take the
// cheaper two-phase route instead: shards pre-aggregate locally and only
// group rows travel.
func (r *Router) executeShardLocal(txnID int64, sel *sqlparse.SelectStmt, pl *planner.Plan, sp *obs.Span) (*relalg.Relation, error) {
	hasBroadcast := pl.Placement == planner.PlacementBroadcast
	multiTable := len(pl.Scans) > 1

	ms := r.Members()
	fast, twoPhase := localRoute(sel, pl, len(ms))
	if fast >= 0 {
		if pl.Candidates != nil || pl.EmptyCandidates {
			atomic.AddInt64(&r.stats.QueriesPruned, 1)
		}
		if multiTable {
			atomic.AddInt64(&r.stats.ColocatedJoins, 1)
		}
		return r.queryOneShard(txnID, sel, ms[fast], sp)
	}

	ms, snaps := r.snapshotAll(txnID)
	participants := participantsOf(len(ms), pl.Candidates, pl.EmptyCandidates)

	if twoPhase != nil {
		atomic.AddInt64(&r.stats.TwoPhaseAggregates, 1)
		if multiTable {
			atomic.AddInt64(&r.stats.ColocatedJoins, 1)
		}
		return r.executeTwoPhaseOn(txnID, twoPhase, ms, snaps, participants, sp)
	}

	if multiTable {
		atomic.AddInt64(&r.stats.ColocatedJoins, 1)
		if hasBroadcast {
			atomic.AddInt64(&r.stats.BroadcastJoins, 1)
		}
	}

	// Gather the full content of every broadcast table once; all shards share
	// the same materialised relation.
	var overrides map[string]*relalg.Relation
	for i, scan := range pl.Scans {
		if !scan.Broadcast {
			continue
		}
		item := pl.Sel.From[i]
		var from []int // empty candidates: an empty relation joins to nothing
		if !scan.EmptyCandidates {
			from = participantsOf(len(ms), scan.Candidates, false)
		}
		rows, err := r.gatherRows(ms, from, snaps, item, pl.Sel, sp)
		if err != nil {
			return nil, err
		}
		if overrides == nil {
			overrides = make(map[string]*relalg.Relation)
		}
		overrides[types.NormalizeName(item.Name())] = relalg.FromTable(item.Name(), scan.Info.Schema, rows)
	}

	// Every participating shard builds the FROM relation with WHERE applied,
	// exactly, so the coordinator runs what the statement has above WHERE
	// over the union.
	results, total, err := r.scatter(ms, participants, sp, func(p int, ssp *obs.Span) (*relalg.Relation, error) {
		ms[p].NoteQuery()
		return ms[p].BuildFromRelationTraced(txnID, snaps[p], pl.Sel, overrides, pl.Methods, ssp)
	})
	if err != nil {
		return nil, err
	}
	union := &relalg.Relation{Cols: results[0].Cols, Rows: make([]types.Row, 0, total)}
	for _, part := range results {
		union.Rows = append(union.Rows, part.Rows...)
	}
	msp := sp.Child("merge")
	rel, err := relalg.ExecuteFiltered(union, pl.Sel, relalg.Options{Parallelism: r.Slices()})
	msp.Finish()
	return rel, err
}

// executeGather runs the general plan: every referenced sharded table is
// gathered from its candidate shards in parallel (all shards when pl is nil),
// subqueries recurse through the router, and the complete statement executes
// over the union — the same structure as Accelerator.Query, with the fleet
// standing in for the slices.
func (r *Router) executeGather(txnID int64, sel *sqlparse.SelectStmt, pl *planner.Plan, sp *obs.Span) (*relalg.Relation, error) {
	// One snapshot per member for the whole statement, taken under the commit
	// fence, so the scans of a multi-table join observe each shard at a
	// single, mutually consistent point in time.
	ms, snaps := r.snapshotAll(txnID)
	execSel := sel
	var methods []relalg.JoinMethod
	if pl != nil {
		execSel = pl.Sel
		methods = pl.Methods
	}

	// QueriesRun accounting: every member that gathers base rows for any
	// table did work for this statement.
	touched := map[int]bool{}
	for i, item := range execSel.From {
		if item.Subquery != nil {
			continue
		}
		members := allOrdinals(len(ms))
		if pl != nil && pl.Scans[i].Known {
			members = participantsOf(len(ms), pl.Scans[i].Candidates, pl.Scans[i].EmptyCandidates)
			if pl.Scans[i].EmptyCandidates {
				members = nil
			}
		}
		for _, m := range members {
			touched[m] = true
		}
	}
	for m := range touched {
		ms[m].NoteQuery()
	}

	from, err := r.buildFrom(txnID, ms, snaps, execSel, pl, methods, sp)
	if err != nil {
		return nil, err
	}
	esp := sp.Child("merge")
	rel, err := relalg.ExecuteSelect(from, execSel, relalg.Options{Parallelism: r.Slices()})
	esp.Finish()
	return rel, err
}

func (r *Router) buildFrom(txnID int64, ms []*accel.Accelerator, snaps []*accel.Snapshot, sel *sqlparse.SelectStmt, pl *planner.Plan, methods []relalg.JoinMethod, sp *obs.Span) (*relalg.Relation, error) {
	if len(sel.From) == 0 {
		return relalg.JoinAll(nil, nil, r.Slices())
	}
	rels := make([]*relalg.Relation, len(sel.From))
	for i, item := range sel.From {
		if item.Subquery != nil {
			ssp := sp.Child("subquery")
			sub, err := r.QueryTraced(txnID, item.Subquery, ssp)
			ssp.Finish()
			if err != nil {
				return nil, err
			}
			rels[i] = relalg.Requalify(sub, item.Name())
			continue
		}
		meta, err := r.meta(item.Table)
		if err != nil {
			return nil, err
		}
		members := allOrdinals(len(ms))
		if pl != nil && pl.Scans[i].Known {
			if pl.Scans[i].EmptyCandidates {
				members = nil
			} else {
				members = participantsOf(len(ms), pl.Scans[i].Candidates, false)
			}
		}
		rows, err := r.gatherRows(ms, members, snaps, item, sel, sp)
		if err != nil {
			return nil, err
		}
		rels[i] = relalg.FromTable(item.Name(), meta.schema, rows)
	}
	return relalg.JoinAllPlanned(rels, sel.From, methods, r.Slices())
}

// gatherRows scans one table on the given members concurrently and
// concatenates the results in shard order. Simple WHERE conjuncts are pushed
// into each shard's scan so zone maps prune on the shards, not at the
// coordinator.
func (r *Router) gatherRows(ms []*accel.Accelerator, members []int, snaps []*accel.Snapshot, item sqlparse.FromItem, sel *sqlparse.SelectStmt, sp *obs.Span) ([]types.Row, error) {
	gsp := sp.Child("gather")
	gsp.Label(obs.LabelTable, types.NormalizeName(item.Name()))
	gsp.Add(obs.KeyShards, int64(len(members)))
	defer gsp.Finish()
	results := make([][]types.Row, len(members))
	failed, err := fanOut(len(members), func(i int) (err error) {
		results[i], err = ms[members[i]].ScanVisibleTraced(snaps[members[i]], item.Table, sel, item, gsp)
		return err
	})
	if err != nil {
		name := ms[members[failed]].Name()
		r.emitScanError(name, types.NormalizeName(item.Name()), err)
		return nil, fmt.Errorf("shard %s: %w", name, err)
	}
	out := slices.Concat(results...)
	atomic.AddInt64(&r.stats.RowsGathered, int64(len(out)))
	return out, nil
}

// fanOut runs fn(i) for every i in [0, n) concurrently and returns the first
// failure in index order — a panic in fn included, as a *par.PanicError —
// with its index, so the caller can name the member it came from.
func fanOut(n int, fn func(i int) error) (int, error) {
	ok := make([]bool, n)
	err := par.Do(n, func(i int) error {
		if err := fn(i); err != nil {
			return err
		}
		ok[i] = true
		return nil
	})
	return slices.Index(ok, false), err
}

// scatter runs call for the given member ordinals of ms concurrently, each
// under its own "shard" span beneath parent, and returns the members'
// relations by pointer, in member order, with their total row count, which
// it accounts as gathered. A failure names its member.
func (r *Router) scatter(ms []*accel.Accelerator, members []int, parent *obs.Span, call func(p int, sp *obs.Span) (*relalg.Relation, error)) ([]*relalg.Relation, int, error) {
	parts := make([]*relalg.Relation, len(members))
	spans := make([]*obs.Span, len(members))
	for i, p := range members {
		spans[i] = parent.Child("shard")
		spans[i].Label(obs.LabelShard, ms[p].Name())
	}
	failed, err := fanOut(len(members), func(i int) (err error) {
		defer spans[i].Finish()
		parts[i], err = call(members[i], spans[i])
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("shard %s: %w", ms[members[failed]].Name(), err)
	}
	rows := 0
	for _, p := range parts {
		rows += len(p.Rows)
	}
	atomic.AddInt64(&r.stats.RowsGathered, int64(rows))
	return parts, rows, nil
}

// scatterPartials runs the partial-aggregate statement on the given members
// and returns each member's result relation as it is: partials stay typed,
// and the coordinator merges them (mergePartials).
func (r *Router) scatterPartials(txnID int64, sel *sqlparse.SelectStmt, ms []*accel.Accelerator, snaps []*accel.Snapshot, members []int, sp *obs.Span) ([]*relalg.Relation, error) {
	ssp := sp.Child("scatter")
	ssp.Add(obs.KeyShards, int64(len(members)))
	defer ssp.Finish()
	parts, _, err := r.scatter(ms, members, ssp, func(p int, sp *obs.Span) (*relalg.Relation, error) {
		return ms[p].QueryAtTraced(txnID, snaps[p], sel, sp)
	})
	if err == nil {
		atomic.AddInt64(&r.stats.TwoPhaseFrames, int64(len(members)))
	}
	return parts, err
}

// executeTwoPhaseOn scatters the plan's partial aggregation, merges the
// partials into one row per group and runs the plain final statement over
// them.
func (r *Router) executeTwoPhaseOn(txnID int64, plan *twoPhasePlan, ms []*accel.Accelerator, snaps []*accel.Snapshot, members []int, sp *obs.Span) (*relalg.Relation, error) {
	parts, err := r.scatterPartials(txnID, plan.shardSel, ms, snaps, members, sp)
	if err != nil {
		return nil, err
	}
	fsp := sp.Child("finalize")
	defer fsp.Finish()
	merged, err := mergePartials(parts, plan.merge)
	if err != nil {
		return nil, err
	}
	return relalg.ExecuteSelect(merged, plan.finalSel, relalg.Options{Parallelism: r.Slices()})
}
