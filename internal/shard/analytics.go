package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"idaax/internal/accel"
	"idaax/internal/obs"
	"idaax/internal/par"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// This file is the router side of the shard-local analytics seam: a procedure
// call scatters over the members that own the table's rows, each member
// computes a partial result against only its own partition, and the
// coordinator merges the partials — the analytics twin of two-phase
// aggregation. Base rows never travel; only sufficient statistics, locally
// trained models and completion counts do.

// ShardCount implements accel.MultiShard.
func (r *Router) ShardCount() int { return len(r.Members()) }

// DistributedProcCalls returns how many times each procedure scattered over
// this group, keyed by the procedure label passed to CallShardLocal.
func (r *Router) DistributedProcCalls() map[string]int64 {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	out := make(map[string]int64, len(r.procCalls))
	for k, v := range r.procCalls {
		out[k] = v
	}
	return out
}

func (r *Router) noteProcScatter(proc string) {
	atomic.AddInt64(&r.stats.AnalyticsScatters, 1)
	if proc == "" {
		return
	}
	r.procMu.Lock()
	r.procCalls[types.NormalizeName(proc)]++
	r.procMu.Unlock()
}

// CallShardLocal implements accel.MultiShard across the fleet: fn runs
// concurrently on every member, each invocation seeing only that shard's
// visible rows under its own "partition" child of sp, and merge consumes each
// shard's partial at the coordinator in shard-ordinal order as soon as it (and
// every lower ordinal) has completed. Partials that finish out of order wait
// in their slot and are released right after merging, so the coordinator's
// footprint is the merge state plus the unmerged tail — not one partial per
// shard.
//
// Two properties make the scatter safe against a concurrent rebalance:
//
//   - the table's migration fence is held shared for the whole call, so no
//     migration batch can move rows while the partials compute — the same
//     fence DML takes; and
//   - the per-member snapshots are taken together under the router's commit
//     fence, so a batch that committed before the call is visible only on its
//     destination shard and a batch after it on none — every row is presented
//     to exactly one invocation (no double-count, no gap), which is what lets
//     scoring write predictions shard-local without ever double-scoring.
//
// Draining members still participate: their unmigrated rows are part of the
// table until the drain completes.
func (r *Router) CallShardLocal(txnID int64, table, proc string, sp *obs.Span, fn accel.ShardLocalFunc, merge func(ordinal int, partial any) error) error {
	meta, err := r.meta(table)
	if err != nil {
		return err
	}
	meta.migMu.RLock()
	defer meta.migMu.RUnlock()
	r.noteProcScatter(proc)
	ms, snaps := r.snapshotAll(txnID)
	sp.Add(obs.KeyShards, int64(len(ms)))

	tbl := types.NormalizeName(table)
	spans := make([]*obs.Span, len(ms))
	for i, m := range ms {
		m.NoteQuery()
		spans[i] = sp.Child("partition")
		spans[i].Label(obs.LabelShard, m.Name())
		spans[i].Label(obs.LabelTable, tbl)
	}
	// Each worker parks its outcome in its ordinal's slot; the worker that
	// completes the lowest unsettled ordinal settles every consecutive
	// completed one under mu, so merge runs in ordinal order and never
	// concurrently. par.Do(1, …) runs inline and confines a panic to the one
	// ordinal (or merge) that raised it.
	var (
		mu       sync.Mutex
		partials = make([]any, len(ms))
		errs     = make([]error, len(ms))
		done     = make([]bool, len(ms))
		next     int
		callErr  error
	)
	err = par.Do(len(ms), func(i int) error {
		var partial any
		err := par.Do(1, func(int) error {
			m, psp := ms[i], spans[i]
			defer psp.Finish()
			rows, err := m.ScanVisibleTraced(snaps[i], table, nil, sqlparse.FromItem{Table: tbl}, psp)
			if err != nil {
				return err
			}
			atomic.AddInt64(&r.stats.AnalyticsPartials, 1)
			partial, err = fn(&accel.ShardPartition{
				Member:  m.Name(),
				Ordinal: i,
				Shards:  len(ms),
				Rows:    relalg.FromTable(tbl, meta.schema, rows),
				WriteLocal: func(out string, outRows []types.Row) (int, error) {
					n, err := m.ImportRows(out, outRows)
					atomic.AddInt64(&r.stats.AnalyticsRowsWrittenLocal, int64(n))
					return n, err
				},
			})
			return err
		})
		mu.Lock()
		defer mu.Unlock()
		partials[i], errs[i], done[i] = partial, err, true
		for ; next < len(ms) && done[next]; next++ {
			if errs[next] != nil {
				r.emitScatterFailure(ms[next].Name(), tbl, proc, errs[next])
				if callErr == nil {
					callErr = fmt.Errorf("shard %s: %w", ms[next].Name(), errs[next])
				}
			} else if callErr == nil {
				callErr = par.Do(1, func(int) error { return merge(next, partials[next]) })
			}
			partials[next] = nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	return callErr
}
