package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"idaax/internal/accel"
	"idaax/internal/colstore"
	"idaax/internal/obs/eventlog"
	"idaax/internal/types"
)

// rebalanceBatchSize bounds how many rows one migration batch moves (and
// therefore how long the table's write fence is held per batch). Queries are
// never blocked; writers wait at most one batch.
const rebalanceBatchSize = 512

// rebalanceState is the single-flight bookkeeping of the background
// rebalancer: at most one worker goroutine runs per router, and membership
// changes that land while it runs set pending so the worker re-sweeps before
// exiting.
type rebalanceState struct {
	mu      sync.Mutex
	running bool
	pending bool
	done    chan struct{}
	lastErr error
	// passStart and rowsAtStart snapshot the moment the current worker was
	// launched, so RebalanceStatus can report a live migration rate.
	passStart   time.Time
	rowsAtStart int64
}

// RebalanceStatus is a point-in-time report of the rebalancer.
type RebalanceStatus struct {
	// Epoch is the membership epoch (see Router.Epoch).
	Epoch int64
	// Active reports whether the background rebalancer is running.
	Active bool
	// MigratingTables lists tables whose rows may still be placed by a
	// superseded map, sorted.
	MigratingTables []string
	// RowsMigrated and Batches are cumulative counters since router creation.
	RowsMigrated int64
	Batches      int64
	// RowsPerSec is the live migration rate of the running rebalance (rows
	// moved since the worker started over its elapsed time; 0 when idle).
	RowsPerSec float64
	// LastError is the last rebalance failure ("" when none).
	LastError string
}

// RebalanceStatus returns the rebalancer's current progress.
func (r *Router) RebalanceStatus() RebalanceStatus {
	migrated := atomic.LoadInt64(&r.stats.RowsMigrated)
	r.rebal.mu.Lock()
	active := r.rebal.running
	lastErr := ""
	if r.rebal.lastErr != nil {
		lastErr = r.rebal.lastErr.Error()
	}
	rate := 0.0
	if active {
		if elapsed := time.Since(r.rebal.passStart).Seconds(); elapsed > 0 {
			rate = float64(migrated-r.rebal.rowsAtStart) / elapsed
		}
	}
	r.rebal.mu.Unlock()
	return RebalanceStatus{
		Epoch:           r.Epoch(),
		Active:          active,
		MigratingTables: r.migratingTables(),
		RowsMigrated:    migrated,
		Batches:         atomic.LoadInt64(&r.stats.RebalanceBatches),
		RowsPerSec:      rate,
		LastError:       lastErr,
	}
}

func (r *Router) migratingTables() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for name, meta := range r.tables {
		if meta.migrating() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Membership changes
// ---------------------------------------------------------------------------

// AddMember grows the fleet: the accelerator joins the shard group, every
// sharded table is created on it, all placement maps are retargeted to the
// enlarged owner set, and a background rebalance starts migrating the keys
// the new member now owns (≈ 1/N of each hash-distributed table under
// rendezvous hashing). Queries and DML keep running throughout; use
// WaitRebalance to block until the fleet has converged.
func (r *Router) AddMember(a *accel.Accelerator) error {
	r.mu.Lock()
	for _, m := range r.members {
		if m.Name() == a.Name() {
			r.mu.Unlock()
			return fmt.Errorf("shard: %s is already a member of %s", a.Name(), r.name)
		}
	}
	// Create every sharded table on the new member before it becomes
	// routable, so placement maps can immediately target it.
	for name, meta := range r.tables {
		if !a.HasTable(name) {
			if err := a.CreateTable(name, meta.schema, meta.distKey); err != nil {
				r.mu.Unlock()
				return err
			}
		}
	}
	a.SetVectorizedExecution(r.members[0].VectorizedEnabled())
	r.members = append(append([]*accel.Accelerator(nil), r.members...), a)
	atomic.AddInt64(&r.epoch, 1)
	r.retargetLocked()
	r.mu.Unlock()
	r.emitMember(eventlog.TypeMemberAdded, a.Name(), fmt.Sprintf("%s joined shard group %s", a.Name(), r.name))
	r.StartRebalance()
	return nil
}

// RemoveMember shrinks the fleet: the member is marked as draining (placement
// maps stop targeting it), the rebalancer migrates every row off it, and once
// it is empty the member is detached from the group. The call blocks until
// the drain completes. A group never shrinks below two members — with one
// member there would be nothing left to shard over; drop the group and keep
// the accelerator standalone instead.
func (r *Router) RemoveMember(name string) error {
	name = types.NormalizeName(name)
	r.mu.Lock()
	found := false
	for _, m := range r.members {
		if m.Name() == name {
			found = true
			break
		}
	}
	if !found {
		r.mu.Unlock()
		return fmt.Errorf("shard: %s is not a member of %s", name, r.name)
	}
	if r.leaving[name] {
		r.mu.Unlock()
		return fmt.Errorf("shard: %s is already being removed from %s", name, r.name)
	}
	if len(r.members)-len(r.leaving) <= 2 {
		r.mu.Unlock()
		return fmt.Errorf("shard: cannot remove %s: shard group %s needs at least 2 members (drop the group to fold back to single-accelerator mode)", name, r.name)
	}
	r.leaving[name] = true
	atomic.AddInt64(&r.epoch, 1)
	r.retargetLocked()
	r.mu.Unlock()
	r.emitMember(eventlog.TypeMemberDraining, name, fmt.Sprintf("%s draining out of shard group %s", name, r.name))

	r.StartRebalance()
	if err := r.WaitRebalance(); err != nil {
		return err
	}
	if err := r.detach(name); err != nil {
		return err
	}
	r.emitMember(eventlog.TypeMemberDetached, name, fmt.Sprintf("%s detached from shard group %s", name, r.name))
	return nil
}

// retargetLocked installs a fresh placement map for every sharded table after
// a membership change. The superseded map is kept (the table is "migrating")
// whenever rows placed by it could now be misplaced: always for hash tables,
// and for round-robin tables only when an owner left (a pure round-robin grow
// leaves existing rows where they are — there is no key to miss). Callers
// hold r.mu exclusively.
func (r *Router) retargetLocked() {
	newNames, _ := r.ownersLocked()
	newSet := make(map[string]bool, len(newNames))
	for _, n := range newNames {
		newSet[n] = true
	}
	for _, meta := range r.tables {
		fresh := r.newPartitionerLocked(meta)

		meta.pm.Lock()
		oldNames := meta.part.OwnerNames()
		sameOwners := len(oldNames) == len(newNames)
		shrunk := false
		for _, n := range oldNames {
			if !newSet[n] {
				sameOwners = false
				shrunk = true
			}
		}
		if sameOwners {
			// Owner set unchanged (e.g. ordinals compacted after a detach):
			// swap the map in place, nothing needs to migrate for it.
			meta.part = fresh
		} else {
			if meta.keyIdx >= 0 || shrunk {
				meta.prevs = append(meta.prevs, meta.part)
			}
			meta.part = fresh
		}
		meta.pm.Unlock()
	}
}

// detach removes a fully drained member from the group. It takes every
// table's write fence (in name order) so no writer can route by the old
// ordinals while they shift, verifies the member really holds no live rows,
// and compacts the member list.
func (r *Router) detach(name string) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.tables))
	metas := make([]*tableMeta, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		metas = append(metas, r.tables[n])
	}
	r.mu.RUnlock()

	for _, meta := range metas {
		meta.migMu.Lock()
	}
	defer func() {
		for _, meta := range metas {
			meta.migMu.Unlock()
		}
	}()

	r.mu.Lock()
	defer r.mu.Unlock()
	idx := -1
	for i, m := range r.members {
		if m.Name() == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("shard: %s is not a member of %s", name, r.name)
	}
	leavingMember := r.members[idx]
	for tname := range r.tables {
		t, err := leavingMember.Table(tname)
		if err != nil {
			continue
		}
		if n := t.VisibleRowCount(leavingMember.Registry.Snapshot(0).Visible); n > 0 {
			return fmt.Errorf("shard: cannot detach %s from %s: %d rows of %s are still on it", name, r.name, n, tname)
		}
	}
	members := make([]*accel.Accelerator, 0, len(r.members)-1)
	for i, m := range r.members {
		if i != idx {
			members = append(members, m)
		}
	}
	r.members = members
	delete(r.leaving, name)
	atomic.AddInt64(&r.epoch, 1)
	// Owner set is unchanged (the leaving member was no owner since the drain
	// started), but ordinals shifted: rebuild every map in place.
	r.retargetLocked()
	return nil
}

// ---------------------------------------------------------------------------
// Background worker
// ---------------------------------------------------------------------------

// StartRebalance kicks the background rebalancer (idempotent: a running
// worker is told to re-sweep instead of spawning a second one). The worker
// migrates misplaced rows of every migrating table in bounded batches until
// the fleet has converged, then clears the tables' superseded maps.
func (r *Router) StartRebalance() {
	r.rebal.mu.Lock()
	defer r.rebal.mu.Unlock()
	if r.rebal.running {
		r.rebal.pending = true
		return
	}
	r.rebal.running = true
	r.rebal.done = make(chan struct{})
	r.rebal.passStart = time.Now()
	r.rebal.rowsAtStart = atomic.LoadInt64(&r.stats.RowsMigrated)
	r.emitRebalance(eventlog.TypeRebalanceStarted, eventlog.Info, "",
		fmt.Sprintf("rebalance started on %s (epoch %d)", r.name, r.Epoch()))
	go r.rebalanceWorker()
}

// WaitRebalance blocks until no rebalance is active and returns the last
// rebalance error, if any. It is the synchronisation point tests, examples
// and the drain path of RemoveMember use.
func (r *Router) WaitRebalance() error {
	for {
		r.rebal.mu.Lock()
		if !r.rebal.running {
			err := r.rebal.lastErr
			r.rebal.mu.Unlock()
			return err
		}
		done := r.rebal.done
		r.rebal.mu.Unlock()
		<-done
	}
}

func (r *Router) rebalanceWorker() {
	for {
		err := r.rebalancePass()
		r.rebal.mu.Lock()
		r.rebal.lastErr = err
		if r.rebal.pending {
			r.rebal.pending = false
			r.rebal.mu.Unlock()
			continue
		}
		r.rebal.running = false
		close(r.rebal.done)
		r.rebal.mu.Unlock()
		if err != nil {
			r.emitRebalance(eventlog.TypeRebalanceFailed, eventlog.Error, "",
				fmt.Sprintf("rebalance failed on %s: %v", r.name, err))
		} else {
			r.emitRebalance(eventlog.TypeRebalanceDone, eventlog.Info, "",
				fmt.Sprintf("rebalance completed on %s (epoch %d)", r.name, r.Epoch()))
		}
		return
	}
}

// rebalancePass sweeps every migrating table until a full sweep finds nothing
// to move and nothing pending, then finalises the tables (drops their
// superseded maps). Rows whose fate hangs on an in-flight transaction — an
// uncommitted insert on a shard that no longer owns the key, or a row an
// active transaction has delete-marked — are left alone and re-checked until
// the transaction resolves, so a rebalance completes only once concurrent
// writers have drained.
func (r *Router) rebalancePass() error {
	for {
		migrating := r.migratingTables()
		if len(migrating) == 0 {
			return nil
		}
		moved, pending := 0, 0
		for _, name := range migrating {
			m, p, err := r.sweepTable(name)
			if err != nil {
				return err
			}
			moved += m
			pending += p
		}
		if moved == 0 && pending == 0 {
			finalized := 0
			for _, name := range migrating {
				ok, err := r.finalizeTable(name)
				if err != nil {
					return err
				}
				if ok {
					finalized++
				}
			}
			if finalized == len(migrating) {
				atomic.AddInt64(&r.stats.RebalancesCompleted, 1)
				// Loop once more: a membership change may have marked tables
				// migrating again in the meantime.
				continue
			}
		}
		if moved == 0 {
			// Everything left is blocked on in-flight transactions; yield
			// briefly instead of spinning.
			time.Sleep(time.Millisecond)
		}
	}
}

// migEntry is one misplaced row scheduled for a batch move.
type migEntry struct {
	idx   int
	row   types.Row
	srcID int64
	dest  int
}

// versionFate classifies a stored row version for the migration engine.
type versionFate int

const (
	// fateDead: the version can never become visible again (creator aborted,
	// or a committed transaction deleted it). Irrelevant to migration.
	fateDead versionFate = iota
	// fateLive: a committed, undeleted row — movable if misplaced.
	fateLive
	// fatePending: the version's visibility hangs on a transaction that has
	// not settled — an in-flight insert, an in-flight delete, or a delete
	// marker whose transaction aborted but whose physical undo
	// (Accelerator.AbortTxn → UndoDeletesBy) has not landed yet. Such a row
	// can neither be moved nor declared gone; the engine re-checks it.
	fatePending
)

// fateOf is the single version-state classifier shared by the sweep and the
// finalisation check, so the two can never diverge on what counts as live.
func fateOf(reg *accel.Registry, created, deleted int64) versionFate {
	if reg.State(created) == accel.TxnAborted {
		return fateDead
	}
	if deleted != 0 {
		switch reg.State(deleted) {
		case accel.TxnCommitted:
			return fateDead
		default:
			// Active, prepared, or aborted-awaiting-undo: unsettled either way.
			return fatePending
		}
	}
	if reg.State(created) == accel.TxnCommitted {
		return fateLive
	}
	return fatePending
}

// sweepTable scans every member for rows a superseded map left behind and
// moves them to their owner under the live map in bounded batches. It returns
// how many rows moved and how many are pending on in-flight transactions.
func (r *Router) sweepTable(name string) (moved, pending int, err error) {
	meta, err := r.meta(name)
	if err != nil {
		return 0, 0, nil // dropped concurrently
	}
	ms := r.Members()
	for s, m := range ms {
		tab, terr := m.Table(name)
		if terr != nil {
			continue // member joined after the view was taken
		}
		mv, pd, serr := r.sweepMember(name, meta, ms, s, m, tab)
		moved += mv
		pending += pd
		if serr != nil {
			return moved, pending, serr
		}
	}
	return moved, pending, nil
}

func (r *Router) sweepMember(name string, meta *tableMeta, ms []*accel.Accelerator, s int, m *accel.Accelerator, tab *colstore.Table) (moved, pending int, err error) {
	part := meta.partitioner()
	ownerSet := make(map[int]bool)
	for _, o := range part.Ordinals() {
		ownerSet[o] = true
	}
	created, deleted, srcIDs := tab.VersionMeta()
	var batch []migEntry
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		n, p, ferr := r.moveBatch(name, meta, ms, s, batch)
		moved += n
		pending += p
		batch = batch[:0]
		return ferr
	}
	for idx := range created {
		switch fateOf(m.Registry, created[idx], deleted[idx]) {
		case fateDead:
			continue
		case fatePending:
			// The version's fate hangs on an unsettled transaction; if it is
			// (or would resurrect) misplaced, a later sweep picks it up.
			if r.isMisplaced(meta, part, ownerSet, tab.ReadRow(idx), s) {
				pending++
			}
			continue
		}
		row := tab.ReadRow(idx)
		if dest, bad := r.placeRow(meta, part, ownerSet, row, s); bad {
			batch = append(batch, migEntry{idx: idx, row: row, srcID: srcIDs[idx], dest: dest})
			if len(batch) >= rebalanceBatchSize {
				if err := flush(); err != nil {
					return moved, pending, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return moved, pending, err
	}
	return moved, pending, nil
}

// placeRow decides whether a row on shard ordinal `on` is misplaced under the
// live map and where it belongs. Hash tables place by key; round-robin tables
// have no wrong shard among the owners, so only rows on a non-owner (a
// draining member) are misplaced.
func (r *Router) placeRow(meta *tableMeta, part Partitioner, ownerSet map[int]bool, row types.Row, on int) (dest int, bad bool) {
	if meta.keyIdx >= 0 {
		dest = part.Place(row)
		return dest, dest != on
	}
	if ownerSet[on] {
		return on, false
	}
	return part.Place(row), true
}

func (r *Router) isMisplaced(meta *tableMeta, part Partitioner, ownerSet map[int]bool, row types.Row, on int) bool {
	_, bad := r.placeRow(meta, part, ownerSet, row, on)
	return bad
}

// moveBatch migrates one bounded batch of rows from source shard ordinal s to
// their owners. It holds the table's write fence for the duration, marks the
// source versions deleted and inserts the row images (with their DB2 source
// ids, where present) on the destinations, each member under its internal
// transaction of one fleetTxn, which commits source and destinations together
// — so any query snapshot set sees each row either still on the source or
// already on its destination, never both and never neither, and a crash
// never recovers a row deleted on the source but uncommitted on its
// destination.
func (r *Router) moveBatch(name string, meta *tableMeta, ms []*accel.Accelerator, s int, batch []migEntry) (moved, pending int, err error) {
	meta.migMu.Lock()
	defer meta.migMu.Unlock()

	src := ms[s]
	srcTab, err := src.Table(name)
	if err != nil {
		return 0, 0, err
	}
	ft := r.beginFleetTxn(ms)
	srcTxn := ft.txn(s)

	type destBatch struct {
		rows   []types.Row
		srcIDs []int64
	}
	perDest := make(map[int]*destBatch)
	var claimed []migEntry
	for _, e := range batch {
		if !srcTab.MarkDeleted(e.idx, srcTxn) {
			// A transaction delete-marked the row since the sweep copied the
			// version metadata; it resolves later.
			pending++
			continue
		}
		claimed = append(claimed, e)
		db := perDest[e.dest]
		if db == nil {
			db = &destBatch{}
			perDest[e.dest] = db
		}
		db.rows = append(db.rows, e.row)
		db.srcIDs = append(db.srcIDs, e.srcID)
	}
	for dest, db := range perDest {
		if dest < 0 || dest >= len(ms) {
			err = fmt.Errorf("shard: migration destination %d out of range on %s", dest, r.name)
			break
		}
		var dtab *colstore.Table
		if dtab, err = ms[dest].Table(name); err == nil {
			_, err = dtab.InsertWithSource(ft.txn(dest), db.rows, db.srcIDs)
		}
		if err != nil {
			break
		}
	}
	if err != nil || len(claimed) == 0 {
		for _, e := range claimed {
			srcTab.UndoDelete(e.idx, srcTxn)
		}
		ft.end(false)
		return 0, pending, err
	}
	ft.end(true)

	atomic.AddInt64(&r.stats.RowsMigrated, int64(len(claimed)))
	atomic.AddInt64(&r.stats.RebalanceBatches, 1)
	r.emitRebalance(eventlog.TypeRebalanceBatch, eventlog.Info, name,
		fmt.Sprintf("moved %d rows of %s off %s", len(claimed), name, src.Name()))
	return len(claimed), pending, nil
}

// finalizeTable drops a table's superseded placement maps once no misplaced
// or in-flight row remains. It re-verifies under the table's write fence so a
// writer cannot slip a misplaced row in between the check and the switch;
// afterwards pruning and co-located planning run on the live map alone.
func (r *Router) finalizeTable(name string) (bool, error) {
	meta, err := r.meta(name)
	if err != nil {
		return true, nil // dropped concurrently: nothing left to finalise
	}
	meta.migMu.Lock()
	defer meta.migMu.Unlock()

	part := meta.partitioner()
	ownerSet := make(map[int]bool)
	for _, o := range part.Ordinals() {
		ownerSet[o] = true
	}
	ms := r.Members()
	for s, m := range ms {
		tab, terr := m.Table(name)
		if terr != nil {
			continue
		}
		created, deleted, _ := tab.VersionMeta()
		for idx := range created {
			if fateOf(m.Registry, created[idx], deleted[idx]) == fateDead {
				continue
			}
			// Live or pending: either way a misplaced row blocks finalisation.
			if r.isMisplaced(meta, part, ownerSet, tab.ReadRow(idx), s) {
				return false, nil
			}
		}
	}
	meta.pm.Lock()
	meta.prevs = nil
	meta.pm.Unlock()
	return true, nil
}
