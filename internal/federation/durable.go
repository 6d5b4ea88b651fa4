package federation

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"idaax/internal/accel"
	"idaax/internal/colstore"
	"idaax/internal/db2"
	"idaax/internal/durable"
	"idaax/internal/obs/eventlog"
	"idaax/internal/replication"
	"idaax/internal/rowstore"
	"idaax/internal/shard"
	"idaax/internal/txn"
	"idaax/internal/types"
	"idaax/internal/vfs"
	"idaax/internal/wal"
)

// This file wires the coordinator to the durable store: one WAL and one
// checkpoint stream for the whole system — the DB2 row engine, every
// accelerator member, the shard routers and the replicator all journal
// through narrow interfaces into the same log, so cross-system facts
// (a rebalance batch spanning members, a DB2 commit and its CDC capture)
// are ordered by one sequence and recovered from one manifest.
//
// Recovery sequence (OpenCoordinator):
//
//  1. Load the checkpoint: catalog, DB2 heap tables, per-member columnar
//     tables, transaction registries, CDC backlog, replication cursors and
//     the id allocators.
//  2. Replay the WAL in log order; every apply is idempotent against the
//     checkpoint image (per-table op sequences, registry/changelog sequence
//     cursors, last-writer-wins catalog snapshots).
//  3. Resolve in-doubt accelerator transactions against the DB2-side commit
//     evidence (replayed commit records plus the manifest's recent-commit
//     ring): roll forward if DB2 committed, abort and sweep otherwise.
//  4. Prune CDC records captured for transactions that never committed.
//  5. Attach the journals and let the replicator catch every accelerated
//     table up from the change stream (tables with a durable replication
//     cursor take the cheap incremental path; the rest are re-loaded).
//
// Shard-group topology is configuration, not durable state: a restarted
// system must be opened with the same fleet layout (the same members and
// groups); member-local data then recovers exactly, and rows a crashed
// rebalance left behind are picked up by the next rebalance pass.

// RecoveryStats describes what recovery did, for observability and tests.
type RecoveryStats struct {
	// Recovered is true when a checkpoint or WAL records existed.
	Recovered bool
	// WALRecords is the number of WAL records replayed.
	WALRecords int64
	// ResolvedCommits / ResolvedAborts count in-doubt accelerator
	// transactions rolled forward / rolled back.
	ResolvedCommits int
	ResolvedAborts  int
	// PrunedChanges counts CDC records dropped because their transaction
	// never committed.
	PrunedChanges int
	// CaughtUp / FullLoaded count replicated tables recovered via the
	// incremental CDC stream vs. re-loaded from DB2.
	CaughtUp   int
	FullLoaded int
	// Micros is the wall-clock duration of recovery (load + replay + resolve).
	Micros int64
}

// recentCommitCap bounds the ring of recently committed DB2 transaction ids
// carried in each manifest. In-doubt resolution consults it for commits whose
// WAL records were pruned by a checkpoint.
const recentCommitCap = 1024

// OpenCoordinator builds a coordinator and opens its durable store: an
// existing store is recovered, a missing one is initialised. It is the
// durable twin of NewCoordinator (which stays purely in-memory).
func OpenCoordinator(cfg Config) (*Coordinator, error) {
	c := NewCoordinator(cfg)
	if err := c.openDurability(); err != nil {
		c.Watchdog.Stop()
		return nil, err
	}
	return c, nil
}

// Durable reports whether the coordinator runs on a durable store.
func (c *Coordinator) Durable() bool { return c.store != nil }

// RecoveryInfo returns what recovery did when the store was opened.
func (c *Coordinator) RecoveryInfo() RecoveryStats { return c.recovery }

// Store exposes the durable store (nil when in-memory); the ops plane and
// benchmarks read WAL/checkpoint counters from it.
func (c *Coordinator) Store() *durable.Store { return c.store }

// commitBarrier makes everything journaled so far durable per the fsync
// policy. The commit handshake calls it after accelerator registries commit,
// so transactions that touched no DB2 row table (accelerator-only tables,
// whose commit records bypass the engine's own barrier) get the same
// durability guarantee before success is reported to the client.
func (c *Coordinator) commitBarrier() error {
	if c.store == nil {
		return nil
	}
	return c.store.CommitBarrier()
}

func (c *Coordinator) durabilityConfigured() bool {
	return c.cfg.DataDir != "" || c.cfg.FS != nil
}

// openDurability opens (and recovers) the durable store per the config. A
// coordinator without DataDir/FS stays in-memory and this is a no-op.
func (c *Coordinator) openDurability() error {
	if !c.durabilityConfigured() {
		return nil
	}
	start := time.Now()
	fs := c.cfg.FS
	if fs == nil {
		fs = vfs.OS(c.cfg.DataDir)
	}
	policy, err := wal.ParsePolicy(c.cfg.FsyncPolicy)
	if err != nil {
		return err
	}
	interval := c.cfg.GroupCommitInterval
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	ckptBytes := c.cfg.CheckpointWALBytes
	if ckptBytes == 0 {
		ckptBytes = 64 << 20
	} else if ckptBytes < 0 {
		ckptBytes = 0 // explicit: auto-checkpoint off
	}
	par := c.cfg.RecoveryParallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}

	store, err := durable.Open(fs, ".", durable.Options{
		Policy:             policy,
		GroupInterval:      interval,
		CheckpointWALBytes: ckptBytes,
	})
	if err != nil {
		return err
	}
	st, err := c.recover(store, par)
	if err != nil {
		store.Close()
		return fmt.Errorf("federation: recovery failed: %w", err)
	}

	// The store is live: attach every journal. From here on, all mutations
	// are logged; nothing during recovery was.
	c.store = store
	c.restoreRecentCommits(st.recentCommits())
	c.DB2.SetJournal(db2Journal{c})
	c.Repl.SetJournal(replJournal{c})
	c.accelMu.RLock()
	for name, b := range c.accels {
		switch v := b.(type) {
		case *accel.Accelerator:
			v.SetJournal(&memberJournal{c: c, scope: name})
		case *shard.Router:
			v.SetJournal(multiJournal{c})
		}
	}
	c.accelMu.RUnlock()

	// CDC catch-up: journaled, so a rejoining member's incremental applies
	// are themselves durable.
	caught, loaded, err := c.Repl.RecoverAll()
	c.recovery.CaughtUp, c.recovery.FullLoaded = caught, loaded
	if err != nil {
		return fmt.Errorf("federation: replication catch-up failed: %w", err)
	}

	store.SetOnFull(func() {
		if err := c.Checkpoint(); err != nil {
			c.Events.Emitf(eventlog.TypeCheckpoint, eventlog.Error, "", "",
				fmt.Sprintf("auto checkpoint failed: %v", err))
		}
	})
	c.registerDurabilityGauges()
	c.recovery.Micros = time.Since(start).Microseconds()
	if c.recovery.Recovered {
		c.Events.Emitf(eventlog.TypeRecovered, eventlog.Info, "", "",
			fmt.Sprintf("recovered in %dµs: %d WAL records, %d/%d in-doubt commits/aborts, %d CDC records pruned, %d tables caught up, %d re-loaded",
				c.recovery.Micros, c.recovery.WALRecords,
				c.recovery.ResolvedCommits, c.recovery.ResolvedAborts,
				c.recovery.PrunedChanges, caught, loaded))
	}
	return nil
}

func (c *Coordinator) registerDurabilityGauges() {
	s := c.store
	c.Obs.GaugeFunc("wal_records", func() int64 { return s.WALStats().Records })
	c.Obs.GaugeFunc("wal_bytes", func() int64 { return s.WALStats().Bytes })
	c.Obs.GaugeFunc("wal_fsyncs", func() int64 { return s.WALStats().Fsyncs })
	c.Obs.GaugeFunc("wal_rotations", func() int64 { return s.WALStats().Rotations })
	c.Obs.GaugeFunc("checkpoints_total", func() int64 { return s.Checkpoints() })
	c.Obs.GaugeFunc("checkpoint_last_micros", func() int64 { return s.LastCheckpointMicros() })
	c.Obs.GaugeFunc("recovery_wal_records", func() int64 { return c.recovery.WALRecords })
	c.Obs.GaugeFunc("recovery_micros", func() int64 { return c.recovery.Micros })
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

// recoverState accumulates cross-record facts while the WAL replays.
type recoverState struct {
	// committed holds every DB2 transaction with durable commit evidence:
	// the manifest's recent-commit ring plus every replayed OpDB2Commit.
	committed map[int64]bool
	// maxTxn tracks the highest DB2 (positive) transaction id observed, so
	// the id allocator restarts beyond every id that may appear in recovered
	// state.
	maxTxn int64
	// internal tracks, per member scope, the highest internal-transaction
	// counter value observed (internal ids are negative; the counter is the
	// magnitude).
	internal map[string]int64
	// ring preserves the manifest's recent-commit ring in order so the next
	// checkpoint keeps carrying forward commits this process never saw.
	ring []int64
}

func newRecoverState() *recoverState {
	return &recoverState{committed: make(map[int64]bool), internal: make(map[string]int64)}
}

func (st *recoverState) noteTxn(id int64, scope string) {
	if id > 0 {
		if id > st.maxTxn {
			st.maxTxn = id
		}
	} else if id < 0 {
		if n := -id; n > st.internal[scope] {
			st.internal[scope] = n
		}
	}
}

func (st *recoverState) noteCommitted(id int64) {
	if !st.committed[id] {
		st.committed[id] = true
		st.ring = append(st.ring, id)
		if len(st.ring) > recentCommitCap {
			st.ring = st.ring[len(st.ring)-recentCommitCap:]
		}
	}
}

func (st *recoverState) recentCommits() []int64 { return st.ring }

// memberForScope resolves a WAL scope to its accelerator, pairing a member
// recovery discovers but the config did not list (it recovers as a standalone
// accelerator; group membership is configuration).
func (c *Coordinator) memberForScope(scope string) (*accel.Accelerator, error) {
	c.accelMu.RLock()
	b := c.accels[scope]
	c.accelMu.RUnlock()
	if b == nil {
		if a := c.AddAccelerator(scope, 0); a != nil {
			return a, nil
		}
		return nil, fmt.Errorf("cannot pair recovered member %s", scope)
	}
	a, ok := b.(*accel.Accelerator)
	if !ok {
		return nil, fmt.Errorf("WAL scope %s names a shard group", scope)
	}
	return a, nil
}

func (c *Coordinator) recover(store *durable.Store, parallelism int) (*recoverState, error) {
	st := newRecoverState()

	ls, err := store.Load(parallelism)
	if err != nil {
		return nil, err
	}
	if ls != nil {
		if err := c.restoreCheckpoint(ls, st); err != nil {
			return nil, err
		}
		c.recovery.Recovered = true
	}

	if err := store.Replay(func(rec *durable.Record) error {
		c.recovery.WALRecords++
		return c.applyRecord(rec, st)
	}); err != nil {
		return nil, err
	}
	if c.recovery.WALRecords > 0 {
		c.recovery.Recovered = true
	}

	// The routers learn their sharded tables from the final catalog: member
	// shards recovered their partitions themselves.
	c.adoptShardedTables()

	// In-doubt resolution, deterministically ordered; the verdicts are
	// journaled so the next recovery replays them instead of re-deciding.
	resolutions := c.resolveInDoubt(st)
	for _, rec := range resolutions {
		store.Log(rec)
	}
	if len(resolutions) > 0 {
		if err := store.Barrier(); err != nil {
			return nil, err
		}
	}

	// CDC records of transactions without commit evidence are pruned.
	// Records restored from the manifest carry no transaction tag (the
	// checkpoint gate guarantees they belong to settled transactions) and
	// are always kept.
	c.recovery.PrunedChanges = c.DB2.Changes.PruneTxns(func(id int64) bool { return st.committed[id] })

	// Id allocators restart beyond everything observed.
	if st.maxTxn > 0 {
		c.DB2.Txns.EnsureNextAtLeast(txn.ID(st.maxTxn + 1))
	}
	for scope, n := range st.internal {
		if a, err := c.memberForScope(scope); err == nil {
			a.RestoreInternalTxn(n)
		}
	}
	return st, nil
}

// restoreCheckpoint installs the loaded checkpoint image into the engines.
func (c *Coordinator) restoreCheckpoint(ls *durable.LoadedState, st *recoverState) error {
	m := ls.Manifest
	if len(m.Catalog) > 0 {
		if err := c.cat.Restore(m.Catalog); err != nil {
			return err
		}
	}
	c.DB2.SyncStorageWithCatalog()
	for name, snap := range ls.RowTables {
		c.DB2.RestoreStorage(name, snap)
	}
	for scope, snaps := range ls.Scopes {
		a, err := c.memberForScope(scope)
		if err != nil {
			return err
		}
		for _, snap := range snaps {
			a.AdoptTable(colstore.RestoreTable(snap))
		}
	}
	for scope, rs := range m.Registries {
		a, err := c.memberForScope(scope)
		if err != nil {
			return err
		}
		a.Registry.Restore(rs.Committed, rs.NextSeq)
		for id := range rs.Committed {
			st.noteTxn(id, scope)
		}
	}
	if len(m.Changes) > 0 || m.ChangeNextSeq > 1 {
		byTable := make(map[string][]db2.ChangeRecord)
		for _, cs := range m.Changes {
			byTable[cs.Table] = append(byTable[cs.Table], db2.ChangeRecord{
				Seq:   cs.Seq,
				Table: cs.Table,
				Op:    db2.ChangeOp(cs.Op),
				RowID: rowstore.RowID(cs.RowID),
				Row:   cs.Row,
				At:    time.UnixMicro(cs.At),
			})
		}
		c.DB2.Changes.Restore(byTable, m.ChangeNextSeq)
	}
	for table, seq := range m.ReplStates {
		c.Repl.ApplyReplState(table, seq)
	}
	if m.NextTxn > 1 {
		st.noteTxn(m.NextTxn-1, "")
	}
	for scope, n := range m.NextInternal {
		if n > st.internal[scope] {
			st.internal[scope] = n
		}
	}
	for _, id := range m.RecentCommits {
		st.noteCommitted(id)
		st.noteTxn(id, "")
	}
	return nil
}

// applyRecord replays one WAL record. Every branch is idempotent against the
// checkpoint image and against a previous partial replay.
func (c *Coordinator) applyRecord(rec *durable.Record, st *recoverState) error {
	switch rec.Op {
	case durable.OpCatalog:
		if err := c.cat.Restore(rec.Blob); err != nil {
			return err
		}
		c.DB2.SyncStorageWithCatalog()

	case durable.OpAccCreate:
		a, err := c.memberForScope(rec.Scope)
		if err != nil {
			return err
		}
		if !a.HasTable(rec.Table) {
			if err := a.CreateTable(rec.Table, types.Schema{Columns: rec.Cols}, rec.DistKey); err != nil {
				return err
			}
		}

	case durable.OpAccDrop:
		a, err := c.memberForScope(rec.Scope)
		if err != nil {
			return err
		}
		a.DropTableQuiet(rec.Table)

	case durable.OpAccInsert, durable.OpAccMarks, durable.OpAccUnmarks:
		a, err := c.memberForScope(rec.Scope)
		if err != nil {
			return err
		}
		st.noteTxn(rec.Txn, rec.Scope)
		t, err := a.Table(rec.Table)
		if err != nil {
			return nil // dropped later in the log; the final catalog wins
		}
		kind := colstore.TableOpInsert
		switch rec.Op {
		case durable.OpAccMarks:
			kind = colstore.TableOpMarks
		case durable.OpAccUnmarks:
			kind = colstore.TableOpUnmarks
		}
		t.ApplyOp(&colstore.TableOp{
			Table: rec.Table, Seq: rec.Seq, Kind: kind,
			Base: int(rec.Base), Rows: rec.Rows, SrcIDs: rec.SrcIDs,
			Idxs: rec.Idxs, Txn: rec.Txn,
		})

	case durable.OpAccCommit:
		a, err := c.memberForScope(rec.Scope)
		if err != nil {
			return err
		}
		st.noteTxn(rec.Txn, rec.Scope)
		a.Registry.ApplyCommit(rec.Txn, rec.Seq)

	case durable.OpAccAbort:
		a, err := c.memberForScope(rec.Scope)
		if err != nil {
			return err
		}
		st.noteTxn(rec.Txn, rec.Scope)
		a.Registry.ApplyAbort(rec.Txn)
		a.SweepAbortedTxn(rec.Txn)

	case durable.OpMultiCommit:
		for _, e := range rec.Commits {
			a, err := c.memberForScope(e.Scope)
			if err != nil {
				return err
			}
			st.noteTxn(e.Txn, e.Scope)
			a.Registry.ApplyCommit(e.Txn, e.Seq)
		}

	case durable.OpDB2Commit:
		st.noteTxn(rec.Txn, "")
		st.noteCommitted(rec.Txn)
		c.DB2.ApplyRedo(rec.RowOps)

	case durable.OpChange:
		st.noteTxn(rec.Txn, "")
		var row types.Row
		if len(rec.Rows) > 0 {
			row = rec.Rows[0]
		}
		c.DB2.Changes.ApplyChange(db2.ChangeRecord{
			Seq:   rec.Seq,
			Table: rec.Table,
			Op:    db2.ChangeOp(rec.Change),
			RowID: rowstore.RowID(rec.Base),
			Row:   row,
			At:    time.UnixMicro(rec.At),
			Txn:   rec.Txn,
		})

	case durable.OpChangeDiscard:
		// Journal is not attached during replay, so this does not re-journal.
		c.DB2.Changes.Discard(rec.Table, rec.Seq)

	case durable.OpReplState:
		c.Repl.ApplyReplState(rec.Table, rec.Seq)

	default:
		return fmt.Errorf("%w: unexpected op %d in replay", durable.ErrCorrupt, rec.Op)
	}
	return nil
}

// adoptShardedTables registers every catalog table that lives on a shard
// group with its router (member shards recovered the partitions themselves).
func (c *Coordinator) adoptShardedTables() {
	for _, meta := range c.cat.Tables() {
		if meta.Accelerator == "" {
			continue
		}
		b, err := c.Accelerator(meta.Accelerator)
		if err != nil {
			continue
		}
		r, ok := b.(*shard.Router)
		if !ok || r.HasTable(meta.Name) {
			continue
		}
		_ = r.AdoptTable(meta.Name, meta.Schema, meta.DistKey)
	}
}

// resolveInDoubt settles every accelerator transaction the replayed registries
// left neither committed nor aborted: roll forward if the DB2 side has commit
// evidence, abort and physically sweep otherwise. With every verdict final,
// each member then drops the replication-index entries of versions no
// committed transaction created (transactions that aborted before the
// checkpoint included). Returns the records to journal so a repeated crash
// replays the verdicts instead of re-deriving.
func (c *Coordinator) resolveInDoubt(st *recoverState) []*durable.Record {
	c.accelMu.RLock()
	members := make([]*accel.Accelerator, 0, len(c.accels))
	for _, b := range c.accels {
		if a, ok := b.(*accel.Accelerator); ok {
			members = append(members, a)
		}
	}
	c.accelMu.RUnlock()
	sort.Slice(members, func(i, j int) bool { return members[i].Name() < members[j].Name() })

	var out []*durable.Record
	for _, a := range members {
		ids := a.Registry.UnsettledTxns()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if id > 0 && st.committed[id] {
				seq := a.Registry.CommitQuiet(id)
				out = append(out, &durable.Record{Op: durable.OpAccCommit, Scope: a.Name(), Txn: id, Seq: seq})
				c.recovery.ResolvedCommits++
			} else {
				a.Registry.ApplyAbort(id)
				a.SweepAbortedTxn(id)
				out = append(out, &durable.Record{Op: durable.OpAccAbort, Scope: a.Name(), Txn: id})
				c.recovery.ResolvedAborts++
			}
		}
		a.SweepUncommittedSources()
	}
	return out
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

// Checkpoint rotates the WAL and writes a full checkpoint: segment files per
// columnar table and DB2 heap table, and a manifest carrying the catalog, CDC
// backlog, registries, replication cursors and id allocators. Safe to call
// concurrently with traffic; DB2-side capture runs under the checkpoint gate
// (no transaction is mid-mutation), accelerator tables cut by op sequence.
func (c *Coordinator) Checkpoint() error {
	if c.store == nil {
		return nil
	}
	err := c.store.Checkpoint(func() (*durable.CheckpointData, error) {
		data := &durable.CheckpointData{
			Scopes:       make(map[string][]*colstore.TableSnapshot),
			Registries:   make(map[string]durable.RegistrySnap),
			NextInternal: make(map[string]int64),
		}
		if err := c.DB2.CheckpointGate(func() error {
			data.RowTables = c.DB2.TablesSnapshot()
			data.Catalog = c.cat.Snapshot()
			byTable, nextSeq := c.DB2.Changes.SnapshotAll()
			data.ChangeNextSeq = nextSeq
			for table, recs := range byTable {
				for _, rec := range recs {
					data.Changes = append(data.Changes, durable.ChangeSnap{
						Seq:   rec.Seq,
						Table: table,
						Op:    int(rec.Op),
						RowID: int64(rec.RowID),
						Row:   rec.Row,
						At:    rec.At.UnixMicro(),
					})
				}
			}
			sort.Slice(data.Changes, func(i, j int) bool { return data.Changes[i].Seq < data.Changes[j].Seq })
			data.ReplStates = c.Repl.StatesSnapshot()
			data.NextTxn = int64(c.DB2.Txns.NextID())
			data.RecentCommits = c.recentCommitsSnapshot()
			return nil
		}); err != nil {
			return nil, err
		}

		c.accelMu.RLock()
		members := make([]*accel.Accelerator, 0, len(c.accels))
		for _, b := range c.accels {
			if a, ok := b.(*accel.Accelerator); ok {
				members = append(members, a)
			}
		}
		c.accelMu.RUnlock()
		for _, a := range members {
			var snaps []*colstore.TableSnapshot
			for _, name := range a.TableNames() {
				t, err := a.Table(name)
				if err != nil {
					continue
				}
				snaps = append(snaps, t.Snapshot())
			}
			data.Scopes[a.Name()] = snaps
			committed, nextSeq := a.Registry.Committed()
			data.Registries[a.Name()] = durable.RegistrySnap{Committed: committed, NextSeq: nextSeq}
			data.NextInternal[a.Name()] = a.InternalTxnCount()
		}
		return data, nil
	})
	if err == nil {
		c.Events.Emitf(eventlog.TypeCheckpoint, eventlog.Info, "", "",
			fmt.Sprintf("checkpoint %d written in %dµs", c.store.Checkpoints(), c.store.LastCheckpointMicros()))
	}
	return err
}

// closeDurability flushes a final checkpoint and closes the WAL. Called from
// Coordinator.Close.
func (c *Coordinator) closeDurability() error {
	if c.store == nil {
		return nil
	}
	var firstErr error
	if err := c.Checkpoint(); err != nil {
		firstErr = err
	}
	if err := c.store.Barrier(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := c.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// ---------------------------------------------------------------------------
// Recent-commit ring
// ---------------------------------------------------------------------------

func (c *Coordinator) noteRecentCommit(id int64) {
	c.recentMu.Lock()
	c.recentCommits = append(c.recentCommits, id)
	if len(c.recentCommits) > recentCommitCap {
		c.recentCommits = c.recentCommits[len(c.recentCommits)-recentCommitCap:]
	}
	c.recentMu.Unlock()
}

func (c *Coordinator) restoreRecentCommits(ids []int64) {
	c.recentMu.Lock()
	c.recentCommits = append([]int64(nil), ids...)
	c.recentMu.Unlock()
}

func (c *Coordinator) recentCommitsSnapshot() []int64 {
	c.recentMu.Lock()
	defer c.recentMu.Unlock()
	return append([]int64(nil), c.recentCommits...)
}

// ---------------------------------------------------------------------------
// Journal implementations
// ---------------------------------------------------------------------------

// memberJournal routes one accelerator member's mutations into the store,
// tagged with the member's scope.
type memberJournal struct {
	c     *Coordinator
	scope string
}

func (j *memberJournal) LogTableOp(op *colstore.TableOp) {
	kind := durable.OpAccInsert
	switch op.Kind {
	case colstore.TableOpMarks:
		kind = durable.OpAccMarks
	case colstore.TableOpUnmarks:
		kind = durable.OpAccUnmarks
	}
	j.c.store.Log(&durable.Record{
		Op: kind, Scope: j.scope, Table: op.Table,
		Txn: op.Txn, Seq: op.Seq, Base: int64(op.Base),
		Rows: op.Rows, SrcIDs: op.SrcIDs, Idxs: op.Idxs,
	})
}

func (j *memberJournal) LogCommit(txnID, seq int64) {
	j.c.store.Log(&durable.Record{Op: durable.OpAccCommit, Scope: j.scope, Txn: txnID, Seq: seq})
}

func (j *memberJournal) LogAbort(txnID int64) {
	j.c.store.Log(&durable.Record{Op: durable.OpAccAbort, Scope: j.scope, Txn: txnID})
}

func (j *memberJournal) LogCreateTable(name string, schema types.Schema, distKey string) {
	// DDL has no commit record to ride on, so it is made durable on its own;
	// a write/sync failure poisons the log and surfaces on the next barrier.
	_ = j.c.store.LogDurable(&durable.Record{
		Op: durable.OpAccCreate, Scope: j.scope, Table: name,
		Cols: schema.Columns, DistKey: distKey,
	})
}

func (j *memberJournal) LogDropTable(name string) {
	_ = j.c.store.LogDurable(&durable.Record{Op: durable.OpAccDrop, Scope: j.scope, Table: name})
}

var _ accel.MemberJournal = (*memberJournal)(nil)

// db2Journal routes the DB2 engine's redo, CDC and catalog records into the
// store (scope "" addresses the DB2 side).
type db2Journal struct{ c *Coordinator }

func (j db2Journal) LogCommit(txnID int64, ops []durable.RowOp) {
	j.c.store.Log(&durable.Record{Op: durable.OpDB2Commit, Txn: txnID, RowOps: ops})
	j.c.noteRecentCommit(txnID)
}

func (j db2Journal) LogCatalog(blob []byte) {
	// Catalog snapshots are journaled on DDL, which commits no redo of its
	// own — fsync here so a crash right after CREATE/DROP keeps the change.
	_ = j.c.store.LogDurable(&durable.Record{Op: durable.OpCatalog, Blob: blob})
}

func (j db2Journal) LogChange(rec db2.ChangeRecord) {
	var rows []types.Row
	if rec.Row != nil {
		rows = []types.Row{rec.Row}
	}
	j.c.store.Log(&durable.Record{
		Op: durable.OpChange, Table: rec.Table,
		Txn: rec.Txn, Seq: rec.Seq, Base: int64(rec.RowID),
		Rows: rows, Change: int64(rec.Op), At: rec.At.UnixMicro(),
	})
}

func (j db2Journal) LogChangeDiscard(table string, upToSeq int64) {
	j.c.store.Log(&durable.Record{Op: durable.OpChangeDiscard, Table: table, Seq: upToSeq})
}

func (j db2Journal) Barrier() error { return j.c.store.CommitBarrier() }

var _ db2.Journal = db2Journal{}

// replJournal records replication-progress cursors.
type replJournal struct{ c *Coordinator }

func (j replJournal) LogReplState(table string, appliedSeq int64) {
	j.c.store.Log(&durable.Record{Op: durable.OpReplState, Table: table, Seq: appliedSeq})
}

var _ replication.Journal = replJournal{}

// multiJournal records the rebalancer's atomic cross-member batch commits,
// durably — the batch's source-side deletes must never outlive a lost
// destination commit.
type multiJournal struct{ c *Coordinator }

func (j multiJournal) LogMultiCommit(entries []durable.CommitEntry) {
	// A write/sync failure poisons the log and surfaces on the next barrier.
	_ = j.c.store.LogDurable(&durable.Record{Op: durable.OpMultiCommit, Commits: entries})
}

var _ shard.MultiCommitJournal = multiJournal{}
