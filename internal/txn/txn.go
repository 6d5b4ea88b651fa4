// Package txn implements the DB2-side transaction machinery: transaction
// identifiers, undo logging for rollback, and a table-granularity lock manager
// approximating DB2's cursor-stability isolation level (readers take short
// shared locks, writers hold exclusive locks until commit).
//
// The accelerator side uses MVCC snapshots instead (package accel); the
// federation layer stitches the two together by propagating the DB2
// transaction id, which is the mechanism Section 2 of the paper describes.
package txn

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"idaax/internal/rowstore"
	"idaax/internal/types"
)

// ID is a DB2 transaction identifier. It is propagated to the accelerator for
// every delegated statement so that both sides agree on visibility.
type ID int64

// Status enumerates transaction states.
type Status int

const (
	// StatusActive marks an in-flight transaction.
	StatusActive Status = iota
	// StatusCommitted marks a committed transaction.
	StatusCommitted
	// StatusAborted marks a rolled-back transaction.
	StatusAborted
)

// UndoOp enumerates undo record kinds.
type UndoOp int

const (
	// UndoInsert compensates an INSERT by deleting the inserted row.
	UndoInsert UndoOp = iota
	// UndoDelete compensates a DELETE by re-inserting the old row image.
	UndoDelete
	// UndoUpdate compensates an UPDATE by restoring the old row image.
	UndoUpdate
)

// UndoRecord is one compensation entry. Undo records are applied in reverse
// order on rollback.
type UndoRecord struct {
	Table  string
	Op     UndoOp
	RowID  rowstore.RowID
	OldRow types.Row
}

// Txn is one DB2 transaction.
type Txn struct {
	ID       ID
	Status   Status
	AutoTxn  bool // created implicitly for a single auto-commit statement
	undo     []UndoRecord
	locks    map[string]LockMode
	mu       sync.Mutex
	readOnly bool
}

// RecordUndo appends an undo record.
func (t *Txn) RecordUndo(rec UndoRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.undo = append(t.undo, rec)
}

// UndoRecords returns the undo log in reverse (apply) order.
func (t *Txn) UndoRecords() []UndoRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]UndoRecord, len(t.undo))
	for i, rec := range t.undo {
		out[len(t.undo)-1-i] = rec
	}
	return out
}

// LockedTables returns the tables this transaction holds locks on, sorted.
func (t *Txn) LockedTables() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.locks))
	for name := range t.locks {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Manager creates and tracks transactions.
type Manager struct {
	mu     sync.Mutex
	nextID ID
	active map[ID]*Txn
}

// NewManager creates a transaction manager.
func NewManager() *Manager {
	return &Manager{nextID: 1, active: make(map[ID]*Txn)}
}

// Begin starts a new transaction. auto marks implicit single-statement
// transactions.
func (m *Manager) Begin(auto bool) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &Txn{ID: m.nextID, Status: StatusActive, AutoTxn: auto, locks: make(map[string]LockMode)}
	m.nextID++
	m.active[t.ID] = t
	return t
}

// Finish marks the transaction committed or aborted and forgets it.
func (m *Manager) Finish(t *Txn, committed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if committed {
		t.Status = StatusCommitted
	} else {
		t.Status = StatusAborted
	}
	delete(m.active, t.ID)
}

// NextID returns the id the next transaction would get (checkpointing).
func (m *Manager) NextID() ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextID
}

// EnsureNextAtLeast raises the next transaction id to at least n so a
// recovered system never reuses an id issued before the crash.
func (m *Manager) EnsureNextAtLeast(n ID) {
	m.mu.Lock()
	if m.nextID < n {
		m.nextID = n
	}
	m.mu.Unlock()
}

// ActiveCount returns the number of in-flight transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// ---------------------------------------------------------------------------
// Lock manager
// ---------------------------------------------------------------------------

// LockMode is the requested lock strength.
type LockMode int

const (
	// LockShared allows concurrent readers.
	LockShared LockMode = iota
	// LockExclusive is required by writers.
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockExclusive {
		return "X"
	}
	return "S"
}

// ErrLockTimeout is returned when a lock cannot be acquired before the
// configured timeout elapses (the engine treats it like DB2's -911 timeout).
type ErrLockTimeout struct {
	Table string
	Mode  LockMode
}

func (e *ErrLockTimeout) Error() string {
	return fmt.Sprintf("txn: timeout waiting for %s lock on %s", e.Mode, e.Table)
}

type tableLock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	sharers map[ID]int
	owner   ID // exclusive owner, 0 when none
	ownerN  int
}

func newTableLock() *tableLock {
	l := &tableLock{sharers: make(map[ID]int)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// LockManager hands out table-granularity locks with a timeout.
type LockManager struct {
	mu      sync.Mutex
	locks   map[string]*tableLock
	Timeout time.Duration
}

// NewLockManager creates a lock manager with the given acquisition timeout.
func NewLockManager(timeout time.Duration) *LockManager {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &LockManager{locks: make(map[string]*tableLock), Timeout: timeout}
}

func (lm *LockManager) tableLock(table string) *tableLock {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	name := types.NormalizeName(table)
	l, ok := lm.locks[name]
	if !ok {
		l = newTableLock()
		lm.locks[name] = l
	}
	return l
}

// Acquire obtains a lock on the table for the transaction, upgrading an
// existing shared lock to exclusive when necessary. It blocks until the lock
// is granted or the timeout expires.
func (lm *LockManager) Acquire(t *Txn, table string, mode LockMode) error {
	table = types.NormalizeName(table)
	t.mu.Lock()
	held, ok := t.locks[table]
	t.mu.Unlock()
	if ok && (held == LockExclusive || mode == LockShared) {
		return nil // already strong enough
	}

	l := lm.tableLock(table)

	// Fast path: uncontended acquisition without starting the waker goroutine.
	l.mu.Lock()
	if lm.grantable(l, t.ID, mode) {
		lm.grant(l, t, table, mode)
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	deadline := time.Now().Add(lm.Timeout)

	// Wake all waiters periodically so deadline checks run even without
	// broadcast events.
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				l.mu.Lock()
				l.cond.Broadcast()
				l.mu.Unlock()
			}
		}
	}()
	defer close(done)

	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if lm.grantable(l, t.ID, mode) {
			lm.grant(l, t, table, mode)
			return nil
		}
		if time.Now().After(deadline) {
			return &ErrLockTimeout{Table: table, Mode: mode}
		}
		l.cond.Wait()
	}
}

func (lm *LockManager) grantable(l *tableLock, id ID, mode LockMode) bool {
	switch mode {
	case LockShared:
		return l.owner == 0 || l.owner == id
	case LockExclusive:
		if l.owner != 0 && l.owner != id {
			return false
		}
		// No other sharer may remain.
		for sid := range l.sharers {
			if sid != id {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (lm *LockManager) grant(l *tableLock, t *Txn, table string, mode LockMode) {
	switch mode {
	case LockShared:
		l.sharers[t.ID]++
	case LockExclusive:
		l.owner = t.ID
		l.ownerN++
		// An upgrade absorbs the shared count.
		delete(l.sharers, t.ID)
	}
	t.mu.Lock()
	if cur, ok := t.locks[table]; !ok || mode > cur {
		t.locks[table] = mode
	}
	t.mu.Unlock()
}

// ReleaseAll releases every lock the transaction holds (commit/rollback).
func (lm *LockManager) ReleaseAll(t *Txn) {
	t.mu.Lock()
	tables := make([]string, 0, len(t.locks))
	for name := range t.locks {
		tables = append(tables, name)
	}
	t.locks = make(map[string]LockMode)
	t.mu.Unlock()

	for _, table := range tables {
		l := lm.tableLock(table)
		l.mu.Lock()
		delete(l.sharers, t.ID)
		if l.owner == t.ID {
			l.owner = 0
			l.ownerN = 0
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// ReleaseShared drops the shared locks a read-only statement took; DB2's
// cursor stability releases read locks at the end of each statement rather
// than at commit.
func (lm *LockManager) ReleaseShared(t *Txn) {
	t.mu.Lock()
	var shared []string
	for name, mode := range t.locks {
		if mode == LockShared {
			shared = append(shared, name)
		}
	}
	for _, name := range shared {
		delete(t.locks, name)
	}
	t.mu.Unlock()

	for _, table := range shared {
		l := lm.tableLock(table)
		l.mu.Lock()
		delete(l.sharers, t.ID)
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}
