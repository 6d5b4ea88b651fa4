package federation

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"idaax/internal/accel"
	"idaax/internal/catalog"
	"idaax/internal/core"
	"idaax/internal/expr"
	"idaax/internal/obs"
	"idaax/internal/obs/eventlog"
	"idaax/internal/relalg"
	"idaax/internal/shard"
	"idaax/internal/sqlparse"
	"idaax/internal/txn"
	"idaax/internal/types"
)

// AccelerationMode mirrors the DB2 special register CURRENT QUERY ACCELERATION.
type AccelerationMode int

const (
	// AccelerationNone disables query offload; queries on AOTs fail.
	AccelerationNone AccelerationMode = iota
	// AccelerationEnable offloads eligible queries and runs the rest locally.
	AccelerationEnable
	// AccelerationEligible behaves like ENABLE in this implementation.
	AccelerationEligible
	// AccelerationAll requires offload and fails queries that cannot be offloaded.
	AccelerationAll
)

// String returns the register spelling of the mode.
func (m AccelerationMode) String() string {
	switch m {
	case AccelerationNone:
		return "NONE"
	case AccelerationEnable:
		return "ENABLE"
	case AccelerationEligible:
		return "ELIGIBLE"
	case AccelerationAll:
		return "ALL"
	default:
		return "UNKNOWN"
	}
}

// ParseAccelerationMode parses the register value.
func ParseAccelerationMode(s string) (AccelerationMode, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "NONE":
		return AccelerationNone, nil
	case "ENABLE", "ENABLE WITH FAILBACK":
		return AccelerationEnable, nil
	case "ELIGIBLE":
		return AccelerationEligible, nil
	case "ALL":
		return AccelerationAll, nil
	default:
		return AccelerationNone, fmt.Errorf("federation: invalid CURRENT QUERY ACCELERATION value %q", s)
	}
}

// Result is the outcome of one statement.
type Result struct {
	// Columns are the result-set column names (queries and SHOW/EXPLAIN).
	Columns []string
	// Rows is the result set.
	Rows []types.Row
	// RowsAffected counts modified rows for DML.
	RowsAffected int
	// Routed names where the statement ran: "DB2", an accelerator name, or a
	// combination such as "DB2->IDAA1" for cross-system INSERT ... SELECT.
	Routed string
	// Message is an informational completion message.
	Message string
}

// Session is one application connection. It carries the authorization id, the
// CURRENT QUERY ACCELERATION register, and the open transaction including the
// set of accelerators that participated in it.
type Session struct {
	coord        *Coordinator
	user         string
	mode         AccelerationMode
	tx           *txn.Txn
	explicit     bool
	participants map[string]accel.Backend

	// prof is the root trace span of the statement currently executing (nil
	// between statements). Nested statements run from a procedure body attach
	// their backend work to it instead of opening their own profile, so one
	// CALL is one history entry whose trace nests the inner statements.
	prof *obs.Span

	// pendingQueueWait is admission queue time the serving layer recorded for
	// the next statement; beginProfile folds it into the statement's trace as
	// an admission_queue span and clears it.
	pendingQueueWait time.Duration
}

// NoteQueueWait records how long the next statement waited in the admission
// queue before this session got to run it. The wire serving layer calls it
// after acquiring an admission slot so queue time shows up in the statement's
// trace (and EXPLAIN ANALYZE / slow-query output) alongside execution time.
func (s *Session) NoteQueueWait(d time.Duration) {
	if d > 0 {
		s.pendingQueueWait = d
	}
}

// User returns the session's authorization id.
func (s *Session) User() string { return s.user }

// AccelerationMode returns the current offload mode.
func (s *Session) AccelerationMode() AccelerationMode { return s.mode }

// SetAccelerationMode sets the offload mode (equivalent to the SET statement).
func (s *Session) SetAccelerationMode(m AccelerationMode) { s.mode = m }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.tx != nil && s.explicit }

// ---------------------------------------------------------------------------
// Public execution API
// ---------------------------------------------------------------------------

// Exec parses and executes a single SQL statement.
func (s *Session) Exec(sql string) (*Result, error) {
	prof := s.beginProfile(sql)
	psp := prof.span.Child("parse")
	st, err := sqlparse.Parse(sql)
	psp.Finish()
	if err != nil {
		prof.finish(nil, nil, err)
		return nil, err
	}
	res, err := s.dispatchStmt(st)
	prof.finish(st, res, err)
	return res, err
}

// ExecScript parses and executes a semicolon-separated script, stopping at the
// first error.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	stmts, err := sqlparse.ParseMulti(sql)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		res, err := s.ExecStmt(st)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// Query is Exec restricted to statements producing a result set.
func (s *Session) Query(sql string) (*Result, error) {
	res, err := s.Exec(sql)
	if err != nil {
		return nil, err
	}
	if res.Columns == nil {
		return nil, fmt.Errorf("federation: statement did not produce a result set")
	}
	return res, nil
}

// Begin starts an explicit transaction.
func (s *Session) Begin() error {
	if s.tx != nil {
		return fmt.Errorf("federation: a transaction is already active")
	}
	s.tx = s.coord.DB2.Begin(false)
	s.explicit = true
	return nil
}

// Commit commits the explicit transaction across DB2 and every participating
// accelerator (prepare, DB2 commit, accelerator commit).
func (s *Session) Commit() error {
	if s.tx == nil {
		return fmt.Errorf("federation: no transaction is active")
	}
	tx := s.tx
	s.tx = nil
	s.explicit = false
	return s.commitTxn(tx)
}

// Rollback rolls the explicit transaction back on both sides.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return fmt.Errorf("federation: no transaction is active")
	}
	tx := s.tx
	s.tx = nil
	s.explicit = false
	s.abortTxn(tx)
	return nil
}

// ExecStmt executes an already-parsed statement.
func (s *Session) ExecStmt(st sqlparse.Statement) (*Result, error) {
	prof := s.beginProfile(stmtText(st))
	res, err := s.dispatchStmt(st)
	prof.finish(st, res, err)
	return res, err
}

// dispatchStmt executes a statement under the already-open profile.
func (s *Session) dispatchStmt(st sqlparse.Statement) (*Result, error) {
	switch stmt := st.(type) {
	case *sqlparse.BeginStmt:
		if err := s.Begin(); err != nil {
			return nil, err
		}
		return &Result{Message: "transaction started", Routed: "DB2"}, nil
	case *sqlparse.CommitStmt:
		if err := s.Commit(); err != nil {
			return nil, err
		}
		return &Result{Message: "committed", Routed: "DB2"}, nil
	case *sqlparse.RollbackStmt:
		if err := s.Rollback(); err != nil {
			return nil, err
		}
		return &Result{Message: "rolled back", Routed: "DB2"}, nil
	case *sqlparse.SetStmt:
		return s.execSet(stmt)
	case *sqlparse.ShowStmt:
		return s.execShow(stmt)
	case *sqlparse.ExplainStmt:
		return s.execExplain(stmt)
	case *sqlparse.AnalyzeStmt:
		return s.execAnalyze(stmt)
	case *sqlparse.AlterAcceleratorStmt:
		return s.execAlterAccelerator(stmt)
	}

	tx, done := s.stmtTxn()
	res, err := s.execInTxn(tx, st)
	if ferr := done(err); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Transaction plumbing
// ---------------------------------------------------------------------------

// stmtTxn returns the transaction a statement should run under and a finaliser.
// Inside an explicit transaction the finaliser is a no-op; otherwise an
// implicit transaction is created and committed/rolled back around the
// statement (auto-commit).
func (s *Session) stmtTxn() (*txn.Txn, func(error) error) {
	if s.tx != nil {
		return s.tx, func(err error) error { return err }
	}
	tx := s.coord.DB2.Begin(true)
	return tx, func(err error) error {
		if err != nil {
			s.abortTxn(tx)
			return err
		}
		return s.commitTxn(tx)
	}
}

func (s *Session) addParticipant(a accel.Backend) {
	s.participants[a.Name()] = a
}

// commitTxn runs the commit handshake: prepare every participating
// accelerator, commit DB2, then commit the accelerators. A prepare failure
// rolls everything back. Failpoints let tests exercise coordinator crashes
// between the stages; once DB2 has committed, the accelerators are always
// driven to commit as well (in-doubt resolution in favour of commit).
func (s *Session) commitTxn(tx *txn.Txn) error {
	for _, a := range s.participants {
		if err := a.Prepare(int64(tx.ID)); err != nil {
			s.abortTxn(tx)
			return fmt.Errorf("federation: accelerator %s failed to prepare: %w", a.Name(), err)
		}
	}
	if err := s.coord.failpoint("after-prepare"); err != nil {
		s.abortTxn(tx)
		return err
	}
	db2Err := s.coord.DB2.Commit(tx)
	failpointErr := s.coord.failpoint("after-db2-commit")
	for _, a := range orderGroupsFirst(s.participants) {
		a.CommitTxn(int64(tx.ID))
	}
	s.participants = make(map[string]accel.Backend)
	// Accelerator commit records and DDL/catalog records are appended without
	// their own fsync; this group-shared barrier makes everything journaled
	// so far durable before the statement is acknowledged, and surfaces a
	// poisoned log as a commit error. It is a no-op when nothing was appended
	// since the last sync (pure reads, or DB2's own commit barrier covered it).
	barrierErr := s.coord.commitBarrier()
	if failpointErr != nil {
		return failpointErr
	}
	if db2Err != nil {
		return db2Err
	}
	return barrierErr
}

func (s *Session) abortTxn(tx *txn.Txn) {
	_ = s.coord.DB2.Rollback(tx)
	participants := orderGroupsFirst(s.participants)
	for _, a := range participants {
		a.AbortTxn(int64(tx.ID))
	}
	s.participants = make(map[string]accel.Backend)
	s.coord.Events.Emitf(eventlog.TypeTxnAborted, eventlog.Warn, "", "",
		fmt.Sprintf("transaction %d rolled back (user %s, %d accelerator participant(s))", tx.ID, s.user, len(participants)))
}

// orderGroupsFirst returns the participants with shard groups ahead of plain
// accelerators. A shard group's CommitTxn commits every member under its
// visibility fence; committing groups first means a member that also
// participated directly (e.g. an AOT on one fleet accelerator) is already
// committed when its own turn comes, so no member's visibility ever flips
// outside the fence.
func orderGroupsFirst(participants map[string]accel.Backend) []accel.Backend {
	out := make([]accel.Backend, 0, len(participants))
	for _, a := range participants {
		if _, isGroup := a.(*shard.Router); isGroup {
			out = append(out, a)
		}
	}
	for _, a := range participants {
		if _, isGroup := a.(*shard.Router); !isGroup {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Statement execution inside a transaction
// ---------------------------------------------------------------------------

func (s *Session) execInTxn(tx *txn.Txn, st sqlparse.Statement) (*Result, error) {
	switch stmt := st.(type) {
	case *sqlparse.SelectStmt:
		return s.execSelect(tx, stmt)
	case *sqlparse.CreateTableStmt:
		return s.execCreateTable(tx, stmt)
	case *sqlparse.DropTableStmt:
		return s.execDropTable(stmt)
	case *sqlparse.TruncateStmt:
		return s.execTruncate(tx, stmt)
	case *sqlparse.InsertStmt:
		return s.execInsert(tx, stmt)
	case *sqlparse.UpdateStmt:
		return s.execUpdate(tx, stmt)
	case *sqlparse.DeleteStmt:
		return s.execDelete(tx, stmt)
	case *sqlparse.GrantStmt:
		return s.execGrant(stmt)
	case *sqlparse.RevokeStmt:
		return s.execRevoke(stmt)
	case *sqlparse.CallStmt:
		return s.execCall(tx, stmt)
	default:
		return nil, fmt.Errorf("federation: unsupported statement %T", st)
	}
}

// execSelect routes and runs a query.
func (s *Session) execSelect(tx *txn.Txn, sel *sqlparse.SelectStmt) (*Result, error) {
	rel, routed, err := s.runSelect(tx, sel)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&s.coord.metrics.RowsReturnedToClient, int64(len(rel.Rows)))
	return relationResult(rel, routed), nil
}

// runSelect checks privileges, routes and executes a SELECT, returning the
// relation and the system it ran on.
func (s *Session) runSelect(tx *txn.Txn, sel *sqlparse.SelectStmt) (*relalg.Relation, string, error) {
	dec, err := s.checkAndRoute(sel)
	if err != nil {
		return nil, "", err
	}
	s.coord.noteRouting(dec.offload)
	rel, err := s.runRouted(tx, dec, sel, s.execSpan())
	if err != nil {
		return nil, "", err
	}
	if dec.offload {
		return rel, dec.accelName, nil
	}
	return rel, "DB2", nil
}

// checkAndRoute checks the session's SELECT privilege on every table sel
// references and decides where sel runs.
func (s *Session) checkAndRoute(sel *sqlparse.SelectStmt) (routeDecision, error) {
	for _, t := range sqlparse.ReferencedTables(sel) {
		if err := s.coord.cat.CheckPrivilege(s.user, t, catalog.PrivSelect); err != nil {
			return routeDecision{}, err
		}
	}
	return s.routeSelect(sel)
}

// runRouted executes sel under tx where dec sends it: on the accelerator,
// its work attached to sp, or in DB2 under a "db2" child of sp.
func (s *Session) runRouted(tx *txn.Txn, dec routeDecision, sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, error) {
	if dec.offload {
		return dec.accel.QueryTraced(int64(tx.ID), sel, sp)
	}
	dsp := sp.Child("db2")
	defer dsp.Finish()
	return s.coord.DB2.Query(tx, sel)
}

// routeDecision captures where a query will run and why.
type routeDecision struct {
	offload   bool
	accel     accel.Backend
	accelName string
	reason    string
}

// routeSelect implements the offload rules: queries referencing an
// accelerator-only table must run on its accelerator; queries whose tables all
// have accelerator copies are offloaded when acceleration is enabled;
// everything else runs in DB2 (or fails under ACCELERATION ALL).
func (s *Session) routeSelect(sel *sqlparse.SelectStmt) (routeDecision, error) {
	tables := sqlparse.ReferencedTables(sel)
	if len(tables) == 0 {
		return routeDecision{offload: false, reason: "no table references"}, nil
	}
	anyAOT := false
	allAccelResident := true
	accelName := ""
	for _, t := range tables {
		meta, err := s.coord.cat.Table(t)
		if err != nil {
			return routeDecision{}, err
		}
		switch meta.Kind {
		case catalog.KindAcceleratorOnly:
			anyAOT = true
			if accelName == "" {
				accelName = meta.Accelerator
			} else if accelName != meta.Accelerator {
				return routeDecision{}, fmt.Errorf("federation: query references tables on different accelerators (%s, %s)", accelName, meta.Accelerator)
			}
		case catalog.KindAccelerated:
			if accelName == "" {
				accelName = meta.Accelerator
			} else if accelName != meta.Accelerator {
				return routeDecision{}, fmt.Errorf("federation: query references tables on different accelerators (%s, %s)", accelName, meta.Accelerator)
			}
		case catalog.KindRegular:
			allAccelResident = false
		}
	}
	if anyAOT {
		if !allAccelResident {
			return routeDecision{}, fmt.Errorf("federation: query mixes accelerator-only tables with tables that have no accelerator copy")
		}
		if s.mode == AccelerationNone {
			return routeDecision{}, fmt.Errorf("federation: CURRENT QUERY ACCELERATION is NONE but the query references accelerator-only tables")
		}
		a, err := s.coord.Accelerator(accelName)
		if err != nil {
			return routeDecision{}, err
		}
		return routeDecision{offload: true, accel: a, accelName: accelName, reason: "references accelerator-only tables"}, nil
	}
	if s.mode == AccelerationNone {
		return routeDecision{offload: false, reason: "CURRENT QUERY ACCELERATION = NONE"}, nil
	}
	if allAccelResident && accelName != "" {
		a, err := s.coord.Accelerator(accelName)
		if err != nil {
			return routeDecision{}, err
		}
		return routeDecision{offload: true, accel: a, accelName: accelName, reason: "all referenced tables are accelerated"}, nil
	}
	if s.mode == AccelerationAll {
		return routeDecision{}, fmt.Errorf("federation: CURRENT QUERY ACCELERATION is ALL but the query is not accelerable")
	}
	return routeDecision{offload: false, reason: "referenced tables are not (all) accelerated"}, nil
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

func (s *Session) execCreateTable(tx *txn.Txn, stmt *sqlparse.CreateTableStmt) (*Result, error) {
	routed := "DB2"
	if stmt.InAccelerator != "" {
		if err := s.coord.AOTs.Create(s.user, stmt); err != nil {
			return nil, err
		}
		routed = types.NormalizeName(stmt.InAccelerator)
	} else {
		if len(stmt.Columns) == 0 && stmt.AsSelect != nil {
			return nil, fmt.Errorf("federation: CREATE TABLE ... AS SELECT without a column list requires IN ACCELERATOR in this implementation")
		}
		schema := db2SchemaFromDefs(stmt.Columns)
		if err := s.coord.DB2.CreateTable(stmt.Table, schema, s.user); err != nil {
			if stmt.IfNotExists && s.coord.cat.HasTable(stmt.Table) {
				return &Result{Message: "table already exists", Routed: routed}, nil
			}
			return nil, err
		}
	}
	affected := 0
	if stmt.AsSelect != nil {
		ins := &sqlparse.InsertStmt{Table: stmt.Table, Select: stmt.AsSelect}
		res, err := s.execInsert(tx, ins)
		if err != nil {
			return nil, err
		}
		affected = res.RowsAffected
	}
	return &Result{RowsAffected: affected, Routed: routed, Message: "table " + types.NormalizeName(stmt.Table) + " created"}, nil
}

func (s *Session) execDropTable(stmt *sqlparse.DropTableStmt) (*Result, error) {
	meta, err := s.coord.cat.Table(stmt.Table)
	if err != nil {
		if stmt.IfExists {
			return &Result{Message: "table does not exist", Routed: "DB2"}, nil
		}
		return nil, err
	}
	if err := s.checkOwnership(meta); err != nil {
		return nil, err
	}
	switch meta.Kind {
	case catalog.KindAcceleratorOnly:
		if err := s.coord.AOTs.Drop(meta.Name); err != nil {
			return nil, err
		}
		return &Result{Routed: meta.Accelerator, Message: "accelerator-only table dropped"}, nil
	case catalog.KindAccelerated:
		a, err := s.coord.Accelerator(meta.Accelerator)
		if err == nil && a.HasTable(meta.Name) {
			_ = a.DropTable(meta.Name)
		}
		if err := s.coord.DB2.DropTable(meta.Name); err != nil {
			return nil, err
		}
		return &Result{Routed: "DB2", Message: "accelerated table dropped"}, nil
	default:
		if err := s.coord.DB2.DropTable(meta.Name); err != nil {
			return nil, err
		}
		return &Result{Routed: "DB2", Message: "table dropped"}, nil
	}
}

func (s *Session) execTruncate(tx *txn.Txn, stmt *sqlparse.TruncateStmt) (*Result, error) {
	meta, onAccel, err := s.writeTarget(tx, stmt.Table, catalog.PrivDelete)
	if err != nil {
		return nil, err
	}
	if onAccel != nil {
		n, err := onAccel(func(a accel.Backend, txnID int64) (int, error) { return a.Truncate(txnID, meta.Name) })
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Routed: meta.Accelerator}, nil
	}
	n, err := s.coord.DB2.Truncate(tx, meta.Name)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n, Routed: "DB2"}, nil
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// accelWrite runs one write on the accelerator of a write statement's target
// table, under the statement's transaction (see writeTarget).
type accelWrite func(write func(a accel.Backend, txnID int64) (int, error)) (int, error)

// writeTarget resolves the table an INSERT, UPDATE, DELETE or TRUNCATE writes
// and checks priv. For an accelerator-only table it also returns onAccel,
// which registers the table's accelerator as a participant of tx and runs a
// write there; onAccel is nil for a DB2 table. The accelerator has no
// per-statement undo, so when that write fails inside an explicit
// transaction, onAccel rolls the whole transaction back and says so. DB2
// needs no such rule: it matches every row before it writes one.
func (s *Session) writeTarget(tx *txn.Txn, table, priv string) (*catalog.Table, accelWrite, error) {
	meta, err := s.coord.cat.Table(table)
	if err != nil {
		return nil, nil, err
	}
	if err := s.coord.cat.CheckPrivilege(s.user, meta.Name, priv); err != nil {
		return nil, nil, err
	}
	if meta.Kind != catalog.KindAcceleratorOnly {
		return meta, nil, nil
	}
	return meta, func(write func(a accel.Backend, txnID int64) (int, error)) (int, error) {
		a, err := s.coord.Accelerator(meta.Accelerator)
		if err != nil {
			return 0, err
		}
		s.addParticipant(a)
		n, err := write(a, int64(tx.ID))
		if err != nil && s.explicit && s.tx == tx {
			s.tx, s.explicit = nil, false
			s.abortTxn(tx)
			return 0, fmt.Errorf("%w (transaction rolled back: a failed accelerator write cannot be undone on its own)", err)
		}
		return n, err
	}, nil
}

func (s *Session) execInsert(tx *txn.Txn, stmt *sqlparse.InsertStmt) (*Result, error) {
	meta, onAccel, err := s.writeTarget(tx, stmt.Table, catalog.PrivInsert)
	if err != nil {
		return nil, err
	}

	sourceRouted := ""
	var rows []types.Row
	if stmt.Select != nil {
		rel, routed, err := s.runSelect(tx, stmt.Select)
		if err != nil {
			return nil, err
		}
		sourceRouted = routed
		rows, err = expr.MapSelectRows(stmt.Columns, rel.Rows, meta.Schema)
		if err != nil {
			return nil, err
		}
	} else {
		rows, err = expr.BuildInsertRows(stmt.Columns, stmt.Rows, meta.Schema)
		if err != nil {
			return nil, err
		}
	}

	if onAccel != nil {
		n, err := onAccel(func(a accel.Backend, txnID int64) (int, error) { return a.Insert(txnID, meta.Name, rows) })
		if err != nil {
			return nil, err
		}
		routed := meta.Accelerator
		if sourceRouted == "DB2" {
			s.coord.addMoved(true, n)
			routed = "DB2->" + meta.Accelerator
		} else if sourceRouted == "" && stmt.Select == nil {
			// VALUES travel from the application through DB2 to the accelerator.
			s.coord.addMoved(true, n)
		}
		return &Result{RowsAffected: n, Routed: routed}, nil
	}

	n, err := s.coord.DB2.Insert(tx, meta.Name, rows)
	if err != nil {
		return nil, err
	}
	routed := "DB2"
	if sourceRouted != "" && sourceRouted != "DB2" {
		s.coord.addMoved(false, n)
		routed = sourceRouted + "->DB2"
	}
	return &Result{RowsAffected: n, Routed: routed}, nil
}

func (s *Session) execUpdate(tx *txn.Txn, stmt *sqlparse.UpdateStmt) (*Result, error) {
	meta, onAccel, err := s.writeTarget(tx, stmt.Table, catalog.PrivUpdate)
	if err != nil {
		return nil, err
	}
	if onAccel != nil {
		n, err := onAccel(func(a accel.Backend, txnID int64) (int, error) {
			return a.Update(txnID, meta.Name, stmt.Assignments, stmt.Where)
		})
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Routed: meta.Accelerator}, nil
	}
	n, err := s.coord.DB2.Update(tx, meta.Name, stmt.Assignments, stmt.Where)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n, Routed: "DB2"}, nil
}

func (s *Session) execDelete(tx *txn.Txn, stmt *sqlparse.DeleteStmt) (*Result, error) {
	meta, onAccel, err := s.writeTarget(tx, stmt.Table, catalog.PrivDelete)
	if err != nil {
		return nil, err
	}
	if onAccel != nil {
		n, err := onAccel(func(a accel.Backend, txnID int64) (int, error) { return a.Delete(txnID, meta.Name, stmt.Where) })
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Routed: meta.Accelerator}, nil
	}
	n, err := s.coord.DB2.Delete(tx, meta.Name, stmt.Where)
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n, Routed: "DB2"}, nil
}

// ---------------------------------------------------------------------------
// Governance
// ---------------------------------------------------------------------------

func (s *Session) checkOwnership(meta *catalog.Table) error {
	if s.user == types.NormalizeName(s.coord.cfg.AdminUser) || s.user == catalog.AdminUser {
		return nil
	}
	if types.NormalizeName(meta.Owner) == s.user {
		return nil
	}
	return &catalog.ErrNotAuthorized{User: s.user, Privilege: "CONTROL", Object: meta.Name}
}

func (s *Session) execGrant(stmt *sqlparse.GrantStmt) (*Result, error) {
	meta, err := s.coord.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := s.checkOwnership(meta); err != nil {
		return nil, err
	}
	s.coord.cat.Grant(stmt.Grantee, meta.Name, stmt.Privileges...)
	return &Result{Routed: "DB2", Message: fmt.Sprintf("granted %s on %s to %s", strings.Join(stmt.Privileges, ","), meta.Name, stmt.Grantee)}, nil
}

func (s *Session) execRevoke(stmt *sqlparse.RevokeStmt) (*Result, error) {
	meta, err := s.coord.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := s.checkOwnership(meta); err != nil {
		return nil, err
	}
	s.coord.cat.Revoke(stmt.Grantee, meta.Name, stmt.Privileges...)
	return &Result{Routed: "DB2", Message: fmt.Sprintf("revoked %s on %s from %s", strings.Join(stmt.Privileges, ","), meta.Name, stmt.Grantee)}, nil
}

// ---------------------------------------------------------------------------
// Procedures (the analytics framework entry point)
// ---------------------------------------------------------------------------

func (s *Session) execCall(tx *txn.Txn, stmt *sqlparse.CallStmt) (*Result, error) {
	atomic.AddInt64(&s.coord.metrics.ProcedureCalls, 1)
	env := expr.NewEnv(nil)
	args := make([]types.Value, len(stmt.Args))
	for i, a := range stmt.Args {
		v, err := env.Eval(a, nil)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	acc, err := s.coord.Accelerator("")
	if err != nil {
		return nil, err
	}
	ctx := &core.ProcContext{
		User:        s.user,
		TxnID:       int64(tx.ID),
		Catalog:     s.coord.cat,
		Accelerator: acc,
		AOTs:        s.coord.AOTs,
		Span:        s.execSpan(),
		Query: func(sel *sqlparse.SelectStmt) (*relalg.Relation, error) {
			rel, _, err := s.runSelect(tx, sel)
			return rel, err
		},
		Exec: func(inner sqlparse.Statement) (int, error) {
			res, err := s.execInTxn(tx, inner)
			if err != nil {
				return 0, err
			}
			return res.RowsAffected, nil
		},
		InsertRows: func(table string, rows []types.Row) (int, error) {
			n, err := s.insertMaterialized(tx, table, rows)
			if err != nil {
				return 0, err
			}
			// Procedure output rows are produced on the accelerator; writing
			// them to a DB2-resident table is cross-system movement.
			if meta, merr := s.coord.cat.Table(table); merr == nil && meta.Kind != catalog.KindAcceleratorOnly {
				s.coord.addMoved(false, n)
			}
			return n, nil
		},
		BackendFor: func(table string) accel.Backend {
			meta, err := s.coord.cat.Table(table)
			if err != nil || meta.Accelerator == "" {
				return nil
			}
			b, err := s.coord.Accelerator(meta.Accelerator)
			if err != nil {
				return nil
			}
			return b
		},
	}
	procRes, err := s.coord.Procs.Call(ctx, stmt.Procedure, args)
	if err != nil {
		return nil, err
	}
	res := &Result{
		RowsAffected: procRes.RowsAffected,
		Routed:       acc.Name(),
		Message:      procRes.Message,
	}
	if procRes.Relation != nil {
		filled := relationResult(procRes.Relation, acc.Name())
		res.Columns = filled.Columns
		res.Rows = filled.Rows
	}
	return res, nil
}

// insertMaterialized writes already-materialised rows (produced on the
// accelerator, e.g. by an analytics procedure) into a table under the given
// transaction, with the usual privilege check and AOT delegation. Rows
// written to an AOT stay on the accelerator and are not counted as moved.
func (s *Session) insertMaterialized(tx *txn.Txn, table string, rows []types.Row) (int, error) {
	meta, onAccel, err := s.writeTarget(tx, table, catalog.PrivInsert)
	if err != nil {
		return 0, err
	}
	if onAccel != nil {
		return onAccel(func(a accel.Backend, txnID int64) (int, error) { return a.Insert(txnID, meta.Name, rows) })
	}
	return s.coord.DB2.Insert(tx, meta.Name, rows)
}

// ---------------------------------------------------------------------------
// Session control, SHOW, EXPLAIN
// ---------------------------------------------------------------------------

func (s *Session) execSet(stmt *sqlparse.SetStmt) (*Result, error) {
	name := strings.ToUpper(strings.TrimSpace(stmt.Name))
	if strings.Contains(name, "QUERY ACCELERATION") || name == "ACCELERATION" {
		mode, err := ParseAccelerationMode(stmt.Value)
		if err != nil {
			return nil, err
		}
		s.mode = mode
		return &Result{Message: "CURRENT QUERY ACCELERATION = " + mode.String(), Routed: "DB2"}, nil
	}
	return nil, fmt.Errorf("federation: unknown special register %q", stmt.Name)
}

func (s *Session) execShow(stmt *sqlparse.ShowStmt) (*Result, error) {
	switch types.NormalizeName(stmt.What) {
	case "TABLES":
		res := &Result{Columns: []string{"NAME", "KIND", "ACCELERATOR", "DB2_ROWS", "ACCEL_ROWS"}, Routed: "DB2"}
		for _, meta := range s.coord.cat.Tables() {
			db2Rows := int64(-1)
			if st, err := s.coord.DB2.Storage(meta.Name); err == nil {
				db2Rows = int64(st.RowCount())
			}
			accelRows := int64(-1)
			if meta.Kind != catalog.KindRegular {
				if a, err := s.coord.Accelerator(meta.Accelerator); err == nil {
					if n, err := a.RowCount(0, meta.Name); err == nil {
						accelRows = int64(n)
					}
				}
			}
			res.Rows = append(res.Rows, types.Row{
				types.NewString(meta.Name),
				types.NewString(meta.Kind.String()),
				types.NewString(meta.Accelerator),
				types.NewInt(db2Rows),
				types.NewInt(accelRows),
			})
		}
		return res, nil
	case "ACCELERATORS":
		res := &Result{Columns: []string{"NAME", "SLICES", "TABLES", "QUERIES", "ROWS_SCANNED", "BLOCKS_PRUNED", "ROWS_INGESTED"}, Routed: "DB2"}
		for _, name := range s.coord.Accelerators() {
			a, err := s.coord.Accelerator(name)
			if err != nil {
				continue
			}
			st := a.Stats()
			res.Rows = append(res.Rows, types.Row{
				types.NewString(name),
				types.NewInt(int64(st.Slices)),
				types.NewInt(int64(st.Tables)),
				types.NewInt(st.QueriesRun),
				types.NewInt(st.RowsScanned),
				types.NewInt(st.BlocksPruned),
				types.NewInt(st.RowsIngested),
			})
		}
		return res, nil
	case "PROCEDURES":
		res := &Result{Columns: []string{"NAME"}, Routed: "DB2"}
		for _, name := range s.coord.Procs.List() {
			res.Rows = append(res.Rows, types.Row{types.NewString(name)})
		}
		return res, nil
	default:
		return nil, fmt.Errorf("federation: SHOW %s is not supported (use TABLES, ACCELERATORS or PROCEDURES)", stmt.What)
	}
}

// execExplain renders the routing decision and — for offloaded SELECTs — the
// cost-based execution plan: scan cardinalities with pushdown predicates,
// the chosen join order and methods, and the shard placement (co-located /
// broadcast / gather, with the pruned candidate shard set). The first row is
// the routing summary; subsequent rows carry one plan line each.
//
// EXPLAIN ANALYZE additionally executes the SELECT under a trace span and
// annotates each plan operator with what it actually did — rows produced,
// elapsed time (the longest single-shard scan for a scatter), participating
// shards, blocks pruned — beside the planner's estimates.
func (s *Session) execExplain(stmt *sqlparse.ExplainStmt) (*Result, error) {
	res := &Result{Columns: []string{"STATEMENT", "ROUTED_TO", "REASON", "PLAN"}, Routed: "DB2"}
	summary := func(stmtName, to, reason string) {
		res.Rows = append(res.Rows, types.Row{
			types.NewString(stmtName), types.NewString(to), types.NewString(reason), types.NewString(""),
		})
	}
	planLine := func(line string) {
		res.Rows = append(res.Rows, types.Row{
			types.NewString(""), types.NewString(""), types.NewString(""), types.NewString(line),
		})
	}
	switch target := stmt.Target.(type) {
	case *sqlparse.SelectStmt:
		dec, err := s.routeSelect(target)
		if err != nil {
			return nil, err
		}
		to := "DB2"
		if dec.offload {
			to = dec.accelName
		}
		summary("SELECT", to, dec.reason)
		if !dec.offload {
			if stmt.Analyze {
				rel, elapsed, err := s.executeForAnalyze(target, nil)
				if err != nil {
					return nil, err
				}
				planLine("execution: DB2 row engine (no accelerator plan)")
				planLine(fmt.Sprintf("actual rows=%d time=%.3fms", len(rel.Rows), float64(elapsed)/float64(time.Millisecond)))
			}
			break
		}
		plan, err := dec.accel.Explain(target)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			break
		}
		lines := plan.Describe()
		if stmt.Analyze {
			xsp := obs.NewSpan("execute")
			rel, _, err := s.executeForAnalyze(target, xsp)
			if err != nil {
				return nil, err
			}
			xsp.Finish()
			lines = plan.DescribeAnalyze(actualsFromSpan(xsp, len(rel.Rows)))
		}
		for _, line := range lines {
			planLine(line)
		}
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt, *sqlparse.TruncateStmt:
		tables := sqlparse.StatementTables(stmt.Target)
		to, reason := "DB2", "target table is DB2-resident"
		if len(tables) > 0 {
			if meta, err := s.coord.cat.Table(tables[0]); err == nil && meta.Kind == catalog.KindAcceleratorOnly {
				to, reason = meta.Accelerator, "target table is accelerator-only"
			}
		}
		summary(fmt.Sprintf("%T", stmt.Target), to, reason)
	default:
		summary(fmt.Sprintf("%T", stmt.Target), "DB2", "statement type always runs in DB2")
	}
	return res, nil
}

// executeForAnalyze runs a SELECT on behalf of EXPLAIN ANALYZE, attaching the
// backend's work to sp (nil for a DB2-routed statement, where only the total
// is reported). The usual privilege checks and auto-commit rules apply, so an
// EXPLAIN ANALYZE inside an explicit transaction sees that transaction's
// snapshot.
func (s *Session) executeForAnalyze(sel *sqlparse.SelectStmt, sp *obs.Span) (*relalg.Relation, time.Duration, error) {
	dec, err := s.checkAndRoute(sel)
	if err != nil {
		return nil, 0, err
	}
	tx, done := s.stmtTxn()
	start := time.Now()
	rel, err := s.runRouted(tx, dec, sel, sp)
	elapsed := time.Since(start)
	if ferr := done(err); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return nil, 0, err
	}
	return rel, elapsed, nil
}

// execAlterAccelerator implements the elastic-fleet DDL: ALTER ACCELERATOR
// <group> ADD MEMBER <name> [SLICES n] grows the shard group and starts a
// background rebalance; REMOVE MEMBER drains the member and detaches it,
// blocking until the drain completes. Changing fleet topology is an
// administrative action.
func (s *Session) execAlterAccelerator(stmt *sqlparse.AlterAcceleratorStmt) (*Result, error) {
	if s.user != types.NormalizeName(s.coord.cfg.AdminUser) && s.user != catalog.AdminUser {
		return nil, &catalog.ErrNotAuthorized{User: s.user, Privilege: "CONTROL", Object: types.NormalizeName(stmt.Accelerator)}
	}
	group := types.NormalizeName(stmt.Accelerator)
	member := types.NormalizeName(stmt.Member)
	if stmt.Remove {
		if err := s.coord.RemoveShardMember(group, member); err != nil {
			return nil, err
		}
		return &Result{
			Routed:  group,
			Message: fmt.Sprintf("member %s drained and removed from %s", member, group),
		}, nil
	}
	if err := s.coord.AddShardMember(group, member, stmt.Slices); err != nil {
		return nil, err
	}
	return &Result{
		Routed:  group,
		Message: fmt.Sprintf("member %s added to %s; rebalance started", member, group),
	}, nil
}

// execAnalyze implements ANALYZE TABLE: rebuild the table's planner
// statistics on its accelerator (every shard for a sharded table).
func (s *Session) execAnalyze(stmt *sqlparse.AnalyzeStmt) (*Result, error) {
	meta, err := s.coord.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := s.coord.cat.CheckPrivilege(s.user, meta.Name, catalog.PrivSelect); err != nil {
		return nil, err
	}
	if meta.Kind == catalog.KindRegular {
		return nil, fmt.Errorf("federation: ANALYZE TABLE %s: the table has no accelerator copy (planner statistics live on the accelerators)", meta.Name)
	}
	a, err := s.coord.Accelerator(meta.Accelerator)
	if err != nil {
		return nil, err
	}
	n, err := a.Analyze(meta.Name)
	if err != nil {
		return nil, err
	}
	return &Result{
		RowsAffected: n,
		Routed:       meta.Accelerator,
		Message:      fmt.Sprintf("analyzed %s: %d rows", meta.Name, n),
	}, nil
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

func relationResult(rel *relalg.Relation, routed string) *Result {
	cols := make([]string, len(rel.Cols))
	for i, c := range rel.Cols {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("COL%d", i+1)
		}
		cols[i] = name
	}
	return &Result{Columns: cols, Rows: rel.Rows, Routed: routed}
}

func db2SchemaFromDefs(defs []sqlparse.ColumnDef) types.Schema {
	cols := make([]types.Column, len(defs))
	for i, d := range defs {
		cols[i] = types.Column{Name: d.Name, Kind: d.Kind, NotNull: d.NotNull}
	}
	return types.NewSchema(cols...)
}
