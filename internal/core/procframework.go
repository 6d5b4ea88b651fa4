package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"idaax/internal/accel"
	"idaax/internal/catalog"
	"idaax/internal/obs"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// ProcContext is the execution context handed to a procedure. Procedures run
// "on the accelerator" conceptually; the Query and Exec callbacks are provided
// by the federation layer and already perform routing and data-movement
// accounting, so a procedure that reads accelerated tables and writes AOTs
// never moves data through DB2.
type ProcContext struct {
	// User is the DB2 authorization id invoking the procedure.
	User string
	// TxnID is the DB2 transaction the CALL runs under (0 for auto-commit).
	TxnID int64
	// Catalog is the DB2 catalog (for metadata lookups and privilege checks).
	Catalog *catalog.Catalog
	// Accelerator is the accelerator the procedure executes on.
	Accelerator accel.Backend
	// AOTs creates/drops accelerator-only tables for procedure outputs.
	AOTs *AOTManager
	// Query executes a SELECT with full routing (including privilege checks).
	Query func(sel *sqlparse.SelectStmt) (*relalg.Relation, error)
	// Exec executes a non-query statement with full routing.
	Exec func(stmt sqlparse.Statement) (int, error)
	// InsertRows bulk-inserts already-materialised rows into a table under the
	// calling transaction, with the same routing, privilege checks and
	// data-movement accounting as an INSERT statement. Procedures use it to
	// write model tables and scored result sets without converting rows back
	// into SQL literals.
	InsertRows func(table string, rows []types.Row) (int, error)
	// BackendFor resolves the backend hosting an accelerated table's rows
	// (possibly a shard group, unlike Accelerator which is the session's
	// default backend); nil when the table is not accelerated or unknown.
	// Analytics procedures use it to scatter training and scoring
	// shard-local instead of gathering the table; nil (e.g. in a hand-built
	// context) simply disables the scatter path.
	BackendFor func(table string) accel.Backend
	// Span is the calling statement's trace span; analytics scatters attach
	// their per-shard partition spans beneath it so a CALL's trace shows the
	// same fan-out a query's does. May be nil (tracing off).
	Span *obs.Span
}

// QuerySQL parses and runs a SELECT given as text.
func (c *ProcContext) QuerySQL(sql string) (*relalg.Relation, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: expected a SELECT, got %T", st)
	}
	return c.Query(sel)
}

// ExecSQL parses and runs a non-query statement given as text.
func (c *ProcContext) ExecSQL(sql string) (int, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return 0, err
	}
	return c.Exec(st)
}

// ProcResult is what a procedure returns to the caller.
type ProcResult struct {
	// Relation is an optional result set returned to the client.
	Relation *relalg.Relation
	// Message is a human-readable completion message.
	Message string
	// RowsAffected counts rows written by the procedure (e.g. scored rows).
	RowsAffected int
	// OutputTables lists tables (usually AOTs) the procedure materialised.
	OutputTables []string
}

// Procedure is an analytics or administrative operation invocable via CALL.
// Its registration declares, by argument position, the tables a CALL
// touches, and Framework.Call checks the declaration against the catalog
// before Run executes. A declared argument names one table or a comma list
// of them; an absent or empty one names none. A procedure that declares
// nothing is governed by the routed Query, Exec and InsertRows calls its
// body makes.
type Procedure struct {
	// Name is the procedure name as used in CALL (qualified names allowed).
	Name string
	// Description is a one-line summary shown by SHOW PROCEDURES-style tools.
	Description string
	// Reads lists the arguments naming tables the caller must hold SELECT on.
	Reads []int
	// Replaces lists the arguments naming output tables the CALL drops and
	// recreates; each must pass catalog.CheckReplace.
	Replaces []int
	// Controls lists the arguments naming tables the caller must hold
	// CONTROL on.
	Controls []int
	// AdminOnly restricts the CALL to SYSADM (catalog.CheckAdmin).
	AdminOnly bool
	// Run is the procedure body.
	Run func(ctx *ProcContext, args []types.Value) (*ProcResult, error)
}

// Framework is the registry and dispatcher for analytics procedures. It is the
// generic mechanism the paper describes for passing "code for arbitrary
// algorithms" to the accelerator while privilege management stays in DB2: the
// EXECUTE privilege on each procedure is recorded in the DB2 catalog and
// checked before dispatch.
type Framework struct {
	cat *catalog.Catalog

	mu    sync.RWMutex
	procs map[string]*Procedure
}

// NewFramework creates an empty procedure framework.
func NewFramework(cat *catalog.Catalog) *Framework {
	return &Framework{cat: cat, procs: make(map[string]*Procedure)}
}

// Register adds a procedure. When public is true, EXECUTE is granted to
// PUBLIC (the usual setting for the built-in SYSPROC.ACCEL_* procedures);
// otherwise only SYSADM and explicit grantees may call it.
func (f *Framework) Register(p Procedure, public bool) error {
	name := types.NormalizeName(p.Name)
	if name == "" {
		return fmt.Errorf("core: procedure requires a name")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.procs[name]; ok {
		return fmt.Errorf("core: procedure %s is already registered", name)
	}
	p.Name = name
	f.procs[name] = &p
	if public {
		f.cat.Grant(catalog.PublicGrantee, catalog.ProcedureObject(name), catalog.PrivExecute)
	}
	return nil
}

// MustRegister registers a procedure and panics on conflicts; used during
// system start-up where a duplicate registration is a programming error.
func (f *Framework) MustRegister(p Procedure, public bool) {
	if err := f.Register(p, public); err != nil {
		panic(err)
	}
}

// GrantExecute grants EXECUTE on a registered procedure to a user.
func (f *Framework) GrantExecute(procName, grantee string) error {
	name := types.NormalizeName(procName)
	f.mu.RLock()
	_, ok := f.procs[name]
	f.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: procedure %s is not registered", name)
	}
	f.cat.Grant(grantee, catalog.ProcedureObject(name), catalog.PrivExecute)
	return nil
}

// RevokeExecute revokes EXECUTE on a registered procedure from a user.
func (f *Framework) RevokeExecute(procName, grantee string) {
	f.cat.Revoke(grantee, catalog.ProcedureObject(types.NormalizeName(procName)), catalog.PrivExecute)
}

// Lookup returns the registered procedure.
func (f *Framework) Lookup(name string) (*Procedure, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	p, ok := f.procs[types.NormalizeName(name)]
	return p, ok
}

// List returns all registered procedure names, sorted.
func (f *Framework) List() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.procs))
	for name := range f.procs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Call dispatches a procedure invocation: it checks, in the DB2 catalog, the
// EXECUTE privilege and then the procedure's declared access, and only then
// runs the body. This is the single entry point the federation layer uses
// for CALL statements.
func (f *Framework) Call(ctx *ProcContext, name string, args []types.Value) (*ProcResult, error) {
	proc, ok := f.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: procedure %s is not registered", types.NormalizeName(name))
	}
	if err := f.authorize(ctx.User, proc, args); err != nil {
		return nil, err
	}
	res, err := proc.Run(ctx, args)
	if err != nil {
		return nil, fmt.Errorf("core: procedure %s failed: %w", proc.Name, err)
	}
	if res == nil {
		res = &ProcResult{Message: "ok"}
	}
	return res, nil
}

// authorize checks that user may CALL p with args: EXECUTE on p, SYSADM when
// p is AdminOnly, then every table its declaration names.
func (f *Framework) authorize(user string, p *Procedure, args []types.Value) error {
	object := catalog.ProcedureObject(p.Name)
	if err := f.cat.CheckPrivilege(user, object, catalog.PrivExecute); err != nil {
		return err
	}
	if p.AdminOnly {
		if err := catalog.CheckAdmin(user, object); err != nil {
			return err
		}
	}
	each := func(positions []int, check func(table string) error) error {
		for _, i := range positions {
			for _, table := range SplitList(ArgStringDefault(args, i, "")) {
				if err := check(table); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := each(p.Reads, func(t string) error { return f.cat.CheckPrivilege(user, t, catalog.PrivSelect) }); err != nil {
		return err
	}
	if err := each(p.Controls, func(t string) error { return f.cat.CheckPrivilege(user, t, catalog.PrivControl) }); err != nil {
		return err
	}
	return each(p.Replaces, func(t string) error { return f.cat.CheckReplace(user, t) })
}

// ---------------------------------------------------------------------------
// Argument helpers shared by procedure implementations
// ---------------------------------------------------------------------------

// ArgString extracts the i-th argument as a string.
func ArgString(args []types.Value, i int, name string) (string, error) {
	if i >= len(args) || args[i].IsNull() {
		return "", fmt.Errorf("core: missing argument %d (%s)", i+1, name)
	}
	return strings.TrimSpace(args[i].AsString()), nil
}

// ArgStringDefault extracts the i-th argument or returns def when absent.
func ArgStringDefault(args []types.Value, i int, def string) string {
	if i >= len(args) || args[i].IsNull() {
		return def
	}
	s := strings.TrimSpace(args[i].AsString())
	if s == "" {
		return def
	}
	return s
}

// ArgInt extracts the i-th argument as an int with a default.
func ArgInt(args []types.Value, i int, def int64) int64 {
	if i >= len(args) || args[i].IsNull() {
		return def
	}
	if v, ok := args[i].AsInt(); ok {
		return v
	}
	return def
}

// ArgFloat extracts the i-th argument as a float with a default.
func ArgFloat(args []types.Value, i int, def float64) float64 {
	if i >= len(args) || args[i].IsNull() {
		return def
	}
	if v, ok := args[i].AsFloat(); ok {
		return v
	}
	return def
}

// SplitList splits a comma-separated list argument into trimmed, upper-cased
// identifiers ("COL1, col2" -> ["COL1","COL2"]).
func SplitList(s string) []string {
	parts := strings.Split(s, ",")
	var out []string
	for _, p := range parts {
		p = types.NormalizeName(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
