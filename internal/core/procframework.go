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

// CheckSelect verifies the caller may read the named table — the privilege
// gate the routed Query path applies, needed explicitly by procedures that
// bypass routing to scan shard-local.
func (c *ProcContext) CheckSelect(table string) error {
	return c.Catalog.CheckPrivilege(c.User, types.NormalizeName(table), catalog.PrivSelect)
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
type Procedure interface {
	// Name is the procedure name as used in CALL (qualified names allowed).
	Name() string
	// Description is a one-line summary shown by SHOW PROCEDURES-style tools.
	Description() string
	// Execute runs the procedure.
	Execute(ctx *ProcContext, args []types.Value) (*ProcResult, error)
}

// FuncProcedure adapts a plain function to the Procedure interface.
type FuncProcedure struct {
	ProcName string
	Desc     string
	Fn       func(ctx *ProcContext, args []types.Value) (*ProcResult, error)
}

// Name implements Procedure.
func (p *FuncProcedure) Name() string { return p.ProcName }

// Description implements Procedure.
func (p *FuncProcedure) Description() string { return p.Desc }

// Execute implements Procedure.
func (p *FuncProcedure) Execute(ctx *ProcContext, args []types.Value) (*ProcResult, error) {
	return p.Fn(ctx, args)
}

// Framework is the registry and dispatcher for analytics procedures. It is the
// generic mechanism the paper describes for passing "code for arbitrary
// algorithms" to the accelerator while privilege management stays in DB2: the
// EXECUTE privilege on each procedure is recorded in the DB2 catalog and
// checked before dispatch.
type Framework struct {
	cat *catalog.Catalog

	mu    sync.RWMutex
	procs map[string]Procedure
}

// NewFramework creates an empty procedure framework.
func NewFramework(cat *catalog.Catalog) *Framework {
	return &Framework{cat: cat, procs: make(map[string]Procedure)}
}

// Register adds a procedure. When public is true, EXECUTE is granted to
// PUBLIC (the usual setting for the built-in SYSPROC.ACCEL_* procedures);
// otherwise only SYSADM and explicit grantees may call it.
func (f *Framework) Register(p Procedure, public bool) error {
	name := types.NormalizeName(p.Name())
	if name == "" {
		return fmt.Errorf("core: procedure requires a name")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.procs[name]; ok {
		return fmt.Errorf("core: procedure %s is already registered", name)
	}
	f.procs[name] = p
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
func (f *Framework) Lookup(name string) (Procedure, bool) {
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

// Call dispatches a procedure invocation: it verifies the EXECUTE privilege in
// the DB2 catalog, then executes the procedure with the supplied context. This
// is the single entry point the federation layer uses for CALL statements.
func (f *Framework) Call(ctx *ProcContext, name string, args []types.Value) (*ProcResult, error) {
	proc, ok := f.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: procedure %s is not registered", types.NormalizeName(name))
	}
	object := catalog.ProcedureObject(proc.Name())
	if err := f.cat.CheckPrivilege(ctx.User, object, catalog.PrivExecute); err != nil {
		return nil, err
	}
	res, err := proc.Execute(ctx, args)
	if err != nil {
		return nil, fmt.Errorf("core: procedure %s failed: %w", types.NormalizeName(name), err)
	}
	if res == nil {
		res = &ProcResult{Message: "ok"}
	}
	return res, nil
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
