package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
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
}

// ParamKind is the kind of a declared procedure parameter. It fixes how a
// CALL argument binds (see Arg) and, for the table kinds, the privilege
// Framework.Call checks on every table the argument names.
type ParamKind int

const (
	// Text is a string; with Param.Accepts, one of those values.
	Text ParamKind = iota
	// Integer is an integral number or numeric string.
	Integer
	// Number is a finite number or numeric string.
	Number
	// Column names one column.
	Column
	// Columns is a comma list of column names.
	Columns
	// InputTable names one table the CALL reads: the caller needs SELECT.
	InputTable
	// InputTables is a comma list of tables the caller needs SELECT on.
	InputTables
	// ControlledTables is a comma list of tables the caller needs CONTROL on.
	ControlledTables
	// OutputTable names one table the CALL drops and recreates. It must pass
	// catalog.CheckReplace and may not name another table of the same CALL.
	OutputTable
)

var kindNames = [...]string{"text", "integer", "number", "column", "column list", "table", "table list", "controlled table list", "output table"}

// Param is one declared procedure parameter: a name, a kind, and either
// Required or a Default. A Default is written as a CALL would pass it; an
// empty one binds the zero Arg.
type Param struct {
	Name     string
	Kind     ParamKind
	Required bool
	Default  string
	// Accepts lists the values a Text parameter takes, upper case; a CALL
	// may spell them in any case.
	Accepts []string
}

// Arg is one bound CALL argument. Its parameter's kind picks the field: Str
// for Text (the Accepts spelling, when set), Int for Integer, Num for Number,
// Names for the name kinds. A one-name kind also holds its name in Str.
// Names are normalised (see types.NormalizeName).
type Arg struct {
	Str   string
	Int   int64
	Num   float64
	Names []string
}

// Procedure is an analytics or administrative operation invocable via CALL.
// Its Params are its one signature: Framework.Call binds a CALL's arguments
// to them, checks the privileges their kinds imply, and only then runs Run
// with one Arg per parameter.
type Procedure struct {
	// Name is the procedure name as used in CALL (qualified names allowed).
	Name string
	// Description is a one-line summary shown by SHOW PROCEDURES-style tools.
	Description string
	// Params declares the procedure's arguments, in CALL order.
	Params []Param
	// TextArgs marks a procedure without a signature, as the idaax facade
	// registers them: each CALL argument reaches Run unchecked, as its text
	// in Str. Its routed Query, Exec and InsertRows calls are governed like
	// the caller's own statements.
	TextArgs bool
	// AdminOnly restricts the CALL to SYSADM (catalog.CheckAdmin).
	AdminOnly bool
	// Run is the procedure body.
	Run func(ctx *ProcContext, args []Arg) (*ProcResult, error)
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
// otherwise only SYSADM and explicit grantees may call it. Each parameter
// default must bind to its parameter's kind.
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
	for _, param := range p.Params {
		if param.Default == "" {
			continue
		}
		if _, reason := param.bind(types.NewString(param.Default)); param.Required || reason != "" {
			return fmt.Errorf("core: procedure %s: parameter %s cannot default to %q", name, param.Name, param.Default)
		}
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

// Call dispatches a procedure invocation. It checks EXECUTE on the
// procedure in the DB2 catalog, binds the arguments to the declared
// signature, checks SYSADM for an AdminOnly procedure and then the
// privilege each table argument's kind implies, and only then runs the body
// with the bound arguments. This is the single entry point the federation
// layer uses for CALL statements.
func (f *Framework) Call(ctx *ProcContext, name string, args []types.Value) (*ProcResult, error) {
	proc, ok := f.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: procedure %s is not registered", types.NormalizeName(name))
	}
	object := catalog.ProcedureObject(proc.Name)
	if err := f.cat.CheckPrivilege(ctx.User, object, catalog.PrivExecute); err != nil {
		return nil, err
	}
	bound, err := proc.bind(args)
	if err != nil {
		return nil, err
	}
	if proc.AdminOnly {
		if err := catalog.CheckAdmin(ctx.User, object); err != nil {
			return nil, err
		}
	}
	if err := f.checkTables(ctx.User, proc.Params, bound); err != nil {
		return nil, err
	}
	res, err := proc.Run(ctx, bound)
	if err != nil {
		return nil, fmt.Errorf("core: procedure %s failed: %w", proc.Name, err)
	}
	if res == nil {
		res = &ProcResult{Message: "ok"}
	}
	return res, nil
}

// checkTables checks that user holds, on every table a bound argument names,
// the privilege its parameter's kind implies.
func (f *Framework) checkTables(user string, params []Param, args []Arg) error {
	for i, p := range params {
		for _, table := range args[i].Names {
			var err error
			switch p.Kind {
			case InputTable, InputTables:
				err = f.cat.CheckPrivilege(user, table, catalog.PrivSelect)
			case ControlledTables:
				err = f.cat.CheckPrivilege(user, table, catalog.PrivControl)
			case OutputTable:
				err = f.cat.CheckReplace(user, table)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// argError is a CALL argument that does not bind to the procedure's declared
// signature. Its message ends with the signature, rendered only when the
// error is.
type argError struct {
	Proc *Procedure
	// Pos is the 1-based argument position.
	Pos    int
	Reason string
}

func (e *argError) Error() string {
	at := fmt.Sprintf("argument %d", e.Pos)
	if e.Pos <= len(e.Proc.Params) {
		at += " (" + e.Proc.Params[e.Pos-1].Name + ")"
	}
	return fmt.Sprintf("core: %s %s: %s; usage: %s", e.Proc.Name, at, e.Reason, e.Proc.signature())
}

// signature renders the declared parameters as CALL usage, e.g.
// IDAX.BIN(in_table table, column column, bins integer = 10, out_table output table).
func (p *Procedure) signature() string {
	var sb strings.Builder
	sb.WriteString(p.Name + "(")
	for i, param := range p.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		kind := kindNames[param.Kind]
		if len(param.Accepts) > 0 {
			kind = "'" + strings.Join(param.Accepts, "'|'") + "'"
		}
		switch {
		case param.Required:
			fmt.Fprintf(&sb, "%s %s", param.Name, kind)
		case param.Default == "":
			fmt.Fprintf(&sb, "[%s %s]", param.Name, kind)
		case param.Kind == Integer || param.Kind == Number:
			fmt.Fprintf(&sb, "%s %s = %s", param.Name, kind, param.Default)
		default:
			fmt.Fprintf(&sb, "%s %s = '%s'", param.Name, kind, param.Default)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// bind binds a CALL's arguments to the declared parameters: one Arg per
// parameter, an absent, NULL or blank argument taking its default. It
// refuses extra arguments, missing required ones, values of the wrong kind
// or outside Accepts, and an output table that names another table of the
// same CALL, which the output's drop would destroy.
func (p *Procedure) bind(args []types.Value) ([]Arg, error) {
	if p.TextArgs {
		out := make([]Arg, len(args))
		for i, v := range args {
			out[i].Str = v.AsString()
		}
		return out, nil
	}
	if len(args) > len(p.Params) {
		return nil, &argError{Proc: p, Pos: len(p.Params) + 1, Reason: fmt.Sprintf("%d arguments given, %s takes %d", len(args), p.Name, len(p.Params))}
	}
	out := make([]Arg, len(p.Params))
	for i, param := range p.Params {
		v := types.Null()
		if i < len(args) {
			v = args[i]
		}
		if v.IsNull() || v.Kind == types.KindString && strings.TrimSpace(v.Str) == "" {
			if param.Required {
				return nil, &argError{Proc: p, Pos: i + 1, Reason: "missing required argument"}
			}
			if param.Default == "" {
				continue
			}
			v = types.NewString(param.Default)
		}
		arg, reason := param.bind(v)
		if reason != "" {
			return nil, &argError{Proc: p, Pos: i + 1, Reason: reason}
		}
		out[i] = arg
	}
	for i, param := range p.Params {
		if param.Kind != OutputTable {
			continue
		}
		for j, other := range p.Params {
			if j != i && isTable(other.Kind) && slices.Contains(out[j].Names, out[i].Str) {
				return nil, &argError{Proc: p, Pos: i + 1, Reason: fmt.Sprintf("%s is also argument %d (%s); an output may not name another table of its CALL", out[i].Str, j+1, other.Name)}
			}
		}
	}
	return out, nil
}

func isTable(k ParamKind) bool {
	return k == InputTable || k == InputTables || k == ControlledTables || k == OutputTable
}

// bind converts one present argument to the parameter's kind, or says why
// it cannot.
func (param Param) bind(v types.Value) (Arg, string) {
	switch param.Kind {
	case Integer:
		if n, ok := toInt(v); ok {
			return Arg{Int: n}, ""
		}
		return Arg{}, quote(v) + " is not an integer"
	case Number:
		if x, ok := toNumber(v); ok {
			return Arg{Num: x}, ""
		}
		return Arg{}, quote(v) + " is not a number"
	}
	if v.Kind != types.KindString {
		return Arg{}, quote(v) + " is not a string"
	}
	s := strings.TrimSpace(v.Str)
	if param.Kind == Text {
		if len(param.Accepts) == 0 {
			return Arg{Str: s}, ""
		}
		for _, a := range param.Accepts {
			if strings.EqualFold(s, a) {
				return Arg{Str: a}, ""
			}
		}
		return Arg{}, fmt.Sprintf("%s is not one of '%s'", quote(v), strings.Join(param.Accepts, "'|'"))
	}
	names, err := sqlparse.ParseNames(s)
	if err != nil {
		return Arg{}, fmt.Sprintf("%s is not a valid %s: %v", quote(v), kindNames[param.Kind], err)
	}
	switch param.Kind {
	case Column, InputTable, OutputTable:
		if len(names) != 1 {
			return Arg{}, fmt.Sprintf("%s names %d objects where one %s is expected", quote(v), len(names), kindNames[param.Kind])
		}
		return Arg{Str: names[0], Names: names}, ""
	}
	return Arg{Names: names}, ""
}

// toInt accepts an integer, or a float or numeric string with an integral
// value in int64 range.
func toInt(v types.Value) (int64, bool) {
	if v.Kind == types.KindInt {
		return v.Int, true
	}
	if v.Kind == types.KindString {
		if n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64); err == nil {
			return n, true
		}
	}
	x, ok := toNumber(v)
	if !ok || x != math.Trunc(x) || x < math.MinInt64 || x >= math.MaxInt64 {
		return 0, false
	}
	return int64(x), true
}

// toNumber accepts an integer, a float or a numeric string with a finite
// value.
func toNumber(v types.Value) (float64, bool) {
	if v.Kind != types.KindInt && v.Kind != types.KindFloat && v.Kind != types.KindString {
		return 0, false
	}
	x, ok := v.AsFloat()
	return x, ok && !math.IsNaN(x) && !math.IsInf(x, 0)
}

// quote renders an argument as a CALL would write it.
func quote(v types.Value) string {
	if v.Kind == types.KindString {
		return "'" + v.Str + "'"
	}
	return v.String()
}
