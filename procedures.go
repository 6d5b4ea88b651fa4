package idaax

import (
	"fmt"

	"idaax/internal/core"
	"idaax/internal/relalg"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// ProcedureContext is the execution context handed to user-registered
// analytics procedures. It exposes routed SQL execution (so a procedure can
// read accelerated tables and AOTs transparently) and bulk materialisation of
// result rows — everything needed to implement a new in-database analytics
// operation without touching the engine internals.
type ProcedureContext struct {
	inner *core.ProcContext
}

// User returns the authorization id invoking the procedure.
func (p *ProcedureContext) User() string { return p.inner.User }

// Query runs a SELECT and returns its result.
func (p *ProcedureContext) Query(sql string) (*Result, error) {
	rel, err := p.inner.QuerySQL(sql)
	if err != nil {
		return nil, err
	}
	return relationToResult(rel), nil
}

// Exec runs a non-query statement (DDL/DML/CALL) and returns the number of
// affected rows.
func (p *ProcedureContext) Exec(sql string) (int, error) { return p.inner.ExecSQL(sql) }

// InsertValues bulk-inserts rows given as Go values (string, int, int64,
// float64, bool, nil) into a table under the calling transaction.
func (p *ProcedureContext) InsertValues(table string, rows [][]any) (int, error) {
	converted := make([]types.Row, len(rows))
	for i, row := range rows {
		r := make(types.Row, len(row))
		for j, v := range row {
			cv, err := goValue(v)
			if err != nil {
				return 0, fmt.Errorf("idaax: row %d column %d: %w", i, j, err)
			}
			r[j] = cv
		}
		converted[i] = r
	}
	return p.inner.InsertRows(table, converted)
}

// ProcedureResult is what a user-registered procedure returns.
type ProcedureResult struct {
	Message      string
	RowsAffected int
}

// ProcedureFunc is the signature of user-registered procedures. Arguments are
// the CALL statement's arguments rendered as strings.
type ProcedureFunc func(ctx *ProcedureContext, args []string) (*ProcedureResult, error)

// RegisterProcedure registers a custom analytics procedure with the in-database
// framework. When public is true any user may CALL it; otherwise only the
// administrator and users granted EXECUTE via SYSPROC.ACCEL_GRANT_PROCEDURE.
// It declares no tables: its Query, Exec and InsertValues calls are checked
// like the caller's own statements.
func (s *System) RegisterProcedure(name, description string, public bool, fn ProcedureFunc) error {
	proc := core.Procedure{
		Name:        name,
		Description: description,
		Run: func(ctx *core.ProcContext, args []types.Value) (*core.ProcResult, error) {
			strArgs := make([]string, len(args))
			for i, a := range args {
				strArgs[i] = a.AsString()
			}
			res, err := fn(&ProcedureContext{inner: ctx}, strArgs)
			if err != nil {
				return nil, err
			}
			if res == nil {
				res = &ProcedureResult{Message: "ok"}
			}
			return &core.ProcResult{Message: res.Message, RowsAffected: res.RowsAffected}, nil
		},
	}
	return s.coord.Procs.Register(proc, public)
}

// GrantProcedure grants EXECUTE on a registered procedure to a user.
func (s *System) GrantProcedure(procedure, user string) error {
	return s.coord.Procs.GrantExecute(procedure, user)
}

// Procedures lists all registered procedure names.
func (s *System) Procedures() []string { return s.coord.Procs.List() }

func relationToResult(rel *relalg.Relation) *Result {
	out := &Result{}
	for i, c := range rel.Cols {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("COL%d", i+1)
		}
		out.Columns = append(out.Columns, name)
	}
	for _, row := range rel.Rows {
		rendered := make([]string, len(row))
		for i, v := range row {
			rendered[i] = v.String()
		}
		out.Rows = append(out.Rows, rendered)
	}
	return out
}

func goValue(v any) (types.Value, error) {
	switch x := v.(type) {
	case nil:
		return types.Null(), nil
	case string:
		return types.NewString(x), nil
	case int:
		return types.NewInt(int64(x)), nil
	case int64:
		return types.NewInt(x), nil
	case float64:
		return types.NewFloat(x), nil
	case float32:
		return types.NewFloat(float64(x)), nil
	case bool:
		return types.NewBool(x), nil
	default:
		return types.Null(), fmt.Errorf("unsupported Go value of type %T", v)
	}
}

// ParseSQL validates that a statement parses in the system's SQL dialect and
// returns a normalised description; useful for tooling built on the facade.
func ParseSQL(sql string) (string, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%T", st), nil
}
