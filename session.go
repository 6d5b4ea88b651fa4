package idaax

import (
	"fmt"
	"strings"

	"idaax/internal/federation"
)

// Session is one application connection to the system. It is not safe for
// concurrent use; open one session per goroutine.
type Session struct {
	sys *System
	fed *federation.Session
}

// Result is the outcome of one SQL statement. Result-set values are rendered
// as strings; NULL renders as the literal "NULL".
type Result struct {
	// Columns are the result-set column names (empty for DML).
	Columns []string
	// Rows holds the rendered result set.
	Rows [][]string
	// RowsAffected counts modified rows for DML statements.
	RowsAffected int
	// Routed names the system the statement ran on ("DB2", an accelerator
	// name, or "DB2->IDAA1" for cross-system INSERT ... SELECT).
	Routed string
	// Message is an informational completion message.
	Message string
}

// convertResult renders a typed result for the embedded API. Every cell is
// types.Value.AppendText's output; all of them are substrings of one string
// and elements of one slice, so a result costs a handful of allocations
// however many rows it has.
func convertResult(r *federation.Result) *Result {
	if r == nil {
		return nil
	}
	out := &Result{
		Columns:      append([]string(nil), r.Columns...),
		RowsAffected: r.RowsAffected,
		Routed:       r.Routed,
		Message:      r.Message,
	}
	if len(r.Rows) == 0 {
		return out
	}
	cells := 0
	for _, row := range r.Rows {
		cells += len(row)
	}
	var text []byte
	ends := make([]int, 0, cells)
	for _, row := range r.Rows {
		for _, v := range row {
			text = v.AppendText(text)
			ends = append(ends, len(text))
		}
	}
	all, flat := string(text), make([]string, cells)
	for i, start := 0, 0; i < cells; i++ {
		flat[i], start = all[start:ends[i]], ends[i]
	}
	out.Rows = make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i], flat = flat[:len(row):len(row)], flat[len(row):]
	}
	return out
}

// FormatTable renders the result set as an aligned text table for terminals.
func (r *Result) FormatTable() string {
	if len(r.Columns) == 0 {
		if r.Message != "" {
			return r.Message
		}
		return fmt.Sprintf("%d row(s) affected", r.RowsAffected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteString("\n")
	}
	writeRow(r.Columns)
	seps := make([]string, len(r.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	writeRow(seps)
	for _, row := range r.Rows {
		writeRow(row)
	}
	sb.WriteString(fmt.Sprintf("(%d rows)\n", len(r.Rows)))
	return sb.String()
}

// Value returns the rendered cell at (row, column-name), or "" when absent.
func (r *Result) Value(row int, column string) string {
	if row < 0 || row >= len(r.Rows) {
		return ""
	}
	for i, c := range r.Columns {
		if strings.EqualFold(c, column) {
			if i < len(r.Rows[row]) {
				return r.Rows[row][i]
			}
		}
	}
	return ""
}

// User returns the session's authorization id.
func (s *Session) User() string { return s.fed.User() }

// Exec parses and executes one SQL statement.
func (s *Session) Exec(sql string) (*Result, error) {
	res, err := s.fed.Exec(sql)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// MustExec executes a statement and panics on error; intended for examples
// and setup scripts where failure is unrecoverable.
func (s *Session) MustExec(sql string) *Result {
	res, err := s.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("idaax: %v (statement: %s)", err, sql))
	}
	return res
}

// Query executes a statement that must produce a result set.
func (s *Session) Query(sql string) (*Result, error) {
	res, err := s.fed.Query(sql)
	if err != nil {
		return nil, err
	}
	return convertResult(res), nil
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (s *Session) ExecScript(sql string) ([]*Result, error) {
	results, err := s.fed.ExecScript(sql)
	out := make([]*Result, 0, len(results))
	for _, r := range results {
		out = append(out, convertResult(r))
	}
	return out, err
}

// Begin starts an explicit transaction spanning DB2 and the accelerators.
func (s *Session) Begin() error { return s.fed.Begin() }

// Commit commits the explicit transaction on both sides.
func (s *Session) Commit() error { return s.fed.Commit() }

// Rollback rolls the explicit transaction back on both sides.
func (s *Session) Rollback() error { return s.fed.Rollback() }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.fed.InTransaction() }

// SetAcceleration sets the CURRENT QUERY ACCELERATION register
// ("NONE", "ENABLE", "ELIGIBLE" or "ALL").
func (s *Session) SetAcceleration(mode string) error {
	m, err := federation.ParseAccelerationMode(mode)
	if err != nil {
		return err
	}
	s.fed.SetAccelerationMode(m)
	return nil
}

// Acceleration returns the current value of the acceleration register.
func (s *Session) Acceleration() string { return s.fed.AccelerationMode().String() }
