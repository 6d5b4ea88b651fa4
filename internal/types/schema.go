package types

import (
	"fmt"
	"strings"
)

// Column describes one column of a table or intermediate result.
type Column struct {
	// Name is the column name as stored in the catalog (upper-cased, like DB2).
	Name string
	// Kind is the column's value kind.
	Kind Kind
	// NotNull marks columns declared NOT NULL; enforced on INSERT/UPDATE.
	NotNull bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns, normalising names to upper case.
func NewSchema(cols ...Column) Schema {
	out := make([]Column, len(cols))
	for i, c := range cols {
		c.Name = NormalizeName(c.Name)
		out[i] = c
	}
	return Schema{Columns: out}
}

// NormalizeName upper-cases an identifier the way DB2 folds unquoted names.
func NormalizeName(name string) string { return strings.ToUpper(strings.TrimSpace(name)) }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Columns) }

// IndexOf returns the position of the named column or -1.
func (s Schema) IndexOf(name string) int {
	name = NormalizeName(name)
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Column returns the column definition for name.
func (s Schema) Column(name string) (Column, bool) {
	i := s.IndexOf(name)
	if i < 0 {
		return Column{}, false
	}
	return s.Columns[i], true
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Equal reports whether two schemas have identical column names and kinds.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i].Name != o.Columns[i].Name || s.Columns[i].Kind != o.Columns[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as "(NAME KIND, ...)" for diagnostics.
func (s Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		nn := ""
		if c.NotNull {
			nn = " NOT NULL"
		}
		parts[i] = fmt.Sprintf("%s %s%s", c.Name, c.Kind, nn)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Row is a single tuple. The i-th value corresponds to the i-th schema column.
type Row []Value

// Clone returns a deep-enough copy of the row (values are value types).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// ValidateRow checks arity, NOT NULL constraints and coerces values to the
// schema's column kinds. It returns the coerced row.
func ValidateRow(s Schema, r Row) (Row, error) {
	out, err := AppendValidRow(make(Row, 0, len(s.Columns)), s, r)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendValidRow validates r as ValidateRow does and appends the coerced
// values to dst, so a batch can validate all its rows into one slab. On error
// dst is returned unextended.
func AppendValidRow(dst []Value, s Schema, r Row) ([]Value, error) {
	if len(r) != len(s.Columns) {
		return dst, fmt.Errorf("types: row has %d values, table has %d columns", len(r), len(s.Columns))
	}
	start := len(dst)
	for i, v := range r {
		col := s.Columns[i]
		if v.IsNull() {
			if col.NotNull {
				return dst[:start], fmt.Errorf("types: NULL value for NOT NULL column %s", col.Name)
			}
			dst = append(dst, Null())
			continue
		}
		cv, err := v.Cast(col.Kind)
		if err != nil {
			return dst[:start], fmt.Errorf("types: column %s: %w", col.Name, err)
		}
		dst = append(dst, cv)
	}
	return dst, nil
}
