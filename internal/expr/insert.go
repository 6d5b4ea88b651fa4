package expr

import (
	"fmt"

	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// BuildInsertRows evaluates the VALUES lists of an INSERT statement into rows
// matching the target schema. A column list reorders/projects the values;
// omitted columns become NULL. The expressions must be constant (they are
// evaluated with an empty environment), which covers literals, arithmetic on
// literals and scalar function calls.
func BuildInsertRows(columns []string, valueRows [][]sqlparse.Expr, schema types.Schema) ([]types.Row, error) {
	env := NewEnv(nil)
	positions, err := insertPositions(columns, schema)
	if err != nil {
		return nil, err
	}
	// The rows are cut from one flat slab; each is a full slice of its part.
	// The zero Value is NULL, so omitted columns need no fill.
	width := schema.Len()
	slab := make([]types.Value, len(valueRows)*width)
	out := make([]types.Row, 0, len(valueRows))
	for ri, exprs := range valueRows {
		if len(exprs) != len(positions) {
			return nil, fmt.Errorf("expr: INSERT has %d values for %d columns", len(exprs), len(positions))
		}
		row := types.Row(slab[ri*width : (ri+1)*width : (ri+1)*width])
		for i, e := range exprs {
			v, err := env.Eval(e, nil)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		out = append(out, row)
	}
	return out, nil
}

// MapSelectRows reorders rows produced by an INSERT ... SELECT source to match
// the target schema using the optional column list.
func MapSelectRows(columns []string, srcRows []types.Row, schema types.Schema) ([]types.Row, error) {
	if len(columns) == 0 {
		// Positional assignment; arity is validated per row later.
		return srcRows, nil
	}
	positions, err := insertPositions(columns, schema)
	if err != nil {
		return nil, err
	}
	out := make([]types.Row, len(srcRows))
	for ri, src := range srcRows {
		if len(src) != len(positions) {
			return nil, fmt.Errorf("expr: INSERT SELECT produced %d columns for %d target columns", len(src), len(positions))
		}
		row := make(types.Row, schema.Len())
		for i := range row {
			row[i] = types.Null()
		}
		for i, v := range src {
			row[positions[i]] = v
		}
		out[ri] = row
	}
	return out, nil
}

func insertPositions(columns []string, schema types.Schema) ([]int, error) {
	if len(columns) == 0 {
		positions := make([]int, schema.Len())
		for i := range positions {
			positions[i] = i
		}
		return positions, nil
	}
	positions := make([]int, len(columns))
	for i, c := range columns {
		idx := schema.IndexOf(c)
		if idx < 0 {
			return nil, fmt.Errorf("expr: INSERT references unknown column %s", c)
		}
		positions[i] = idx
	}
	return positions, nil
}
