package sqlparse

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"strconv"
	"testing"
)

// fuzzSeedFiles are the parser's unit tests and the differential suites;
// every string literal in them seeds FuzzParse.
var fuzzSeedFiles = []string{
	"parser_test.go",
	"../../vectorized_test.go",
	"../../planner_test.go",
	"../../join_test.go",
	"../../twophase_test.go",
	"../shard/planner_test.go",
	"../vexec/vexec_test.go",
}

// FuzzParse feeds arbitrary text to Parse. Parse must never panic, and for
// every WHERE and ON condition it accepts, Conjuncts and Sargable must not
// panic either and Conjuncts(AndAll(Conjuncts(w))) must give back the same
// conjuncts. The rows of an INSERT … VALUES must not alias: appending to
// row i never changes row i+1.
func FuzzParse(f *testing.F) {
	for _, path := range fuzzSeedFiles {
		file, err := goparser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					f.Add(s)
				}
			}
			return true
		})
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err != nil {
			return
		}
		if ins, ok := st.(*InsertStmt); ok {
			checkRowsDoNotAlias(t, ins.Rows)
		}
		for _, w := range conditionsOf(st) {
			conjs := Conjuncts(w)
			for _, c := range conjs {
				if s, ok := Sargable(c); ok {
					if s.Col == nil {
						t.Fatalf("%q: sargable %T without a column", sql, c)
					}
					for i := 0; i < s.Len(); i++ {
						_ = s.Value(i)
					}
				}
			}
			again := Conjuncts(AndAll(conjs))
			if len(again) != len(conjs) {
				t.Fatalf("%q: %d conjuncts after AndAll, want %d", sql, len(again), len(conjs))
			}
			for i := range conjs {
				if again[i] != conjs[i] {
					t.Fatalf("%q: conjunct %d changed after AndAll", sql, i)
				}
			}
		}
	})
}

// conditionsOf collects the WHERE, HAVING and ON conditions of a statement,
// subqueries included.
func conditionsOf(st Statement) []Expr {
	var out []Expr
	var visit func(s *SelectStmt)
	visit = func(s *SelectStmt) {
		if s == nil {
			return
		}
		for _, item := range s.From {
			visit(item.Subquery)
			if item.On != nil {
				out = append(out, item.On)
			}
		}
		for _, e := range []Expr{s.Where, s.Having} {
			if e != nil {
				out = append(out, e)
			}
		}
	}
	switch s := st.(type) {
	case *SelectStmt:
		visit(s)
	case *InsertStmt:
		visit(s.Select)
	case *CreateTableStmt:
		visit(s.AsSelect)
	case *UpdateStmt:
		out = append(out, s.Where)
	case *DeleteStmt:
		out = append(out, s.Where)
	case *ExplainStmt:
		out = conditionsOf(s.Target)
	}
	return out
}
