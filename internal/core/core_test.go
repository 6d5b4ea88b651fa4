package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/catalog"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

// fixedProvider implements AcceleratorProvider over a static map.
type fixedProvider struct {
	accels map[string]*accel.Accelerator
	def    string
}

func (p *fixedProvider) Accelerator(name string) (accel.Backend, error) {
	if name == "" {
		name = p.def
	}
	a, ok := p.accels[types.NormalizeName(name)]
	if !ok {
		return nil, fmt.Errorf("no accelerator %s", name)
	}
	return a, nil
}

func (p *fixedProvider) DefaultAccelerator() string { return p.def }

func setup(t *testing.T) (*catalog.Catalog, *accel.Accelerator, *AOTManager, *Framework) {
	t.Helper()
	cat := catalog.New()
	cat.AddAccelerator("IDAA1")
	a := accel.New("IDAA1", 2)
	prov := &fixedProvider{accels: map[string]*accel.Accelerator{"IDAA1": a}, def: "IDAA1"}
	return cat, a, NewAOTManager(cat, prov), NewFramework(cat)
}

func createStmt(table, acc string) *sqlparse.CreateTableStmt {
	return &sqlparse.CreateTableStmt{
		Table: table,
		Columns: []sqlparse.ColumnDef{
			{Name: "ID", Kind: types.KindInt, NotNull: true},
			{Name: "V", Kind: types.KindFloat},
		},
		InAccelerator: acc,
	}
}

func TestAOTCreateDropLifecycle(t *testing.T) {
	cat, a, mgr, _ := setup(t)
	if err := mgr.Create("alice", createStmt("stage1", "IDAA1")); err != nil {
		t.Fatal(err)
	}
	meta, err := cat.Table("STAGE1")
	if err != nil || meta.Kind != catalog.KindAcceleratorOnly || meta.Accelerator != "IDAA1" || meta.Owner != "ALICE" {
		t.Fatalf("catalog proxy wrong: %+v, %v", meta, err)
	}
	if !a.HasTable("STAGE1") {
		t.Fatal("accelerator table missing")
	}
	if !mgr.IsAOT("stage1") {
		t.Fatal("IsAOT should be true")
	}
	gotAccel, gotMeta, err := mgr.AcceleratorFor("STAGE1")
	if err != nil || gotAccel != a || gotMeta.Name != "STAGE1" {
		t.Fatalf("AcceleratorFor: %v", err)
	}
	// Duplicate create fails unless IF NOT EXISTS.
	if err := mgr.Create("alice", createStmt("stage1", "IDAA1")); err == nil {
		t.Fatal("duplicate AOT create should fail")
	}
	dup := createStmt("stage1", "IDAA1")
	dup.IfNotExists = true
	if err := mgr.Create("alice", dup); err != nil {
		t.Fatalf("IF NOT EXISTS should succeed: %v", err)
	}
	if err := mgr.Drop("STAGE1"); err != nil {
		t.Fatal(err)
	}
	if cat.HasTable("STAGE1") || a.HasTable("STAGE1") {
		t.Fatal("drop incomplete")
	}
}

func TestAOTCreateValidation(t *testing.T) {
	cat, _, mgr, _ := setup(t)
	if err := mgr.Create("u", createStmt("t1", "")); err == nil {
		t.Fatal("missing IN ACCELERATOR must fail")
	}
	if err := mgr.Create("u", createStmt("t1", "NOPE")); err == nil {
		t.Fatal("unknown accelerator must fail")
	}
	noCols := &sqlparse.CreateTableStmt{Table: "t1", InAccelerator: "IDAA1"}
	if err := mgr.Create("u", noCols); err == nil {
		t.Fatal("AOT without columns must fail")
	}
	// Regular tables are not AOTs.
	_ = cat.CreateTable(&catalog.Table{Name: "REG", Schema: types.NewSchema(types.Column{Name: "X", Kind: types.KindInt})})
	if mgr.IsAOT("REG") {
		t.Fatal("regular table misclassified")
	}
	if err := mgr.Drop("REG"); err == nil {
		t.Fatal("dropping a non-AOT through the AOT manager must fail")
	}
}

func TestAOTCreateFromSchema(t *testing.T) {
	_, a, mgr, _ := setup(t)
	schema := types.NewSchema(types.Column{Name: "K", Kind: types.KindString}, types.Column{Name: "N", Kind: types.KindInt})
	if err := mgr.CreateFromSchema("bob", "derived", "", schema, "K"); err != nil {
		t.Fatal(err)
	}
	tab, err := a.Table("DERIVED")
	if err != nil || !tab.Schema().Equal(schema) {
		t.Fatalf("schema mismatch: %v", err)
	}
	if tab.DistKey() != "K" {
		t.Fatalf("dist key: %q", tab.DistKey())
	}
}

func TestFrameworkRegistrationAndGovernance(t *testing.T) {
	cat, a, mgr, fw := setup(t)
	calls := 0
	proc := Procedure{Name: "test.echo", Description: "echoes", TextArgs: true, Run: func(ctx *ProcContext, args []Arg) (*ProcResult, error) {
		calls++
		return &ProcResult{Message: "got " + fmt.Sprint(len(args)) + " args"}, nil
	}}
	if err := fw.Register(proc, false); err != nil {
		t.Fatal(err)
	}
	if err := fw.Register(proc, false); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if got := fw.List(); len(got) != 1 || got[0] != "TEST.ECHO" {
		t.Fatalf("list: %v", got)
	}
	ctx := &ProcContext{User: "CAROL", Catalog: cat, Accelerator: a, AOTs: mgr}

	// Not public, no grant: denied with a catalog error.
	_, err := fw.Call(ctx, "TEST.ECHO", nil)
	var denied *catalog.ErrNotAuthorized
	if !errors.As(err, &denied) {
		t.Fatalf("expected authorization error, got %v", err)
	}
	if calls != 0 {
		t.Fatal("procedure must not run without EXECUTE")
	}
	if err := fw.GrantExecute("test.echo", "carol"); err != nil {
		t.Fatal(err)
	}
	res, err := fw.Call(ctx, "test.echo", []types.Value{types.NewInt(1), types.NewString("x")})
	if err != nil || calls != 1 || res.Message != "got 2 args" {
		t.Fatalf("call after grant: %+v, %v", res, err)
	}
	fw.RevokeExecute("test.echo", "carol")
	if _, err := fw.Call(ctx, "test.echo", nil); err == nil {
		t.Fatal("call after revoke should fail")
	}
	// Admin always passes; unknown procedures are reported.
	admin := &ProcContext{User: catalog.AdminUser, Catalog: cat, Accelerator: a}
	if _, err := fw.Call(admin, "test.echo", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Call(admin, "NO.SUCH.PROC", nil); err == nil {
		t.Fatal("unknown procedure should fail")
	}
	if err := fw.GrantExecute("NO.SUCH.PROC", "x"); err == nil {
		t.Fatal("granting on unknown procedure should fail")
	}
}

func TestFrameworkChecksDeclaredAccess(t *testing.T) {
	cat, a, mgr, fw := setup(t)
	schema := types.NewSchema(types.Column{Name: "X", Kind: types.KindInt})
	_ = cat.CreateTable(&catalog.Table{Name: "IN1", Schema: schema, Owner: "ALICE"})
	_ = cat.CreateTable(&catalog.Table{Name: "IN2", Schema: schema, Owner: "ALICE"})
	if err := mgr.CreateFromSchema("ALICE", "OUT", "", schema, ""); err != nil {
		t.Fatal(err)
	}
	cat.Grant("BOB", "IN1", catalog.PrivSelect)
	runs := 0
	run := func(ctx *ProcContext, args []Arg) (*ProcResult, error) { runs++; return nil, nil }
	fw.MustRegister(Procedure{Name: "t.rw", Params: []Param{{Name: "in", Kind: InputTables}, {Name: "out", Kind: OutputTable}}, Run: run}, true)
	fw.MustRegister(Procedure{Name: "t.ctl", Params: []Param{{Name: "tables", Kind: ControlledTables, Required: true}}, Run: run}, true)
	fw.MustRegister(Procedure{Name: "t.admin", AdminOnly: true, Run: run}, true)
	for _, tc := range []struct {
		user, proc string
		args       []types.Value
		ok         bool
	}{
		{"BOB", "t.rw", str("IN1", "NEW"), true},
		{"BOB", "t.rw", str("IN1,IN2", "NEW"), false}, // every table of a list
		{"BOB", "t.rw", str("IN1", "OUT"), false},     // someone else's AOT
		{"ALICE", "t.rw", str("IN1,IN2", "OUT"), true},
		{"ALICE", "t.rw", str("IN1", "IN2"), false}, // not accelerator-only
		{"ALICE", "t.rw", str("IN1", "IN1"), false}, // an output may not name an input
		{"BOB", "t.rw", nil, true},                  // absent arguments name nothing
		{"BOB", "t.ctl", str("IN1"), false},
		{"ALICE", "t.ctl", str("IN1"), true},
		{"ALICE", "t.ctl", nil, false}, // a required argument is missing
		{"ALICE", "t.admin", nil, false},
		{catalog.AdminUser, "t.admin", nil, true},
		{catalog.AdminUser, "t.admin", str("x"), false}, // no parameters, one argument
	} {
		before := runs
		_, err := fw.Call(&ProcContext{User: tc.user, Catalog: cat, Accelerator: a, AOTs: mgr}, tc.proc, tc.args)
		if (err == nil) != tc.ok || (runs > before) != tc.ok {
			t.Fatalf("%s CALL %s%v: err %v, ran %v, want ok=%v", tc.user, tc.proc, tc.args, err, runs > before, tc.ok)
		}
	}
}

func str(ss ...string) []types.Value {
	out := make([]types.Value, len(ss))
	for i, s := range ss {
		out[i] = types.NewString(s)
	}
	return out
}

// bindProc declares one parameter of every kind.
var bindProc = &Procedure{Name: "T.BIND", Params: []Param{
	{Name: "in", Kind: InputTable, Required: true},
	{Name: "cols", Kind: Columns, Default: "A,B"},
	{Name: "n", Kind: Integer, Default: "3"},
	{Name: "x", Kind: Number, Default: "0.5"},
	{Name: "mode", Kind: Text, Default: "ON", Accepts: []string{"ON", "OFF"}},
	{Name: "note", Kind: Text},
	{Name: "col", Kind: Column},
	{Name: "ins", Kind: InputTables},
	{Name: "ctl", Kind: ControlledTables},
	{Name: "out", Kind: OutputTable},
}}

// TestArgumentHelpers binds CALL arguments to the declared signature: each
// argument converts to its parameter's kind, an absent, NULL or blank one
// takes the default, and anything else is refused naming the position and
// the parameter, with the usage.
func TestArgumentHelpers(t *testing.T) {
	args, err := bindProc.bind([]types.Value{types.NewString(" tbl "), types.Null(), types.NewInt(7), types.NewFloat(0.25), types.NewString("off"), types.NewString(" hi "), types.NewString(" "), types.NewString(" a, b ,C ")})
	if err != nil {
		t.Fatal(err)
	}
	want := []Arg{
		{Str: "TBL", Names: []string{"TBL"}},
		{Names: []string{"A", "B"}},
		{Int: 7}, {Num: 0.25}, {Str: "OFF"}, {Str: "hi"}, {},
		{Names: []string{"A", "B", "C"}},
		{}, {},
	}
	if !reflect.DeepEqual(args, want) {
		t.Fatalf("bound %+v, want %+v", args, want)
	}
	for _, tc := range []struct {
		args []types.Value
		want string
	}{
		{nil, "argument 1 (in): missing"},
		{[]types.Value{types.Null()}, "argument 1 (in): missing"},
		{str("T", "A", "two"), "argument 3 (n): 'two' is not an integer"},
		{[]types.Value{types.NewString("T"), types.Null(), types.NewFloat(2.9)}, "argument 3 (n): 2.9 is not an integer"},
		{str("T", "A", "3", "many"), "argument 4 (x): 'many' is not a number"},
		{str("T", "A", "3", "NaN"), "argument 4 (x)"},
		{str("T", "A", "3", "1", "YES"), "argument 5 (mode): 'YES' is not one of 'ON'|'OFF'"},
		{str("T,U"), "argument 1 (in): 'T,U' names 2 objects"},
		{str("T WHERE X > 5"), "argument 1 (in): 'T WHERE X > 5' is not a valid table"},
		{[]types.Value{types.NewInt(5)}, "argument 1 (in): 5 is not a string"},
		{str("T", "A,,B"), "argument 2 (cols)"},
		{str("T", "A", "", "", "", "", "", "", "", "T"), "argument 10 (out): T is also argument 1 (in)"},
		{str("T", "A", "", "", "", "", "", "U,V", "", "v"), "argument 10 (out): V is also argument 8 (ins)"},
		{str("T", "", "", "", "", "", "", "", "", "", "junk"), "argument 11: 11 arguments given, T.BIND takes 10"},
	} {
		_, err := bindProc.bind(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "usage: T.BIND(in table, cols column list = 'A,B', n integer = 3") {
			t.Errorf("bind %v: %v, want %q with the usage", tc.args, err, tc.want)
		}
	}
	if n, ok := toInt(types.NewString("2.0")); !ok || n != 2 {
		t.Fatalf("toInt('2.0') = %d, %v", n, ok)
	}
	fw := NewFramework(catalog.New())
	if err := fw.Register(Procedure{Name: "t.bad", Params: []Param{{Name: "n", Kind: Integer, Default: "ten"}}}, false); err == nil {
		t.Fatal("a default that does not bind must be refused at registration")
	}
}

// FuzzBindArgs: binding never panics. It either fails with an argError at a
// position that names a declared parameter (or the first extra argument), or
// returns one Arg per parameter holding a value of the parameter's kind.
func FuzzBindArgs(f *testing.F) {
	for _, seed := range []struct {
		a, b  string
		n     int64
		x     float64
		shape uint16
	}{
		{" tbl ", "", 7, 0.25, 0},
		{"tbl", "a, b ,,C", 9, 0, 1},
		{"PTS", "two", 3, 2.9, 2},
		{"PTS", "many", 10, 0, 3},
		{"PTS", "MEEN", 0, 0, 4},
		{"SRC", "YES", 0, 0, 5},
		{"PTS,PTS", "X", 0, 0, 6},
		{"PTS WHERE X > 5", "X", 0, 0, 7},
		{"M1,M2", "M1", 0, 0, 8},
		{"PTS", "PTS", 5, 0.5, 0x3ff},
		{`"ACCELERATOR SHARDS"`, "x", 1 << 62, 1e300, 0xffff},
	} {
		f.Add(seed.a, seed.b, seed.n, seed.x, seed.shape)
	}
	f.Fuzz(func(t *testing.T, a, b string, n int64, x float64, shape uint16) {
		// shape picks the argument count (low nibble) and, two bits per
		// argument, whether each is a, b, n or x.
		args := make([]types.Value, int(shape&0xf)%12)
		for i := range args {
			switch (shape >> (4 + 2*(i%6))) & 3 {
			case 0:
				args[i] = types.NewString(a)
			case 1:
				args[i] = types.NewString(b)
			case 2:
				args[i] = types.NewInt(n)
			default:
				args[i] = types.NewFloat(x)
			}
		}
		bound, err := bindProc.bind(args)
		if err != nil {
			var ae *argError
			if !errors.As(err, &ae) || ae.Pos < 1 || ae.Pos > len(bindProc.Params)+1 || !strings.Contains(err.Error(), "usage: ") {
				t.Fatalf("bind %v: %v", args, err)
			}
			if ae.Pos <= len(bindProc.Params) && !strings.Contains(err.Error(), "("+bindProc.Params[ae.Pos-1].Name+")") {
				t.Fatalf("bind %v: %v does not name the parameter", args, err)
			}
			return
		}
		if len(bound) != len(bindProc.Params) {
			t.Fatalf("bind %v: %d args for %d parameters", args, len(bound), len(bindProc.Params))
		}
		for i, p := range bindProc.Params {
			arg := bound[i]
			switch p.Kind {
			case Number:
				if math.IsNaN(arg.Num) || math.IsInf(arg.Num, 0) {
					t.Fatalf("%s bound to %v", p.Name, arg.Num)
				}
			case Text:
				if len(p.Accepts) > 0 && !slices.Contains(p.Accepts, arg.Str) {
					t.Fatalf("%s bound to %q", p.Name, arg.Str)
				}
			case Column, InputTable, OutputTable:
				if arg.Str == "" && (p.Required || len(arg.Names) != 0) || arg.Str != "" && !slices.Equal(arg.Names, []string{arg.Str}) {
					t.Fatalf("%s bound to %+v", p.Name, arg)
				}
			case Columns, InputTables, ControlledTables:
				if arg.Str != "" || slices.Contains(arg.Names, "") {
					t.Fatalf("%s bound to %+v", p.Name, arg)
				}
			}
			if isTable(p.Kind) && p.Kind != OutputTable || p.Kind == Columns || p.Kind == Column {
				for _, name := range arg.Names {
					if again, err := sqlparse.ParseNames(`"` + strings.ReplaceAll(name, `"`, `""`) + `"`); err != nil || len(again) != 1 {
						t.Fatalf("%s bound name %q does not parse back: %v", p.Name, name, err)
					}
				}
			}
		}
	})
}
