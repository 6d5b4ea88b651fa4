package core

import (
	"errors"
	"fmt"
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
	proc := Procedure{Name: "test.echo", Description: "echoes", Run: func(ctx *ProcContext, args []types.Value) (*ProcResult, error) {
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
	run := func(ctx *ProcContext, args []types.Value) (*ProcResult, error) { runs++; return nil, nil }
	fw.MustRegister(Procedure{Name: "t.rw", Reads: []int{0}, Replaces: []int{1}, Run: run}, true)
	fw.MustRegister(Procedure{Name: "t.ctl", Controls: []int{0}, Run: run}, true)
	fw.MustRegister(Procedure{Name: "t.admin", AdminOnly: true, Run: run}, true)
	str := func(ss ...string) []types.Value {
		out := make([]types.Value, len(ss))
		for i, s := range ss {
			out[i] = types.NewString(s)
		}
		return out
	}
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
		{"BOB", "t.rw", nil, true},                  // absent arguments name nothing
		{"BOB", "t.ctl", str("IN1"), false},
		{"ALICE", "t.ctl", str("IN1"), true},
		{"ALICE", "t.admin", nil, false},
		{catalog.AdminUser, "t.admin", nil, true},
	} {
		before := runs
		_, err := fw.Call(&ProcContext{User: tc.user, Catalog: cat, Accelerator: a, AOTs: mgr}, tc.proc, tc.args)
		if (err == nil) != tc.ok || (runs > before) != tc.ok {
			t.Fatalf("%s CALL %s%v: err %v, ran %v, want ok=%v", tc.user, tc.proc, tc.args, err, runs > before, tc.ok)
		}
	}
}

func TestArgumentHelpers(t *testing.T) {
	args := []types.Value{types.NewString(" tbl "), types.Null(), types.NewInt(7), types.NewFloat(0.25)}
	if v, err := ArgString(args, 0, "t"); err != nil || v != "tbl" {
		t.Fatalf("ArgString: %q, %v", v, err)
	}
	if _, err := ArgString(args, 1, "missing"); err == nil {
		t.Fatal("NULL required arg should fail")
	}
	if _, err := ArgString(args, 9, "missing"); err == nil {
		t.Fatal("absent required arg should fail")
	}
	if v := ArgStringDefault(args, 1, "dflt"); v != "dflt" {
		t.Fatalf("ArgStringDefault: %q", v)
	}
	if v := ArgInt(args, 2, -1); v != 7 {
		t.Fatalf("ArgInt: %d", v)
	}
	if v := ArgInt(args, 9, -1); v != -1 {
		t.Fatalf("ArgInt default: %d", v)
	}
	if v := ArgFloat(args, 3, 0); v != 0.25 {
		t.Fatalf("ArgFloat: %v", v)
	}
	if got := SplitList(" a, b ,,C "); len(got) != 3 || got[2] != "C" {
		t.Fatalf("SplitList: %v", got)
	}
}
