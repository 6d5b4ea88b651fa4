package idaax_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"idaax"
)

// callAccess is the access a CALL's registration declares, as this test
// expects it: whether it names input tables the caller must read, outputs
// it replaces (OUT and OUT2 below), tables the caller must control, or is
// SYSADM-only.
type callAccess struct {
	sql                                  string
	reads, replaces, controls, adminOnly bool
}

// callAccessSpecs lists every built-in procedure's CALL over the fixture of
// newAccessFixture.
var callAccessSpecs = map[string]callAccess{
	"IDAX.SUMMARY":             {sql: "CALL IDAX.SUMMARY('PTS', 'X,Y')", reads: true},
	"IDAX.STANDARDIZE":         {sql: "CALL IDAX.STANDARDIZE('PTS', 'X,Y', 'OUT')", reads: true, replaces: true},
	"IDAX.IMPUTE":              {sql: "CALL IDAX.IMPUTE('PTS', 'X,Y', 'MEAN', 'OUT')", reads: true, replaces: true},
	"IDAX.BIN":                 {sql: "CALL IDAX.BIN('PTS', 'X', 3, 'OUT')", reads: true, replaces: true},
	"IDAX.ONE_HOT":             {sql: "CALL IDAX.ONE_HOT('PTS', 'CAT', 'OUT')", reads: true, replaces: true},
	"IDAX.SPLIT_DATA":          {sql: "CALL IDAX.SPLIT_DATA('PTS', 'OUT', 'OUT2', 0.5, 1)", reads: true, replaces: true},
	"IDAX.LINEAR_REGRESSION":   {sql: "CALL IDAX.LINEAR_REGRESSION('PTS', 'Y', 'X', 'OUT')", reads: true, replaces: true},
	"IDAX.LOGISTIC_REGRESSION": {sql: "CALL IDAX.LOGISTIC_REGRESSION('PTS', 'L', 'X,Y', 'OUT')", reads: true, replaces: true},
	"IDAX.KMEANS":              {sql: "CALL IDAX.KMEANS('PTS', 'X,Y', 2, 'OUT', 'OUT2', 'ID')", reads: true, replaces: true},
	"IDAX.NAIVE_BAYES":         {sql: "CALL IDAX.NAIVE_BAYES('PTS', 'L', 'X,Y', 'OUT')", reads: true, replaces: true},
	"IDAX.DECISION_TREE":       {sql: "CALL IDAX.DECISION_TREE('PTS', 'L', 'X,Y', 'OUT')", reads: true, replaces: true},
	"IDAX.PREDICT":             {sql: "CALL IDAX.PREDICT('MODEL', 'PTS', 'ID', 'OUT')", reads: true, replaces: true},

	"SYSPROC.ACCEL_ADD_TABLES":             {sql: "CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'RAW')", reads: true},
	"SYSPROC.ACCEL_LOAD_TABLES":            {sql: "CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'SRC')", reads: true},
	"SYSPROC.ACCEL_ANALYZE":                {sql: "CALL SYSPROC.ACCEL_ANALYZE('IDAA1', 'SRC')", reads: true},
	"SYSPROC.ACCEL_SYNC_TABLES":            {sql: "CALL SYSPROC.ACCEL_SYNC_TABLES('IDAA1', 'SRC')", reads: true},
	"SYSPROC.ACCEL_TABLE_INFO":             {sql: "CALL SYSPROC.ACCEL_TABLE_INFO('SRC')", reads: true},
	"SYSPROC.ACCEL_REMOVE_TABLES":          {sql: "CALL SYSPROC.ACCEL_REMOVE_TABLES('IDAA1', 'SRC')", controls: true},
	"SYSPROC.ACCEL_SET_TABLES_REPLICATION": {sql: "CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('IDAA1', 'SRC', 'OFF')", controls: true},
	"SYSPROC.ACCEL_REBALANCE":              {sql: "CALL SYSPROC.ACCEL_REBALANCE('SHARDS')", adminOnly: true},
	"SYSPROC.ACCEL_GRANT_PROCEDURE":        {sql: "CALL SYSPROC.ACCEL_GRANT_PROCEDURE('IDAX.SUMMARY', 'STRANGER')", adminOnly: true},
	"SYSPROC.ACCEL_REVOKE_PROCEDURE":       {sql: "CALL SYSPROC.ACCEL_REVOKE_PROCEDURE('IDAX.SUMMARY', 'GRANTEE')", adminOnly: true},
	"SYSPROC.ACCEL_METRICS":                {sql: "CALL SYSPROC.ACCEL_METRICS()"},
	"SYSPROC.ACCEL_QUERY_HISTORY":          {sql: "CALL SYSPROC.ACCEL_QUERY_HISTORY(5)"},
	"SYSPROC.ACCEL_EVENTS":                 {sql: "CALL SYSPROC.ACCEL_EVENTS(5)"},
}

// The output states a CALL meets: OUT and OUT2 are absent, accelerator-only
// tables the caller owns, ones OTHER owns, or DB2 tables the caller owns.
const (
	outAbsent = iota
	outOwnAOT
	outOtherAOT
	outDB2
)

var outStates = []string{"absent", "own_aot", "other_aot", "db2_table"}

// newAccessFixture builds a 3-member fleet whose tables belong to OWNER:
// SRC (accelerated on IDAA1, replication on), RAW (DB2 only), PTS (the IDAX
// input, on backend) and MODEL (a linear model trained on PTS). GRANTEE
// holds SELECT on all four; STRANGER holds nothing. OUT and OUT2 are then
// put in the given output state for caller.
func newAccessFixture(t *testing.T, backend, caller string, out int) *idaax.System {
	t.Helper()
	sys := idaax.New(idaax.Config{
		AnalyticsPublic: true,
		Accelerators:    []idaax.AcceleratorConfig{{Name: "IDAA1", Slices: 1}, {Name: "IDAA2", Slices: 1}, {Name: "IDAA3", Slices: 1}},
	})
	t.Cleanup(func() { sys.Close() })
	run := func(user string, stmts ...string) {
		t.Helper()
		s := sys.Session(user)
		for _, sql := range stmts {
			if _, err := s.Exec(sql); err != nil {
				t.Fatalf("fixture %s: %s: %v", user, sql, err)
			}
		}
	}
	var pts strings.Builder
	for i := 0; i < 12; i++ {
		if i > 0 {
			pts.WriteString(", ")
		}
		fmt.Fprintf(&pts, "(%d, %d, %d, %d, '%c')", i, i%6, 2*(i%6)+i%2, i%2, 'A'+i%3)
	}
	run("OWNER",
		"CREATE TABLE src (id BIGINT, v DOUBLE)",
		"INSERT INTO src VALUES (1, 1), (2, 2), (3, 3)",
		"CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'SRC')",
		"CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'SRC')",
		"CALL SYSPROC.ACCEL_SET_TABLES_REPLICATION('IDAA1', 'SRC', 'ON')",
		"CREATE TABLE raw (id BIGINT, v DOUBLE)",
		"INSERT INTO raw VALUES (1, 1)",
		"CREATE TABLE pts (id BIGINT, x DOUBLE, y DOUBLE, l BIGINT, cat VARCHAR(8)) IN ACCELERATOR "+backend+" DISTRIBUTE BY HASH(id)",
		"INSERT INTO pts VALUES "+pts.String(),
		"CALL IDAX.LINEAR_REGRESSION('PTS', 'Y', 'X', 'MODEL')",
		"GRANT SELECT ON src TO grantee",
		"GRANT SELECT ON raw TO grantee",
		"GRANT SELECT ON pts TO grantee",
		"GRANT SELECT ON model TO grantee",
	)
	creator, in := caller, " IN ACCELERATOR IDAA1"
	switch out {
	case outAbsent:
		return sys
	case outOtherAOT:
		creator = "OTHER"
	case outDB2:
		in = ""
	}
	for _, table := range []string{"out", "out2"} {
		run(creator, "CREATE TABLE "+table+" (a BIGINT)"+in, "INSERT INTO "+table+" VALUES (7)")
	}
	return sys
}

// TestCallAccessMatrix runs every registered procedure as the owner of its
// tables (SYSADM for the SYSADM-only and table-free ones), as a grantee
// holding only SELECT and as a stranger, against every output state. The
// IDAX procedures run with their input on IDAA1 and on the 3-member SHARDS
// group, whose shard-local scatter skips routing. A CALL the declaration
// refuses fails with a privilege or replace error and changes no table's
// existence, kind or row count; every other CALL succeeds.
func TestCallAccessMatrix(t *testing.T) {
	probe := idaax.New(idaax.Config{AnalyticsPublic: true})
	registered := probe.Procedures()
	probe.Close()
	var names []string
	for name := range callAccessSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(registered, names) {
		t.Fatalf("registered procedures %v, matrix covers %v", registered, names)
	}

	for _, name := range registered {
		spec := callAccessSpecs[name]
		backends := []string{"IDAA1"}
		if strings.HasPrefix(name, "IDAX.") {
			backends = append(backends, "SHARDS")
		}
		owner := "OWNER"
		if !spec.reads && !spec.controls {
			owner = "SYSADM"
		}
		for _, backend := range backends {
			for _, caller := range []string{owner, "GRANTEE", "STRANGER"} {
				for out, state := range outStates {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", name, backend, caller, state), func(t *testing.T) {
						sys := newAccessFixture(t, backend, caller, out)
						admin := caller == "SYSADM"
						refused := (spec.reads && caller == "STRANGER") ||
							(spec.controls && caller != owner) ||
							(spec.adminOnly && !admin) ||
							(spec.replaces && (out == outDB2 || out == outOtherAOT && !admin))
						before := sys.Tables()
						_, err := sys.Session(caller).Exec(spec.sql)
						if !refused {
							if err != nil {
								t.Fatalf("%s: want success, got %v", spec.sql, err)
							}
							return
						}
						if err == nil {
							t.Fatalf("%s: want refusal, the CALL succeeded", spec.sql)
						}
						if msg := err.Error(); !strings.Contains(msg, "lacks") && !strings.Contains(msg, "not accelerator-only") {
							t.Fatalf("%s: want a privilege or replace refusal, got %v", spec.sql, err)
						}
						if after := sys.Tables(); !reflect.DeepEqual(before, after) {
							t.Fatalf("%s was refused but changed tables:\nbefore %+v\nafter  %+v", spec.sql, before, after)
						}
					})
				}
			}
		}
	}
}

// TestAdminActionsNotOwnable: owning a table named like a procedure or an
// accelerator gives no administrative power. SYSADM-only CALLs and ALTER
// ACCELERATOR check the caller's identity, not an owner, and table names
// in the procedure namespace are refused.
func TestAdminActionsNotOwnable(t *testing.T) {
	sys := idaax.New(idaax.Config{
		Accelerators: []idaax.AcceleratorConfig{{Name: "IDAA1", Slices: 1}, {Name: "IDAA2", Slices: 1}, {Name: "IDAA3", Slices: 1}},
	})
	defer sys.Close()
	bob := sys.Session("BOB")
	for _, name := range []string{"PROCEDURE SYSPROC.ACCEL_GRANT_PROCEDURE", "PROCEDURE SYSPROC.ACCEL_REBALANCE", "PROCEDURE IDAX.KMEANS"} {
		if _, err := bob.Exec(`CREATE TABLE "` + name + `" (a BIGINT)`); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("CREATE TABLE %q: %v, want the name refused", name, err)
		}
	}
	if _, err := bob.Exec(`CREATE TABLE "ACCELERATOR SHARDS" (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"ALTER ACCELERATOR SHARDS REMOVE MEMBER IDAA3",
		"CALL SYSPROC.ACCEL_REBALANCE('SHARDS')",
		"CALL SYSPROC.ACCEL_GRANT_PROCEDURE('IDAX.KMEANS', 'BOB')",
		"CALL SYSPROC.ACCEL_REVOKE_PROCEDURE('IDAX.SUMMARY', 'PUBLIC')",
		"CALL IDAX.SUMMARY('ACCELERATOR SHARDS', 'A')",
	} {
		if _, err := bob.Exec(sql); err == nil || !strings.Contains(err.Error(), "lacks") {
			t.Fatalf("BOB: %s: %v, want a privilege refusal", sql, err)
		}
	}
	if _, err := sys.AdminSession().Exec("ALTER ACCELERATOR SHARDS REMOVE MEMBER IDAA3"); err != nil {
		t.Fatalf("SYSADM: ALTER ACCELERATOR: %v", err)
	}
}
