package idaax_test

import (
	"strings"
	"testing"

	"idaax"
)

func newTestSystem(t *testing.T) *idaax.System {
	t.Helper()
	return idaax.New(idaax.Config{AcceleratorSlices: 2, AnalyticsPublic: true})
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	defer sys.Close()
	s := sys.AdminSession()

	if _, err := s.Exec("CREATE TABLE sales (id BIGINT, region VARCHAR(8), amount DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("INSERT INTO sales VALUES (1,'EU',10),(2,'US',20),(3,'EU',30)")
	if err != nil || res.RowsAffected != 3 {
		t.Fatalf("insert: %+v, %v", res, err)
	}
	if _, err := s.Exec("CALL SYSPROC.ACCEL_ADD_TABLES('IDAA1', 'SALES')"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CALL SYSPROC.ACCEL_LOAD_TABLES('IDAA1', 'SALES')"); err != nil {
		t.Fatal(err)
	}
	q, err := s.Query("SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	if q.Routed != "IDAA1" || len(q.Rows) != 2 {
		t.Fatalf("query: routed=%s rows=%d", q.Routed, len(q.Rows))
	}
	if q.Value(0, "REGION") != "EU" || q.Value(0, "TOTAL") != "40" {
		t.Fatalf("values: %v", q.Rows)
	}
	if !strings.Contains(q.FormatTable(), "REGION") {
		t.Fatal("FormatTable should include header")
	}

	info, err := sys.TableInfo("SALES")
	if err != nil || info.Kind != "ACCELERATED" || info.DB2Rows != 3 || info.AcceleratorRows != 3 {
		t.Fatalf("table info: %+v, %v", info, err)
	}
	if len(sys.Tables()) != 1 {
		t.Fatal("tables list")
	}
	stats, err := sys.AcceleratorStats("")
	if err != nil || stats.Name != "IDAA1" || stats.QueriesRun == 0 {
		t.Fatalf("accelerator stats: %+v, %v", stats, err)
	}
	m := sys.Metrics()
	if m.StatementsOffloaded == 0 || m.ReplicationRowsCopied != 3 {
		t.Fatalf("metrics: %+v", m)
	}
	sys.ResetMetrics()
	if m := sys.Metrics(); m.StatementsOffloaded != 0 || m.ReplicationRowsCopied != 3 {
		t.Fatalf("metrics after ResetMetrics: %+v", m)
	}
}

func TestFacadeAOTTransactions(t *testing.T) {
	sys := newTestSystem(t)
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE scratch (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if !s.InTransaction() {
		t.Fatal("transaction should be open")
	}
	s.MustExec("INSERT INTO scratch VALUES (1, 1.5)")
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	res := s.MustExec("SELECT COUNT(*) FROM scratch")
	if res.Rows[0][0] != "1" {
		t.Fatalf("count: %v", res.Rows)
	}
	if err := s.SetAcceleration("NONE"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT * FROM scratch"); err == nil {
		t.Fatal("AOT query with acceleration NONE should fail")
	}
	if err := s.SetAcceleration("bogus"); err == nil {
		t.Fatal("invalid acceleration mode should fail")
	}
	if s.Acceleration() != "NONE" {
		t.Fatalf("acceleration register: %s", s.Acceleration())
	}
}

func TestFacadeLoadCSVIntoAOT(t *testing.T) {
	sys := newTestSystem(t)
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE ext (id BIGINT, score DOUBLE, tag VARCHAR(8)) IN ACCELERATOR IDAA1")
	csv := "ID,SCORE,TAG\n1,0.5,a\n2,0.7,b\n3,,c\n"
	rep, err := sys.Load("EXT", strings.NewReader(csv), idaax.LoadOptions{HasHeader: true, MapByHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsLoaded != 3 || rep.LoadedInto != "ACCELERATOR" {
		t.Fatalf("load report: %+v", rep)
	}
	res := s.MustExec("SELECT COUNT(*) AS n, COUNT(score) AS scored FROM ext")
	if res.Value(0, "N") != "3" || res.Value(0, "SCORED") != "2" {
		t.Fatalf("loaded data wrong: %v", res.Rows)
	}
	if _, err := sys.Load("NOSUCH", strings.NewReader(csv), idaax.LoadOptions{}); err == nil {
		t.Fatal("loading into unknown table should fail")
	}
}

func TestFacadeCustomProcedure(t *testing.T) {
	sys := newTestSystem(t)
	s := sys.AdminSession()
	s.MustExec("CREATE TABLE base (id BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
	s.MustExec("INSERT INTO base VALUES (1, 2), (2, 4), (3, 6)")

	err := sys.RegisterProcedure("DEMO.DOUBLE_IT", "doubles v into a new AOT: (out_table)", true,
		func(ctx *idaax.ProcedureContext, args []string) (*idaax.ProcedureResult, error) {
			out := args[0]
			if _, err := ctx.Exec("CREATE TABLE " + out + " (id BIGINT, v DOUBLE) IN ACCELERATOR IDAA1"); err != nil {
				return nil, err
			}
			n, err := ctx.Exec("INSERT INTO " + out + " SELECT id, v * 2 FROM base")
			if err != nil {
				return nil, err
			}
			rows, err := ctx.Query("SELECT COUNT(*) FROM " + out)
			if err != nil {
				return nil, err
			}
			return &idaax.ProcedureResult{RowsAffected: n, Message: "rows=" + rows.Rows[0][0]}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterProcedure("DEMO.DOUBLE_IT", "dup", true, nil); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	res := s.MustExec("CALL DEMO.DOUBLE_IT('DOUBLED')")
	if res.RowsAffected != 3 || !strings.Contains(res.Message, "rows=3") {
		t.Fatalf("call result: %+v", res)
	}
	out := s.MustExec("SELECT SUM(v) FROM doubled")
	if out.Rows[0][0] != "24" {
		t.Fatalf("doubled sum: %v", out.Rows)
	}
	found := false
	for _, p := range sys.Procedures() {
		if p == "DEMO.DOUBLE_IT" {
			found = true
		}
	}
	if !found {
		t.Fatal("procedure not listed")
	}

	// InsertValues path.
	err = sys.RegisterProcedure("DEMO.SEED", "seed rows", true,
		func(ctx *idaax.ProcedureContext, args []string) (*idaax.ProcedureResult, error) {
			n, err := ctx.InsertValues("BASE", [][]any{{int64(10), 1.0}, {int64(11), nil}})
			if err != nil {
				return nil, err
			}
			return &idaax.ProcedureResult{RowsAffected: n}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.MustExec("CALL DEMO.SEED()"); res.RowsAffected != 2 {
		t.Fatalf("seed: %+v", res)
	}
}

func TestFacadeAnalyticsProceduresRegistered(t *testing.T) {
	sys := newTestSystem(t)
	procs := sys.Procedures()
	wanted := []string{"IDAX.KMEANS", "IDAX.PREDICT", "IDAX.LOGISTIC_REGRESSION", "SYSPROC.ACCEL_ADD_TABLES"}
	for _, w := range wanted {
		found := false
		for _, p := range procs {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Errorf("procedure %s not registered", w)
		}
	}
	// DisableAnalytics leaves only the SYSPROC administration procedures.
	bare := idaax.New(idaax.Config{DisableAnalytics: true})
	for _, p := range bare.Procedures() {
		if strings.HasPrefix(p, "IDAX.") {
			t.Errorf("IDAX procedure %s registered despite DisableAnalytics", p)
		}
	}
}

func TestParseSQLHelper(t *testing.T) {
	kind, err := idaax.ParseSQL("SELECT 1")
	if err != nil || !strings.Contains(kind, "SelectStmt") {
		t.Fatalf("ParseSQL: %q, %v", kind, err)
	}
	if _, err := idaax.ParseSQL("NOT SQL AT ALL"); err == nil {
		t.Fatal("invalid SQL should fail")
	}
}

func TestExecScriptAndErrors(t *testing.T) {
	sys := newTestSystem(t)
	s := sys.AdminSession()
	results, err := s.ExecScript(`
		CREATE TABLE a (x BIGINT);
		INSERT INTO a VALUES (1), (2);
		SELECT COUNT(*) FROM a;
	`)
	if err != nil || len(results) != 3 {
		t.Fatalf("script: %d results, %v", len(results), err)
	}
	if results[2].Rows[0][0] != "2" {
		t.Fatalf("script query result: %v", results[2].Rows)
	}
	if _, err := s.Query("INSERT INTO a VALUES (3)"); err == nil {
		t.Fatal("Query on a non-result statement should fail")
	}
	if _, err := s.Exec("SELECT * FROM missing_table"); err == nil {
		t.Fatal("querying a missing table should fail")
	}
}
