package replication

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"idaax/internal/accel"
	"idaax/internal/catalog"
	"idaax/internal/db2"
	"idaax/internal/rowstore"
	"idaax/internal/shard"
	"idaax/internal/sqlparse"
	"idaax/internal/types"
)

type provider struct{ a *accel.Accelerator }

func (p *provider) Accelerator(name string) (accel.Backend, error) {
	if types.NormalizeName(name) != "IDAA1" && name != "" {
		return nil, fmt.Errorf("unknown accelerator %s", name)
	}
	return p.a, nil
}

func setup(t *testing.T) (*db2.Engine, *accel.Accelerator, *Replicator) {
	t.Helper()
	cat := catalog.New()
	cat.AddAccelerator("IDAA1")
	engine := db2.New(cat)
	a := accel.New("IDAA1", 2)
	r := New(engine, &provider{a: a})
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindFloat},
	)
	if err := engine.CreateTable("FACTS", schema, "SYSADM"); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Insert(nil, "FACTS", []types.Row{
		{types.NewInt(1), types.NewFloat(1)},
		{types.NewInt(2), types.NewFloat(2)},
		{types.NewInt(3), types.NewFloat(3)},
	}); err != nil {
		t.Fatal(err)
	}
	return engine, a, r
}

func TestAddFullLoadRemove(t *testing.T) {
	engine, a, r := setup(t)
	if _, err := r.FullLoad("FACTS"); err == nil {
		t.Fatal("full load before AddTable should fail")
	}
	if err := r.AddTable("FACTS", "IDAA1", "ID"); err != nil {
		t.Fatal(err)
	}
	meta, _ := engine.Catalog().Table("FACTS")
	if meta.Kind != catalog.KindAccelerated {
		t.Fatalf("catalog kind: %v", meta.Kind)
	}
	n, err := r.FullLoad("FACTS")
	if err != nil || n != 3 {
		t.Fatalf("full load: %d, %v", n, err)
	}
	if got, _ := a.RowCount(0, "FACTS"); got != 3 {
		t.Fatalf("shadow rows: %d", got)
	}
	st, ok := r.State("FACTS")
	if !ok || st.FullLoads != 1 || st.RowsFullLoaded != 3 {
		t.Fatalf("state: %+v", st)
	}
	// Re-load replaces the contents rather than duplicating them.
	if _, err := r.FullLoad("FACTS"); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.RowCount(0, "FACTS"); got != 3 {
		t.Fatalf("shadow rows after reload: %d", got)
	}
	if err := r.RemoveTable("FACTS"); err != nil {
		t.Fatal(err)
	}
	meta, _ = engine.Catalog().Table("FACTS")
	if meta.Kind != catalog.KindRegular || a.HasTable("FACTS") {
		t.Fatal("remove incomplete")
	}
	if err := r.RemoveTable("FACTS"); err == nil {
		t.Fatal("removing a non-accelerated table should fail")
	}
}

func TestIncrementalApply(t *testing.T) {
	engine, a, r := setup(t)
	if err := r.AddTable("FACTS", "IDAA1", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FullLoad("FACTS"); err != nil {
		t.Fatal(err)
	}
	if err := r.EnableReplication("FACTS"); err != nil {
		t.Fatal(err)
	}

	// Captured changes: insert, update, delete.
	if _, err := engine.Insert(nil, "FACTS", []types.Row{{types.NewInt(4), types.NewFloat(4)}}); err != nil {
		t.Fatal(err)
	}
	upd := mustParse(t, "UPDATE facts SET v = 20 WHERE id = 2").(*sqlparse.UpdateStmt)
	if _, err := engine.Update(nil, "FACTS", upd.Assignments, upd.Where); err != nil {
		t.Fatal(err)
	}
	del := mustParse(t, "DELETE FROM facts WHERE id = 1").(*sqlparse.DeleteStmt)
	if _, err := engine.Delete(nil, "FACTS", del.Where); err != nil {
		t.Fatal(err)
	}
	if pending := r.PendingChanges("FACTS"); pending != 3 {
		t.Fatalf("pending = %d", pending)
	}
	applied, err := r.SyncAll()
	if err != nil || applied != 3 {
		t.Fatalf("sync: %d, %v", applied, err)
	}
	if pending := r.PendingChanges("FACTS"); pending != 0 {
		t.Fatalf("pending after sync = %d", pending)
	}
	// Shadow now matches DB2: rows {2->20, 3, 4}, row 1 deleted.
	if got, _ := a.RowCount(0, "FACTS"); got != 3 {
		t.Fatalf("shadow rows = %d", got)
	}
	stats := r.Stats()
	if stats.RowsIncremental != 3 || stats.IncrementalRuns != 1 || stats.RowsFullLoaded != 3 {
		t.Fatalf("stats: %+v", stats)
	}
	// Disabled replication is skipped by SyncAll.
	if err := r.DisableReplication("FACTS"); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Insert(nil, "FACTS", []types.Row{{types.NewInt(9), types.NewFloat(9)}}); err != nil {
		t.Fatal(err)
	}
	n, err := r.SyncAll()
	if err != nil || n != 0 {
		t.Fatalf("sync with replication disabled applied %d, %v", n, err)
	}
}

func mustParse(t *testing.T, sql string) sqlparse.Statement {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// shardedProvider resolves both the shard-group name and the member names.
type shardedProvider struct{ router *shard.Router }

func (p *shardedProvider) Accelerator(name string) (accel.Backend, error) {
	name = types.NormalizeName(name)
	if name == "" || name == "SHARDS" {
		return p.router, nil
	}
	for _, m := range p.router.Members() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown accelerator %s", name)
}

func setupSharded(t *testing.T, shards int) (*db2.Engine, *shard.Router, *Replicator) {
	t.Helper()
	cat := catalog.New()
	cat.AddAccelerator("SHARDS")
	engine := db2.New(cat)
	members := make([]*accel.Accelerator, shards)
	for i := range members {
		members[i] = accel.New(fmt.Sprintf("NODE%d", i), 2)
	}
	router, err := shard.NewRouter("SHARDS", members)
	if err != nil {
		t.Fatal(err)
	}
	r := New(engine, &shardedProvider{router: router})
	schema := types.NewSchema(
		types.Column{Name: "ID", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindFloat},
	)
	if err := engine.CreateTable("FACTS", schema, "SYSADM"); err != nil {
		t.Fatal(err)
	}
	return engine, router, r
}

// TestIncrementalApplyConcurrentWriters drives the incremental CDC path while
// writers keep committing: several goroutines insert into DB2 concurrently
// with a syncer that repeatedly applies pending changes, and the shadow copy
// must converge to the exact DB2 contents with every row mirrored on exactly
// one shard.
func TestIncrementalApplyConcurrentWriters(t *testing.T) {
	engine, router, r := setupSharded(t, 3)
	if err := r.AddTable("FACTS", "SHARDS", "ID"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FullLoad("FACTS"); err != nil {
		t.Fatal(err)
	}
	if err := r.EnableReplication("FACTS"); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 200
	var wg sync.WaitGroup
	writeErrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i)
				_, err := engine.Insert(nil, "FACTS", []types.Row{
					{types.NewInt(id), types.NewFloat(float64(id) * 0.5)},
				})
				if err != nil {
					writeErrs[w] = err
					return
				}
			}
		}(w)
	}

	// Syncer races the writers: repeatedly apply whatever is pending.
	stop := make(chan struct{})
	var syncErr error
	var syncerDone sync.WaitGroup
	syncerDone.Add(1)
	go func() {
		defer syncerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := r.ApplyPending("FACTS"); err != nil {
					syncErr = err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	syncerDone.Wait()
	if syncErr != nil {
		t.Fatalf("syncer: %v", syncErr)
	}
	for w, err := range writeErrs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	// Drain whatever the racing syncer had not yet applied.
	if _, err := r.ApplyPending("FACTS"); err != nil {
		t.Fatal(err)
	}
	if pending := r.PendingChanges("FACTS"); pending != 0 {
		t.Fatalf("pending after final sync = %d", pending)
	}

	// The shadow fleet holds exactly the DB2 rows, each on exactly one shard.
	const total = writers * perWriter
	if got, _ := router.RowCount(0, "FACTS"); got != total {
		t.Fatalf("fleet rows = %d, want %d", got, total)
	}
	st, err := engine.Storage("FACTS")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Scan(func(id rowstore.RowID, row types.Row) error {
		holders := 0
		for _, m := range router.Members() {
			if m.HasReplicatedSource("FACTS", int64(id)) {
				holders++
			}
		}
		if holders != 1 {
			return fmt.Errorf("DB2 row %d mirrored on %d shards, want exactly 1", id, holders)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Distribution is not degenerate: every shard received a share.
	for _, m := range router.Members() {
		n, err := m.RowCount(0, "FACTS")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("shard %s holds no replicated rows", m.Name())
		}
	}
}

// TestShardedIncrementalUpdateDelete verifies that captured updates and
// deletes land on the owning shard, including key changes that migrate rows.
func TestShardedIncrementalUpdateDelete(t *testing.T) {
	engine, router, r := setupSharded(t, 2)
	if _, err := engine.Insert(nil, "FACTS", []types.Row{
		{types.NewInt(1), types.NewFloat(1)},
		{types.NewInt(2), types.NewFloat(2)},
		{types.NewInt(3), types.NewFloat(3)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddTable("FACTS", "SHARDS", "ID"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.FullLoad("FACTS"); err != nil {
		t.Fatal(err)
	}
	if err := r.EnableReplication("FACTS"); err != nil {
		t.Fatal(err)
	}

	// A key-changing update must migrate the shadow row to its new owner.
	upd := mustParse(t, "UPDATE facts SET id = 100, v = 10 WHERE id = 2").(*sqlparse.UpdateStmt)
	if _, err := engine.Update(nil, "FACTS", upd.Assignments, upd.Where); err != nil {
		t.Fatal(err)
	}
	del := mustParse(t, "DELETE FROM facts WHERE id = 3").(*sqlparse.DeleteStmt)
	if _, err := engine.Delete(nil, "FACTS", del.Where); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ApplyPending("FACTS"); err != nil {
		t.Fatal(err)
	}
	if got, _ := router.RowCount(0, "FACTS"); got != 2 {
		t.Fatalf("fleet rows = %d, want 2", got)
	}
	st, _ := engine.Storage("FACTS")
	if err := st.Scan(func(id rowstore.RowID, row types.Row) error {
		holders := 0
		for _, m := range router.Members() {
			if m.HasReplicatedSource("FACTS", int64(id)) {
				holders++
			}
		}
		if holders != 1 {
			return fmt.Errorf("DB2 row %d on %d shards after update/delete", id, holders)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyPendingBatchIsAtomic sends one mixed CDC batch per round through
// ApplyPending — inserts, deletes, hash-key-moving updates and a truncate in
// the middle — while a reader counts the shadow table. The reader may only
// ever see the count before the first batch or the count every round ends
// with, and the final shadow contents, keyed by source id, must match DB2 and
// be the same on a single accelerator, a 3-shard hash group and a 3-shard
// round-robin group.
func TestApplyPendingBatchIsAtomic(t *testing.T) {
	const seeded, perRound = 203, 25
	type fixture struct {
		engine  *db2.Engine
		backend accel.Backend
		members []*accel.Accelerator
		r       *Replicator
		name    string
		distKey string
	}
	fixtures := map[string]func() fixture{
		"IDAA1": func() fixture {
			engine, a, r := setup(t)
			return fixture{engine, a, []*accel.Accelerator{a}, r, "IDAA1", "ID"}
		},
		"hash": func() fixture {
			engine, router, r := setupSharded(t, 3)
			return fixture{engine, router, router.Members(), r, "SHARDS", "ID"}
		},
		"round-robin": func() fixture {
			engine, router, r := setupSharded(t, 3)
			return fixture{engine, router, router.Members(), r, "SHARDS", ""}
		},
	}
	insert := func(engine *db2.Engine, from, n int) {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(from + i)), types.NewFloat(float64(i))}
		}
		if _, err := engine.Insert(nil, "FACTS", rows); err != nil {
			t.Fatal(err)
		}
	}
	contents := map[string]map[int64]string{}
	for name, build := range fixtures {
		f := build()
		// setup seeds IDs 1..3; give the sharded fixtures the same rows.
		if f.name == "SHARDS" {
			insert(f.engine, 1, 3)
		}
		insert(f.engine, 10, seeded-3)
		if err := f.r.AddTable("FACTS", f.name, f.distKey); err != nil {
			t.Fatal(err)
		}
		if _, err := f.r.FullLoad("FACTS"); err != nil {
			t.Fatal(err)
		}
		if err := f.r.EnableReplication("FACTS"); err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wrong []int
		var reads int
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := f.backend.RowCount(0, "FACTS")
				reads++
				if err != nil || (n != seeded && n != perRound) {
					wrong = append(wrong, n)
				}
			}
		}()
		for round := 0; round < 8; round++ {
			base := 1000 * (round + 1)
			insert(f.engine, base, 20)
			dml(t, f.engine, fmt.Sprintf("DELETE FROM facts WHERE id < %d", base+5))
			dml(t, f.engine, fmt.Sprintf("UPDATE facts SET id = id + 500 WHERE id >= %d AND id < %d", base+5, base+8))
			if _, err := f.engine.Truncate(nil, "FACTS"); err != nil {
				t.Fatal(err)
			}
			insert(f.engine, base+100, 30)
			dml(t, f.engine, fmt.Sprintf("DELETE FROM facts WHERE id >= %d", base+125))
			dml(t, f.engine, fmt.Sprintf("UPDATE facts SET id = id + 500, v = 7 WHERE id >= %d AND id < %d", base+100, base+103))
			if _, err := f.r.ApplyPending("FACTS"); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		reader.Wait()
		if len(wrong) > 0 {
			t.Fatalf("%s: %d of %d reads saw a partly applied batch, e.g. %v", name, len(wrong), reads, wrong[:min(len(wrong), 8)])
		}

		got := map[int64]string{}
		for _, m := range f.members {
			tab, err := m.Table("FACTS")
			if err != nil {
				t.Fatal(err)
			}
			created, deleted, srcIDs := tab.VersionMeta()
			snap := m.Registry.Snapshot(0)
			for i := range created {
				if !snap.Visible(created[i], deleted[i]) {
					continue
				}
				if _, dup := got[srcIDs[i]]; dup {
					t.Fatalf("%s: source id %d mirrored twice", name, srcIDs[i])
				}
				got[srcIDs[i]] = fmt.Sprint(tab.ReadRow(i))
			}
		}
		want := map[int64]string{}
		st, _ := f.engine.Storage("FACTS")
		_ = st.Scan(func(id rowstore.RowID, row types.Row) error {
			want[int64(id)] = fmt.Sprint(row)
			return nil
		})
		if len(want) != perRound || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shadow contents %v, DB2 holds %v", name, got, want)
		}
		contents[name] = got
	}
	if !reflect.DeepEqual(contents["IDAA1"], contents["hash"]) || !reflect.DeepEqual(contents["IDAA1"], contents["round-robin"]) {
		t.Fatalf("shadow contents differ between backends: %v", contents)
	}
}

// dml runs one UPDATE or DELETE statement directly on the DB2 engine.
func dml(t *testing.T, engine *db2.Engine, sql string) {
	t.Helper()
	var err error
	switch st := mustParse(t, sql).(type) {
	case *sqlparse.UpdateStmt:
		_, err = engine.Update(nil, "FACTS", st.Assignments, st.Where)
	case *sqlparse.DeleteStmt:
		_, err = engine.Delete(nil, "FACTS", st.Where)
	default:
		err = fmt.Errorf("unsupported statement %T", st)
	}
	if err != nil {
		t.Fatal(err)
	}
}
