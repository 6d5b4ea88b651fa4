package catalog

import (
	"errors"
	"testing"

	"idaax/internal/types"
)

func schema() types.Schema {
	return types.NewSchema(types.Column{Name: "ID", Kind: types.KindInt})
}

func TestTableLifecycle(t *testing.T) {
	c := New()
	if err := c.CreateTable(&Table{Name: "t1", Schema: schema(), Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(&Table{Name: "T1", Schema: schema()}); err == nil {
		t.Fatal("duplicate (case-insensitive) create should fail")
	}
	var exists *ErrExists
	if err := c.CreateTable(&Table{Name: "t1", Schema: schema()}); !errors.As(err, &exists) {
		t.Fatalf("expected ErrExists, got %v", err)
	}
	meta, err := c.Table("t1")
	if err != nil || meta.Name != "T1" || meta.Kind != KindRegular {
		t.Fatalf("lookup: %+v, %v", meta, err)
	}
	// Returned entries are copies.
	meta.Kind = KindAcceleratorOnly
	again, _ := c.Table("T1")
	if again.Kind != KindRegular {
		t.Fatal("catalog entry mutated through returned copy")
	}
	if err := c.SetKind("T1", KindAccelerated, "IDAA1"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReplication("T1", true); err != nil {
		t.Fatal(err)
	}
	updated, _ := c.Table("t1")
	if updated.Kind != KindAccelerated || updated.Accelerator != "IDAA1" || !updated.ReplicationEnabled {
		t.Fatalf("update lost: %+v", updated)
	}
	if len(c.Tables()) != 1 {
		t.Fatal("tables list")
	}
	if err := c.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	var notFound *ErrNotFound
	if err := c.DropTable("t1"); !errors.As(err, &notFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
}

func TestAccelerators(t *testing.T) {
	c := New()
	if c.HasAccelerator("IDAA1") {
		t.Fatal("unexpected accelerator")
	}
	c.AddAccelerator("idaa1")
	c.AddAccelerator("IDAA2")
	if !c.HasAccelerator("IDAA1") {
		t.Fatal("accelerator not registered")
	}
	if got := c.Accelerators(); len(got) != 2 || got[0] != "IDAA1" {
		t.Fatalf("accelerators: %v", got)
	}
}

func TestPrivileges(t *testing.T) {
	c := New()
	_ = c.CreateTable(&Table{Name: "data", Schema: schema(), Owner: "owner1"})

	if c.HasPrivilege("bob", "data", PrivSelect) {
		t.Fatal("bob should have no privilege yet")
	}
	// Admin and owner always pass.
	if !c.HasPrivilege(AdminUser, "data", PrivDelete) || !c.HasPrivilege("owner1", "data", PrivInsert) {
		t.Fatal("admin/owner implicit authority missing")
	}
	c.Grant("bob", "data", PrivSelect, PrivInsert)
	if !c.HasPrivilege("BOB", "DATA", "select") {
		t.Fatal("grant not case-insensitive")
	}
	if c.HasPrivilege("bob", "data", PrivDelete) {
		t.Fatal("ungranted privilege should fail")
	}
	c.Revoke("bob", "data", PrivSelect)
	if c.HasPrivilege("bob", "data", PrivSelect) {
		t.Fatal("revoke ineffective")
	}
	if !c.HasPrivilege("bob", "data", PrivInsert) {
		t.Fatal("revoke removed too much")
	}
	// ALL grant and PUBLIC.
	c.Grant("carol", "data", PrivAll)
	if !c.HasPrivilege("carol", "data", PrivUpdate) {
		t.Fatal("ALL grant should cover UPDATE")
	}
	c.Grant(PublicGrantee, "data", PrivSelect)
	if !c.HasPrivilege("mallory", "data", PrivSelect) {
		t.Fatal("PUBLIC grant should apply to everyone")
	}
	var denied *ErrNotAuthorized
	if err := c.CheckPrivilege("mallory", "data", PrivDelete); !errors.As(err, &denied) {
		t.Fatalf("expected ErrNotAuthorized, got %v", err)
	}
	// Revoking ALL wipes the object grants.
	c.Revoke("carol", "data", PrivAll)
	if c.HasPrivilege("carol", "data", PrivUpdate) {
		t.Fatal("revoke ALL ineffective")
	}
	// Dropping a table removes its grants.
	c.Grant("dave", "data", PrivSelect)
	_ = c.DropTable("data")
	_ = c.CreateTable(&Table{Name: "data", Schema: schema(), Owner: "other"})
	if c.HasPrivilege("dave", "data", PrivSelect) {
		t.Fatal("grants should not survive drop/recreate")
	}
}

func TestGrantsForAndProcedureObject(t *testing.T) {
	c := New()
	c.Grant("eve", ProcedureObject("idax.kmeans"), PrivExecute)
	got := c.GrantsFor("eve")
	if len(got) != 1 || got[0] != "PROCEDURE IDAX.KMEANS:EXECUTE" {
		t.Fatalf("grants for eve: %v", got)
	}
	if !c.HasPrivilege("eve", ProcedureObject("IDAX.KMEANS"), PrivExecute) {
		t.Fatal("procedure grant lookup failed")
	}
}

func TestControlAndReplace(t *testing.T) {
	c := New()
	_ = c.CreateTable(&Table{Name: "aot", Schema: schema(), Owner: "alice", Kind: KindAcceleratorOnly, Accelerator: "IDAA1"})
	_ = c.CreateTable(&Table{Name: "reg", Schema: schema(), Owner: "alice"})
	// CONTROL: the owner and SYSADM, and no grant confers it, not even ALL.
	c.Grant("bob", "aot", PrivAll, PrivControl)
	for user, want := range map[string]bool{"alice": true, AdminUser: true, "bob": false, "carol": false} {
		if got := c.HasPrivilege(user, "aot", PrivControl); got != want {
			t.Fatalf("CONTROL for %s: %v, want %v", user, got, want)
		}
	}
	if !c.HasPrivilege("bob", "aot", PrivDelete) {
		t.Fatal("ALL should still cover DELETE")
	}
	// Administrative operations are SYSADM's alone: no grant and no table
	// reaches them. A table may not take a procedure object's name, so no
	// owner gains EXECUTE or the ALL grant on a procedure that way; a table
	// named like an accelerator is an ordinary table.
	for _, name := range []string{ProcedureObject("sysproc.accel_rebalance"), "PROCEDURE SYSPROC.ACCEL_GRANT_PROCEDURE", "procedure idax.kmeans"} {
		if err := c.CreateTable(&Table{Name: name, Schema: schema(), Owner: "bob"}); err == nil {
			t.Fatalf("CreateTable(%q) succeeded, want the procedure namespace reserved", name)
		}
	}
	if err := c.CreateTable(&Table{Name: "ACCELERATOR SHARDS", Schema: schema(), Owner: "bob"}); err != nil {
		t.Fatal(err)
	}
	for _, object := range []string{ProcedureObject("sysproc.accel_rebalance"), "ACCELERATOR SHARDS", "SHARDS"} {
		c.Grant("bob", object, PrivAll)
		var denied *ErrNotAuthorized
		if err := CheckAdmin("bob", object); !errors.As(err, &denied) || denied.Privilege != PrivControl {
			t.Fatalf("CheckAdmin(bob, %s) = %v, want lacks CONTROL", object, err)
		}
		if err := CheckAdmin("sysadm", object); err != nil {
			t.Fatalf("CheckAdmin(SYSADM, %s) = %v", object, err)
		}
	}
	if c.HasPrivilege("bob", ProcedureObject("idax.kmeans"), PrivExecute) {
		t.Fatal("bob must not hold EXECUTE on IDAX.KMEANS")
	}
	// Replace: absent, or an AOT the caller controls.
	var denied *ErrNotAuthorized
	for _, tc := range []struct {
		user, table string
		ok          bool
	}{
		{"bob", "absent", true},
		{"alice", "aot", true},
		{AdminUser, "aot", true},
		{"bob", "aot", false},
		{"alice", "reg", false},
		{AdminUser, "reg", false},
	} {
		err := c.CheckReplace(tc.user, tc.table)
		if (err == nil) != tc.ok {
			t.Fatalf("CheckReplace(%s, %s) = %v, want ok=%v", tc.user, tc.table, err, tc.ok)
		}
		if tc.user == "bob" && !tc.ok && !errors.As(err, &denied) {
			t.Fatalf("CheckReplace(bob, aot) = %v, want ErrNotAuthorized", err)
		}
	}
}
