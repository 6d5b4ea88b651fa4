// Package catalog implements the DB2-side system catalog. It owns table
// metadata, the acceleration state of each table (not accelerated, accelerated
// copy, accelerator-only), the nickname proxies for accelerator-only tables,
// and all privileges. Keeping governance metadata here and only here mirrors
// the paper's design: "ensuring data governance aspects like privilege
// management on DB2".
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"idaax/internal/types"
)

// TableKind distinguishes the three storage states a table can be in.
type TableKind int

const (
	// KindRegular is an ordinary DB2 table with no accelerator copy.
	KindRegular TableKind = iota
	// KindAccelerated is a DB2 table with a replicated copy on an accelerator.
	KindAccelerated
	// KindAcceleratorOnly is an accelerator-only table (AOT): data lives only
	// in the accelerator, DB2 keeps this proxy entry (the "nickname").
	KindAcceleratorOnly
)

// String names the table kind for SHOW TABLES and diagnostics.
func (k TableKind) String() string {
	switch k {
	case KindRegular:
		return "REGULAR"
	case KindAccelerated:
		return "ACCELERATED"
	case KindAcceleratorOnly:
		return "ACCELERATOR-ONLY"
	default:
		return "UNKNOWN"
	}
}

// Table is one catalog entry.
type Table struct {
	Name        string
	Schema      types.Schema
	Kind        TableKind
	Accelerator string // accelerator name for accelerated tables and AOTs
	DistKey     string // distribution column on the accelerator ("" = round robin)
	Owner       string
	// ReplicationEnabled marks accelerated tables that receive incremental
	// updates (as opposed to full-reload only).
	ReplicationEnabled bool
}

// Clone returns a copy safe to hand out to callers.
func (t *Table) Clone() *Table {
	cp := *t
	cp.Schema = types.Schema{Columns: append([]types.Column(nil), t.Schema.Columns...)}
	return &cp
}

// Privilege names follow DB2: SELECT, INSERT, UPDATE, DELETE, EXECUTE, ALL
// and CONTROL. CONTROL on a table (drop, grant, revoke, remove from the
// accelerator, replace as a CALL's output) is held only by the owner and
// SYSADM: no grant confers it, not even ALL.
const (
	PrivSelect  = "SELECT"
	PrivInsert  = "INSERT"
	PrivUpdate  = "UPDATE"
	PrivDelete  = "DELETE"
	PrivExecute = "EXECUTE"
	PrivAll     = "ALL"
	PrivControl = "CONTROL"
)

// PublicGrantee is the pseudo-user every session matches.
const PublicGrantee = "PUBLIC"

// AdminUser has implicit authority on everything (SYSADM).
const AdminUser = "SYSADM"

// ErrNotFound is returned when a table is not in the catalog.
type ErrNotFound struct{ Table string }

func (e *ErrNotFound) Error() string { return fmt.Sprintf("catalog: table %s does not exist", e.Table) }

// ErrExists is returned when creating a table that already exists.
type ErrExists struct{ Table string }

func (e *ErrExists) Error() string { return fmt.Sprintf("catalog: table %s already exists", e.Table) }

// ErrNotAuthorized is returned by privilege checks.
type ErrNotAuthorized struct {
	User      string
	Privilege string
	Object    string
}

func (e *ErrNotAuthorized) Error() string {
	return fmt.Sprintf("catalog: user %s lacks %s privilege on %s", e.User, e.Privilege, e.Object)
}

// Catalog is the concurrent catalog store.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// grants[grantee][object][privilege] = true. Objects are table names or
	// "PROCEDURE <name>" for EXECUTE grants.
	grants map[string]map[string]map[string]bool
	// accelerators known to the system (paired via CALL ACCEL_ADD_ACCELERATOR
	// or configuration).
	accelerators map[string]bool
	// onChange is notified after every mutation, outside the lock (durability).
	onChange func()
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:       make(map[string]*Table),
		grants:       make(map[string]map[string]map[string]bool),
		accelerators: make(map[string]bool),
	}
}

// ---------------------------------------------------------------------------
// Accelerators
// ---------------------------------------------------------------------------

// AddAccelerator registers (pairs) an accelerator by name.
func (c *Catalog) AddAccelerator(name string) {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.accelerators[types.NormalizeName(name)] = true
}

// HasAccelerator reports whether the named accelerator is paired.
func (c *Catalog) HasAccelerator(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.accelerators[types.NormalizeName(name)]
}

// Accelerators returns the sorted list of paired accelerator names.
func (c *Catalog) Accelerators() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.accelerators))
	for name := range c.accelerators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

// CreateTable adds a table entry.
func (c *Catalog) CreateTable(t *Table) error {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	name := types.NormalizeName(t.Name)
	if strings.HasPrefix(name, ProcedureObject("")) {
		// A table so named would share its owner and its grants with the
		// procedure's EXECUTE object.
		return fmt.Errorf("catalog: table name %s is reserved for procedures", name)
	}
	if _, ok := c.tables[name]; ok {
		return &ErrExists{Table: name}
	}
	cp := t.Clone()
	cp.Name = name
	c.tables[name] = cp
	return nil
}

// DropTable removes a table entry and all grants on it.
func (c *Catalog) DropTable(name string) error {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	name = types.NormalizeName(name)
	if _, ok := c.tables[name]; !ok {
		return &ErrNotFound{Table: name}
	}
	delete(c.tables, name)
	for _, objects := range c.grants {
		delete(objects, name)
	}
	return nil
}

// Table returns a copy of the catalog entry for name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[types.NormalizeName(name)]
	if !ok {
		return nil, &ErrNotFound{Table: types.NormalizeName(name)}
	}
	return t.Clone(), nil
}

// HasTable reports whether the table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[types.NormalizeName(name)]
	return ok
}

// Tables returns all entries sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetKind updates a table's acceleration state (e.g. when ACCEL_ADD_TABLES
// turns a regular table into an accelerated one).
func (c *Catalog) SetKind(name string, kind TableKind, accelerator string) error {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[types.NormalizeName(name)]
	if !ok {
		return &ErrNotFound{Table: types.NormalizeName(name)}
	}
	t.Kind = kind
	t.Accelerator = types.NormalizeName(accelerator)
	return nil
}

// SetReplication toggles incremental replication for an accelerated table.
func (c *Catalog) SetReplication(name string, enabled bool) error {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[types.NormalizeName(name)]
	if !ok {
		return &ErrNotFound{Table: types.NormalizeName(name)}
	}
	t.ReplicationEnabled = enabled
	return nil
}

// ---------------------------------------------------------------------------
// Privileges (governance stays in DB2)
// ---------------------------------------------------------------------------

// Grant adds privileges on an object to a grantee.
func (c *Catalog) Grant(grantee, object string, privileges ...string) {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	grantee = types.NormalizeName(grantee)
	object = types.NormalizeName(object)
	if c.grants[grantee] == nil {
		c.grants[grantee] = make(map[string]map[string]bool)
	}
	if c.grants[grantee][object] == nil {
		c.grants[grantee][object] = make(map[string]bool)
	}
	for _, p := range privileges {
		c.grants[grantee][object][strings.ToUpper(p)] = true
	}
}

// Revoke removes privileges on an object from a grantee.
func (c *Catalog) Revoke(grantee, object string, privileges ...string) {
	defer c.note()
	c.mu.Lock()
	defer c.mu.Unlock()
	grantee = types.NormalizeName(grantee)
	object = types.NormalizeName(object)
	objs, ok := c.grants[grantee]
	if !ok {
		return
	}
	privs, ok := objs[object]
	if !ok {
		return
	}
	for _, p := range privileges {
		p = strings.ToUpper(p)
		if p == PrivAll {
			delete(objs, object)
			return
		}
		delete(privs, p)
	}
}

// HasPrivilege reports whether user holds the privilege on the object, either
// by being the admin or the owner, or (for any privilege but CONTROL)
// directly, via PUBLIC or via an ALL grant.
func (c *Catalog) HasPrivilege(user, object, privilege string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	user = types.NormalizeName(user)
	object = types.NormalizeName(object)
	privilege = strings.ToUpper(privilege)
	if user == AdminUser {
		return true
	}
	if t, ok := c.tables[object]; ok && types.NormalizeName(t.Owner) == user && user != "" {
		return true
	}
	for _, grantee := range []string{user, PublicGrantee} {
		privs := c.grants[grantee][object]
		if privilege != PrivControl && (privs[privilege] || privs[PrivAll]) {
			return true
		}
	}
	return false
}

// CheckPrivilege returns an ErrNotAuthorized error when the user lacks the
// privilege; it is the single enforcement point used before any delegation to
// the accelerator.
func (c *Catalog) CheckPrivilege(user, object, privilege string) error {
	if c.HasPrivilege(user, object, privilege) {
		return nil
	}
	return &ErrNotAuthorized{User: types.NormalizeName(user), Privilege: strings.ToUpper(privilege), Object: types.NormalizeName(object)}
}

// CheckAdmin returns an ErrNotAuthorized error on object unless user is
// SYSADM, the only user who may run administrative operations (fleet
// topology, procedure grants).
func CheckAdmin(user, object string) error {
	if types.NormalizeName(user) == AdminUser {
		return nil
	}
	return &ErrNotAuthorized{User: types.NormalizeName(user), Privilege: PrivControl, Object: types.NormalizeName(object)}
}

// CheckReplace is the rule for a table a CALL writes as its output: the
// caller may replace it when it is absent, or when it is an accelerator-only
// table on which the caller holds CONTROL (what DROP TABLE needs).
func (c *Catalog) CheckReplace(user, table string) error {
	t, err := c.Table(table)
	if err != nil {
		return nil
	}
	if err := c.CheckPrivilege(user, t.Name, PrivControl); err != nil {
		return err
	}
	if t.Kind != KindAcceleratorOnly {
		return fmt.Errorf("catalog: output table %s exists and is not accelerator-only", t.Name)
	}
	return nil
}

// GrantsFor lists the (object, privilege) pairs a grantee holds, sorted.
func (c *Catalog) GrantsFor(grantee string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for object, privs := range c.grants[types.NormalizeName(grantee)] {
		for p := range privs {
			out = append(out, object+":"+p)
		}
	}
	sort.Strings(out)
	return out
}

// ProcedureObject builds the catalog object name under which EXECUTE
// privileges on analytics procedures are recorded.
func ProcedureObject(procName string) string {
	return "PROCEDURE " + types.NormalizeName(procName)
}
