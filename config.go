// Package idaax is a Go implementation of the system described in "Extending
// Database Accelerators for Data Transformations and Predictive Analytics"
// (EDBT 2016): a DB2-style host database with an attached analytics
// accelerator, extended with accelerator-only tables (AOTs), an in-database
// analytics procedure framework, and a loader that ingests external data
// directly into the accelerator.
//
// The package exposes a small facade over the full system:
//
//	sys := idaax.New(idaax.Config{})
//	defer sys.Close()
//	session := sys.AdminSession()
//	session.Exec("CREATE TABLE stage1 (k BIGINT, v DOUBLE) IN ACCELERATOR IDAA1")
//	session.Exec("INSERT INTO stage1 SELECT ... FROM accelerated_table ...")
//	session.Query("SELECT ... FROM stage1 ...")
//
// Everything below the facade lives in internal/ packages: the row-store DB2
// engine, the columnar sliced accelerator, the federation/offload layer, the
// replication pipeline, the loader and the analytics library.
package idaax

import (
	"time"

	"idaax/internal/vfs"
)

// AcceleratorConfig describes one accelerator of a multi-accelerator fleet.
type AcceleratorConfig struct {
	// Name is the accelerator's pairing name.
	Name string
	// Slices sets the accelerator's scan parallelism (default: number of CPUs).
	Slices int
}

// Config configures a System.
type Config struct {
	// AcceleratorName names the default accelerator (default "IDAA1").
	// Ignored when Accelerators is set.
	AcceleratorName string
	// AcceleratorSlices sets the accelerator's scan/aggregation parallelism
	// (default: number of CPUs).
	AcceleratorSlices int
	// Accelerators, when non-empty, pairs a fleet of accelerators instead of
	// the single default one. The first entry becomes the default accelerator,
	// and with two or more entries a sharded virtual accelerator named
	// ShardGroupName spans the whole fleet: tables created with
	//
	//	CREATE TABLE t (...) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(col)
	//
	// are partitioned across every member, queries against them scatter-gather
	// with two-phase aggregation, and replication fans changes out to the
	// owning shard.
	Accelerators []AcceleratorConfig
	// ShardGroupName names the sharded virtual accelerator (default "SHARDS").
	ShardGroupName string
	// LockTimeout bounds DB2 lock waits (default 2s).
	LockTimeout time.Duration
	// RegisterAnalytics installs the IDAX.* analytics procedures (default true
	// unless DisableAnalytics is set).
	DisableAnalytics bool
	// AnalyticsPublic grants EXECUTE on the analytics procedures to PUBLIC.
	// When false, only SYSADM and explicit grantees may call them.
	AnalyticsPublic bool
	// QueryHistorySize sets how many recent statements the query history ring
	// retains (default 256).
	QueryHistorySize int
	// SlowQueryThreshold is the latency at or above which a statement's full
	// execution trace is captured into the slow-query log (default 100ms; a
	// negative value disables slow-query capture). Tune at runtime with
	// System.SetSlowQueryThreshold.
	SlowQueryThreshold time.Duration
	// EventLogSize sets how many events the structured journal retains
	// (default 1024; the oldest are overwritten).
	EventLogSize int
	// WatchdogInterval is the health watchdog's rule-evaluation period
	// (default 1s). The watchdog starts with ServeOps or
	// StartHealthWatchdog, and stops with Close.
	WatchdogInterval time.Duration
	// CDCLagThreshold is the replication apply lag at which the watchdog
	// degrades the replication component and journals a cdc_lag_high event
	// (default 5s).
	CDCLagThreshold time.Duration

	// DataDir, when non-empty, makes the system durable: DML and replication
	// batches are journaled to a write-ahead log under this directory,
	// checkpoints write per-column segment files, and OpenDurable (or New)
	// recovers the exact committed state after a crash or restart. Empty
	// means purely in-memory (the default, and the historical behavior).
	DataDir string
	// FsyncPolicy controls when the WAL reaches stable storage: "always"
	// (default; a commit returns only after fsync, group-shared across
	// concurrent committers), "grouped" (background fsync every
	// GroupCommitInterval; loss bounded to that window) or "never" (fsync
	// only at rotate/checkpoint/close; fastest, crash loses the OS buffer).
	FsyncPolicy string
	// GroupCommitInterval is the background fsync period for the "grouped"
	// policy (default 2ms).
	GroupCommitInterval time.Duration
	// CheckpointWALBytes triggers an automatic checkpoint when the WAL grows
	// past this many bytes since the last one (default 64 MiB; a negative
	// value disables the trigger — checkpoints then happen only via
	// System.Checkpoint and Close).
	CheckpointWALBytes int64
	// RecoveryParallelism bounds how many tables recovery loads concurrently
	// from the checkpoint (default: number of CPUs).
	RecoveryParallelism int

	// fs overrides the filesystem the durable store writes through; tests
	// inject a crash-simulating in-memory filesystem. When set, DataDir may
	// be empty.
	fs vfs.FS
}

func (c Config) withDefaults() Config {
	if len(c.Accelerators) > 0 {
		c.AcceleratorName = c.Accelerators[0].Name
	}
	if c.AcceleratorName == "" {
		c.AcceleratorName = "IDAA1"
	}
	if c.ShardGroupName == "" {
		c.ShardGroupName = "SHARDS"
	}
	return c
}
