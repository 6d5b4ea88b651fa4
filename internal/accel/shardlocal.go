package accel

import (
	"idaax/internal/obs"
	"idaax/internal/relalg"
	"idaax/internal/types"
)

// ShardPartition is one shard's slice of a table, handed to the function a
// caller passes to MultiShard.CallShardLocal. It is the analytics seam of the
// backend surface: a procedure reads the shard's committed-visible rows,
// computes a partial result (sufficient statistics, a locally trained model,
// scored rows) and either returns the partial for merging at the coordinator
// or writes derived rows back to the same shard through WriteLocal — base
// rows are never merged into one coordinator-side relation. Multi-round
// trainers (logistic regression's gradient loop, linear regression's metric
// pass) return the extracted per-shard feature matrix as their "partial" and
// iterate over the retained partitions: in this in-process reproduction that
// is the moral equivalent of shard-resident training state, and it guarantees
// every round sees the same snapshot of the rows — a per-round rescan could
// not. A networked deployment of this seam would pin that state on the shard
// across rounds instead of returning it (see ROADMAP follow-ups).
type ShardPartition struct {
	// Member is the name of the accelerator holding this partition.
	Member string
	// Ordinal is the shard ordinal.
	Ordinal int
	// Shards is the number of partitions participating in the call.
	Shards int
	// Rows are the table rows visible on this shard under the call's fenced
	// snapshot set.
	Rows *relalg.Relation
	// WriteLocal appends rows to a previously created output table on this
	// same shard, under an internal, immediately committed transaction and
	// without re-partitioning — the write stays where the compute ran. The
	// output table must exist on every member (create it through the same
	// backend first).
	WriteLocal func(table string, rows []types.Row) (int, error)
}

// ShardLocalFunc is the per-shard body of a CallShardLocal invocation. The
// returned partial (nil allowed) is handed to merge in shard order.
type ShardLocalFunc func(p *ShardPartition) (any, error)

// MultiShard is a Backend that partitions tables over more than one member
// (shard.Router). Analytics procedures use it to scatter a CALL shard-local
// instead of reading the table through the ordinary query path.
type MultiShard interface {
	Backend
	// ShardCount is the number of member accelerators.
	ShardCount() int
	// CallShardLocal is the analytics seam: it runs fn once per shard holding
	// rows of table — concurrently, under one fenced snapshot set and the
	// table's migration fence, so every visible row is presented to exactly
	// one invocation even while a rebalance is pending — with each shard's
	// scan and partial computation nested under sp (nil allowed). merge runs
	// at the coordinator once per shard, in shard-ordinal order, as soon as
	// that ordinal's partial (and every lower ordinal's) has completed. merge
	// is never invoked concurrently, and a partial is released right after its
	// merge returns, so the coordinator buffers only partials that finished
	// out of order. Ordinal order keeps floating-point merges deterministic
	// across runs. A merge error aborts the call (remaining shards still
	// drain). proc labels the call for the per-procedure counters ("" is
	// allowed).
	CallShardLocal(txnID int64, table, proc string, sp *obs.Span, fn ShardLocalFunc, merge func(ordinal int, partial any) error) error
}
