// Package shard turns a fleet of accelerators into one logical backend: a
// Partitioner decides which shard owns a row, a Router implements the
// accel.Backend surface by fanning DDL/DML out to the shard set, and a
// scatter-gather executor runs SELECT statements across all shards in
// parallel, merging results at the coordinator — including two-phase partial
// aggregation and shard pruning when an equality predicate covers the
// distribution key. The fleet is elastic: AddMember/RemoveMember change the
// member set at runtime and a background rebalancer (rebalance.go) migrates
// affected rows in bounded batches while queries keep running.
package shard

import (
	"sync/atomic"

	"idaax/internal/types"
)

// Partitioner maps a row to the ordinal of the shard that owns it. A
// partitioner is built for one owner set; when the fleet grows or shrinks the
// router installs a fresh partitioner and the superseded one is kept only to
// decide which keys are still safely prunable mid-migration.
type Partitioner interface {
	// Kind names the placement strategy ("HASH" or "ROUND-ROBIN").
	Kind() string
	// Place returns the owning shard ordinal (an index into the router's
	// member list).
	Place(row types.Row) int
	// PlaceKey returns the owning shard for a distribution-key value, or
	// ok=false when the strategy has no key (round robin), in which case no
	// shard pruning is possible.
	PlaceKey(v types.Value) (int, bool)
	// PlaceKeyOwner is PlaceKey plus the owning member's name. Names are the
	// stable identity across membership changes — superseded maps keep their
	// pre-change ordinals, so the double-routing pruning check compares
	// owners by name, never by ordinal.
	PlaceKeyOwner(v types.Value) (ord int, owner string, ok bool)
	// OwnerNames returns the member names this partitioner places onto.
	OwnerNames() []string
	// Ordinals returns the router member ordinals backing OwnerNames, aligned
	// with it. During a drain the set excludes leaving members even though
	// they still occupy a router ordinal.
	Ordinals() []int
}

// hrwOwner is one candidate of the rendezvous election: a member name, its
// precomputed hash and the router ordinal it maps to.
type hrwOwner struct {
	name string
	hash uint64
	ord  int
}

// HashPartitioner places rows by rendezvous (highest-random-weight) hashing
// of the distribution-key column against the member names — the strategy
// behind CREATE TABLE ... DISTRIBUTE BY HASH(col). Equal keys always land on
// the same shard, which is what enables shard pruning and co-located
// replication applies; hashing against names (not a modulus of the member
// count) means growing the fleet by one member moves only the ~1/N of keys
// the new member wins, and removing a member moves only that member's keys.
type HashPartitioner struct {
	keyIdx  int
	keyKind types.Kind
	owners  []hrwOwner
}

// NewHashPartitioner creates a hash partitioner over the key column at keyIdx
// for the named members; member i is placed at shard ordinal i.
func NewHashPartitioner(keyIdx int, keyKind types.Kind, members []string) *HashPartitioner {
	ords := make([]int, len(members))
	for i := range ords {
		ords[i] = i
	}
	return NewHashPartitionerOrdinals(keyIdx, keyKind, members, ords)
}

// NewHashPartitionerOrdinals creates a hash partitioner whose owner names map
// to explicit router ordinals (ords aligns with members). The router uses it
// while a member is draining: the leaving member still occupies an ordinal but
// is no longer an owner.
func NewHashPartitionerOrdinals(keyIdx int, keyKind types.Kind, members []string, ords []int) *HashPartitioner {
	owners := make([]hrwOwner, len(members))
	for i, name := range members {
		owners[i] = hrwOwner{name: name, hash: fnv64(name), ord: ords[i]}
	}
	return &HashPartitioner{keyIdx: keyIdx, keyKind: keyKind, owners: owners}
}

// Kind implements Partitioner.
func (p *HashPartitioner) Kind() string { return "HASH" }

// OwnerNames implements Partitioner.
func (p *HashPartitioner) OwnerNames() []string {
	out := make([]string, len(p.owners))
	for i, o := range p.owners {
		out[i] = o.name
	}
	return out
}

// Ordinals implements Partitioner.
func (p *HashPartitioner) Ordinals() []int {
	out := make([]int, len(p.owners))
	for i, o := range p.owners {
		out[i] = o.ord
	}
	return out
}

// Place implements Partitioner.
func (p *HashPartitioner) Place(row types.Row) int {
	if p.keyIdx < 0 || p.keyIdx >= len(row) {
		return p.owners[0].ord
	}
	shard, _ := p.PlaceKey(row[p.keyIdx])
	return shard
}

// nullKeyHash stands in for the hash of a NULL distribution key, so NULL keys
// co-locate on one shard like any other key value (the single-node columnar
// engine treats NULL as a regular, groupable key too).
const nullKeyHash = 0x9e3779b97f4a7c15

// PlaceKey implements Partitioner. The value is coerced to the key column's
// kind first so that a literal in a predicate (e.g. an integer compared
// against a DOUBLE key) hashes identically to the stored value.
func (p *HashPartitioner) PlaceKey(v types.Value) (int, bool) {
	ord, _, ok := p.PlaceKeyOwner(v)
	return ord, ok
}

// PlaceKeyOwner implements Partitioner.
func (p *HashPartitioner) PlaceKeyOwner(v types.Value) (int, string, bool) {
	h := uint64(nullKeyHash)
	if !v.IsNull() {
		if cv, err := v.Cast(p.keyKind); err == nil {
			v = cv
		}
		h = v.Hash()
	}
	best := 0
	bestScore := mix64(h, p.owners[0].hash)
	for i := 1; i < len(p.owners); i++ {
		if score := mix64(h, p.owners[i].hash); score > bestScore {
			best, bestScore = i, score
		}
	}
	return p.owners[best].ord, p.owners[best].name, true
}

// mix64 decorrelates the key hash from a member-name hash (a murmur3-style
// finalizer), so each member draws an independent score per key and the
// highest score wins the rendezvous election.
func mix64(a, b uint64) uint64 {
	x := a ^ b
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fnv64 is FNV-1a over a member name.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// RoundRobinPartitioner spreads rows evenly regardless of content
// (DISTRIBUTE BY RANDOM). It offers no pruning, but perfectly balanced load.
type RoundRobinPartitioner struct {
	names []string
	ords  []int
	next  uint64
}

// NewRoundRobinPartitioner creates a round-robin partitioner over shards
// members with identity ordinals and positional owner names.
func NewRoundRobinPartitioner(shards int) *RoundRobinPartitioner {
	names := make([]string, shards)
	ords := make([]int, shards)
	for i := range ords {
		names[i] = ""
		ords[i] = i
	}
	return &RoundRobinPartitioner{names: names, ords: ords}
}

// NewRoundRobinPartitionerOrdinals creates a round-robin partitioner cycling
// over the given owner names/ordinals (ords aligns with members).
func NewRoundRobinPartitionerOrdinals(members []string, ords []int) *RoundRobinPartitioner {
	return &RoundRobinPartitioner{
		names: append([]string(nil), members...),
		ords:  append([]int(nil), ords...),
	}
}

// Kind implements Partitioner.
func (p *RoundRobinPartitioner) Kind() string { return "ROUND-ROBIN" }

// OwnerNames implements Partitioner.
func (p *RoundRobinPartitioner) OwnerNames() []string { return append([]string(nil), p.names...) }

// Ordinals implements Partitioner.
func (p *RoundRobinPartitioner) Ordinals() []int { return append([]int(nil), p.ords...) }

// Place implements Partitioner.
func (p *RoundRobinPartitioner) Place(types.Row) int {
	return p.ords[int((atomic.AddUint64(&p.next, 1)-1)%uint64(len(p.ords)))]
}

// PlaceKey implements Partitioner; round robin has no distribution key.
func (p *RoundRobinPartitioner) PlaceKey(types.Value) (int, bool) { return 0, false }

// PlaceKeyOwner implements Partitioner; round robin has no distribution key.
func (p *RoundRobinPartitioner) PlaceKeyOwner(types.Value) (int, string, bool) { return 0, "", false }

// placeOf returns the member ordinal part places row on, clamped into the
// current member list.
func placeOf(part Partitioner, members int, row types.Row) int {
	if s := part.Place(row); s >= 0 && s < members {
		return s
	}
	return 0
}

// placeAndApply splits items among the members by the owner part places each
// item's row on, then applies every non-empty share in member order and sums
// the counts, stopping at the first error.
func placeAndApply[T any](part Partitioner, members int, items []T, row func(T) types.Row, apply func(member int, share []T) (int, error)) (int, error) {
	shares := make([][]T, members)
	for _, it := range items {
		s := placeOf(part, members, row(it))
		shares[s] = append(shares[s], it)
	}
	total := 0
	for i, share := range shares {
		if len(share) == 0 {
			continue
		}
		n, err := apply(i, share)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
