package colstore

import (
	"strings"
	"sync/atomic"

	"idaax/internal/types"
)

// DefaultDictThreshold is the cardinality ceiling for per-column string
// dictionaries: a string column keeps an int32-coded dictionary while its
// distinct non-NULL value count stays at or below the threshold, and spills
// back to raw strings the first time a new distinct value would exceed it.
// ZoneBlockSize is a natural ceiling — past it a "low-cardinality" column no
// longer prunes blocks or shrinks group-key tables meaningfully.
const DefaultDictThreshold = ZoneBlockSize

var dictThreshold atomic.Int64

func init() { dictThreshold.Store(DefaultDictThreshold) }

// SetDictThreshold sets the process-wide dictionary cardinality threshold and
// returns the previous value. A threshold <= 0 disables dictionary encoding
// for columns that receive any non-NULL string (differential tests use this to
// force the raw-string path). Lowering the threshold does not spill existing
// dictionaries retroactively; it applies to subsequent appends and restores.
func SetDictThreshold(n int) int {
	return int(dictThreshold.Swap(int64(n)))
}

// appendDict maintains the column's dictionary for the value appended at row
// idx. Caller has already appended to strs/nulls. NULL rows record the
// placeholder code 0 (nulls stays authoritative; readers must check it before
// trusting a code). A new distinct value past the threshold spills the
// dictionary: the auxiliary structures are dropped and the column serves raw
// strings from then on. Spilling only nils pointers — it never mutates the
// shared backing arrays, so snapshots taken before the spill stay valid.
func (c *Column) appendDict(idx int, s string, hasValue bool) {
	if c.dictOff || c.Kind != types.KindString {
		return
	}
	var code int32
	if hasValue {
		var ok bool
		code, ok = c.dictMap[s]
		if !ok {
			if int64(len(c.dict)) >= dictThreshold.Load() {
				c.spillDict()
				return
			}
			if c.dictMap == nil {
				c.dictMap = make(map[string]int32)
			}
			code = int32(len(c.dict))
			c.dict = append(c.dict, s)
			c.dictMap[s] = code
		}
	}
	c.codes = append(c.codes, code)
	c.updateZoneCode(idx, code, hasValue)
}

func (c *Column) spillDict() {
	c.dictOff = true
	c.dict = nil
	c.dictMap = nil
	c.codes = nil
	c.zoneMinCode = nil
	c.zoneMaxCode = nil
}

// updateZoneCode maintains the per-block code range (the dictionary analogue
// of the numeric zone map: equality predicates prune on code ranges).
func (c *Column) updateZoneCode(idx int, code int32, hasValue bool) {
	block := idx / ZoneBlockSize
	for len(c.zoneMinCode) <= block {
		c.zoneMinCode = append(c.zoneMinCode, int32(1<<30))
		c.zoneMaxCode = append(c.zoneMaxCode, -1)
	}
	if !hasValue {
		return
	}
	if code < c.zoneMinCode[block] {
		c.zoneMinCode[block] = code
	}
	if code > c.zoneMaxCode[block] {
		c.zoneMaxCode[block] = code
	}
}

// DictEncoded reports whether the column currently serves a dictionary.
func (c *Column) DictEncoded() bool {
	return c.Kind == types.KindString && !c.dictOff
}

// DictSize returns the number of distinct values in the dictionary (0 when
// the column is not dictionary-encoded).
func (c *Column) DictSize() int {
	if !c.DictEncoded() {
		return 0
	}
	return len(c.dict)
}

// DictCode returns the code for s, or -1 when s is not in the dictionary (or
// the column is not dictionary-encoded).
func (c *Column) DictCode(s string) int32 {
	if !c.DictEncoded() {
		return -1
	}
	if code, ok := c.dictMap[s]; ok {
		return code
	}
	return -1
}

// BlockCodeRange returns the dictionary-code range of a block. ok is false
// when the block holds no non-NULL value (no code can match) or the column is
// not dictionary-encoded.
func (c *Column) BlockCodeRange(block int) (min, max int32, ok bool) {
	if !c.DictEncoded() || block < 0 || block >= len(c.zoneMinCode) {
		return 0, 0, false
	}
	if c.zoneMaxCode[block] < 0 {
		return 0, 0, false
	}
	return c.zoneMinCode[block], c.zoneMaxCode[block], true
}

// resolveDictPredicates rewrites string-literal predicates over dictionary-
// encoded columns into code comparisons: a per-dictionary match table (one
// strings.Compare per distinct value instead of one per row) plus the literal's
// own code for the equality fast path. Called under the table lock by scans;
// the dictionary cannot change for the duration (appends and spills need the
// write lock), so the tables stay valid for the whole scan.
func resolveDictPredicates(cols []*Column, preds []SimplePredicate) []SimplePredicate {
	resolved := preds
	copied := false
	for i, p := range preds {
		col := cols[p.ColIdx]
		if !col.DictEncoded() || p.Value.Kind != types.KindString {
			continue
		}
		if !copied {
			resolved = append([]SimplePredicate(nil), preds...)
			copied = true
		}
		match := make([]bool, len(col.dict))
		for code, s := range col.dict {
			if cmpSatisfies(strings.Compare(s, p.Value.Str), p.Op) {
				match[code] = true
			}
		}
		resolved[i].dictMatch = match
		resolved[i].dictEq = col.DictCode(p.Value.Str)
		resolved[i].dictResolved = true
	}
	return resolved
}

// selectDictCodes filters a dictionary-coded payload against a resolved
// predicate: equality compares one int32 per row, every other operator reads
// the per-dictionary match table. NULL never matches (checked before the code
// is trusted — NULL rows carry the placeholder code 0).
func (p SimplePredicate) selectDictCodes(codes []int32, nulls []bool, sel []int) []int {
	out := sel[:0]
	if p.Op == CmpEq {
		eq := p.dictEq
		if eq < 0 {
			return out
		}
		for _, i := range sel {
			if !nulls[i] && codes[i] == eq {
				out = append(out, i)
			}
		}
		return out
	}
	m := p.dictMatch
	for _, i := range sel {
		if !nulls[i] && m[codes[i]] {
			out = append(out, i)
		}
	}
	return out
}

// ColumnEncoding describes one column's physical encoding for EXPLAIN and the
// ops plane.
type ColumnEncoding struct {
	Name string
	Kind string
	// Dict reports whether the column is dictionary-encoded; DictSize is the
	// distinct-value count. Spilled is true for string columns that exceeded
	// the cardinality threshold and fell back to raw strings.
	Dict     bool
	DictSize int
	Spilled  bool
}

// String renders the encoding the way EXPLAIN prints it.
func (e ColumnEncoding) String() string {
	if e.Dict {
		return "dict"
	}
	if e.Spilled {
		return "raw(spilled)"
	}
	return "plain"
}

// ColumnEncodings reports each column's current physical encoding.
func (t *Table) ColumnEncodings() []ColumnEncoding {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ColumnEncoding, len(t.cols))
	for i, c := range t.cols {
		out[i] = ColumnEncoding{
			Name:     t.schema.Columns[i].Name,
			Kind:     c.Kind.String(),
			Dict:     c.DictEncoded(),
			DictSize: c.DictSize(),
			Spilled:  c.Kind == types.KindString && c.dictOff,
		}
	}
	return out
}
