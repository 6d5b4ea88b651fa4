package vexec

// intTable is an open-addressing hash table from int64 keys to non-zero
// values (a *group, or a bucket id + 1), with linear probing over a
// power-of-two slot array kept at most half full. It serves the one-column
// fixed-width group keys and the single int join keys, where it replaces a
// string-keyed map lookup per row with a multiply, a shift and, almost
// always, one comparison.
type intTable[V comparable] struct {
	keys  []int64
	vals  []V // the zero V marks an empty slot
	shift uint
	n     int
}

func (t *intTable[V]) slot(k int64) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> t.shift
}

// get returns the value stored under k, or the zero V.
func (t *intTable[V]) get(k int64) V {
	var zero V
	if t.n == 0 {
		return zero
	}
	mask := uint64(len(t.keys) - 1)
	for i := t.slot(k); ; i = (i + 1) & mask {
		if t.vals[i] == zero || t.keys[i] == k {
			return t.vals[i]
		}
	}
}

// put stores v (non-zero) under k, which must not be present yet.
func (t *intTable[V]) put(k int64, v V) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	var zero V
	mask := uint64(len(t.keys) - 1)
	i := t.slot(k)
	for t.vals[i] != zero {
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i] = k, v
	t.n++
}

func (t *intTable[V]) grow() {
	keys, vals := t.keys, t.vals
	size := max(2*len(keys), 64)
	t.keys, t.vals, t.n = make([]int64, size), make([]V, size), 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	var zero V
	for i, v := range vals {
		if v != zero {
			t.put(keys[i], v)
		}
	}
}
