package topology

import "math/bits"

// PairTable maps cluster pairs to values of V, holding entries only for
// the pairs that were touched: a wide federation talks on a few pairs
// per cluster, and a width-squared table is megabytes that stay zero.
// Callers choose the pair index (src*nClusters+dst for a directed pair).
// It is open addressing with linear probing over a power-of-two table
// kept at most half full, so a lookup is one multiply and a short scan
// of the key array. The zero value is an empty table and allocates
// nothing until the first Get.
type PairTable[V any] struct {
	keys  []uint32 // pair index + 1; 0 marks a free slot
	vals  []V
	used  int
	shift uint32 // 32 - log2(len(keys))
}

// pairHash is the multiplicative (Fibonacci) hash constant: a pair's
// slot is the top bits of key*pairHash.
const pairHash = 0x9E3779B1

// Get returns the value of pair, adding a zero value when absent. The
// pointer is valid until the next Get.
func (t *PairTable[V]) Get(pair int) *V {
	if v := t.Find(pair); v != nil {
		return v
	}
	if 2*(t.used+1) > len(t.keys) {
		t.grow()
	}
	t.used++
	return &t.vals[t.insert(uint32(pair)+1)]
}

// Find returns the value of pair, or nil when the pair was never added.
// The pointer is valid until the next Get.
func (t *PairTable[V]) Find(pair int) *V {
	if len(t.keys) == 0 {
		return nil
	}
	key := uint32(pair) + 1
	mask := uint32(len(t.keys) - 1)
	for i := (key * pairHash) >> t.shift; t.keys[i] != 0; i = (i + 1) & mask {
		if t.keys[i] == key {
			return &t.vals[i]
		}
	}
	return nil
}

// Len returns the number of pairs in the table.
func (t *PairTable[V]) Len() int { return t.used }

// Each calls fn for every pair in the table, in no particular order.
// fn must not call Get.
func (t *PairTable[V]) Each(fn func(pair int, v *V)) {
	for i, key := range t.keys {
		if key != 0 {
			fn(int(key-1), &t.vals[i])
		}
	}
}

// insert claims the first free slot of key's probe sequence and returns
// it; the table must have one.
func (t *PairTable[V]) insert(key uint32) uint32 {
	mask := uint32(len(t.keys) - 1)
	i := (key * pairHash) >> t.shift
	for t.keys[i] != 0 {
		i = (i + 1) & mask
	}
	t.keys[i] = key
	return i
}

// grow doubles the table (to 16 slots at first) and reinserts every pair.
func (t *PairTable[V]) grow() {
	keys, vals := t.keys, t.vals
	size := max(16, 2*len(keys))
	t.keys, t.vals = make([]uint32, size), make([]V, size)
	t.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	for j, key := range keys {
		if key != 0 {
			t.vals[t.insert(key)] = vals[j]
		}
	}
}
