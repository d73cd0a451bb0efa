package topology

import (
	"math/rand"
	"testing"
)

// TestPairTableMatchesMap: under random pairs of a 1024-cluster
// federation, including every growth from empty to thousands of
// pairs, the table holds exactly what a map kept alongside holds, Find
// never adds a pair, Each visits each pair once, and the table stays
// at most half full.
func TestPairTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab PairTable[uint64]
	ref := make(map[int]uint64)
	const width = 1024
	for step := 0; step < 20000; step++ {
		pair := rng.Intn(width)*width + rng.Intn(width)
		if step%4 == 0 {
			// Revisit a known pair, so updates are exercised too.
			pair = (step * 7919) % width
		}
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			*tab.Get(pair) = v
			ref[pair] = v
		case 1:
			want, ok := ref[pair]
			if got := tab.Find(pair); ok != (got != nil) || ok && *got != want {
				t.Fatalf("step %d: Find(%d) = %v, map holds %d (present %v)", step, pair, got, want, ok)
			}
		case 2:
			if got, want := *tab.Get(pair), ref[pair]; got != want {
				t.Fatalf("step %d: Get(%d) = %d, map holds %d", step, pair, got, want)
			}
			ref[pair] += 0 // Get adds a zero value when absent
		}
		if tab.Len() != len(ref) || 2*tab.Len() > len(tab.keys) {
			t.Fatalf("step %d: %d pairs in %d slots, map holds %d", step, tab.Len(), len(tab.keys), len(ref))
		}
	}
	seen := make(map[int]bool)
	tab.Each(func(pair int, v *uint64) {
		if seen[pair] || *v != ref[pair] {
			t.Fatalf("Each: pair %d seen twice or holds %d, map %d", pair, *v, ref[pair])
		}
		seen[pair] = true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Each visited %d pairs, map holds %d", len(seen), len(ref))
	}
	if tab.Find(width*width) != nil {
		t.Fatal("Find added or invented a pair")
	}
}

// TestPairTableZeroAllocatesNothing: an empty table reads without
// allocating, so a federation pays for no pair it never used.
func TestPairTableZeroAllocatesNothing(t *testing.T) {
	var tab PairTable[Link]
	allocs := testing.AllocsPerRun(100, func() {
		if tab.Find(12345) != nil || tab.Len() != 0 {
			t.Fatal("empty table holds a pair")
		}
	})
	if allocs != 0 {
		t.Fatalf("Find on an empty table allocated %.0f times", allocs)
	}
}
