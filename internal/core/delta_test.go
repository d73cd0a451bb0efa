package core

import (
	"math/rand"
	"slices"
	"testing"
)

// Unit coverage for the delta wire primitives: the dirty set,
// the pair arena's isolation guarantees, and — most importantly — that
// random delta apply/merge sequences reconstruct exactly what the dense
// DDV operations compute (the oracle the whole encoding leans on).

func TestDirtySetBasics(t *testing.T) {
	var s DirtySet
	s.Init(8)
	s.Add(3)
	s.Add(5)
	s.Add(3) // duplicate
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	got := append([]int32(nil), s.Indices()...)
	if got[0] != 3 || got[1] != 5 {
		t.Fatalf("Indices = %v, want [3 5]", got)
	}
	s.Refresh(func(i int) bool { return i == 5 })
	if s.Len() != 1 || s.Indices()[0] != 5 {
		t.Fatalf("after Refresh: %v", s.Indices())
	}
	s.Add(3) // must be re-addable after Refresh dropped it
	if s.Len() != 2 {
		t.Fatalf("re-Add after Refresh failed: %v", s.Indices())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("Reset left %v", s.Indices())
	}
	s.Add(0)
	if s.Len() != 1 {
		t.Fatal("Add after Reset failed")
	}
}

func TestPairArenaCloneIsolation(t *testing.T) {
	var ar PairArena
	a := ar.Clone([]DDVPair{{Idx: 1, SN: 2}, {Idx: 3, SN: 4}})
	b := ar.Clone([]DDVPair{{Idx: 5, SN: 6}})
	// Appending to an earlier cut must never bleed into a later one
	// (full-capacity slicing).
	a = append(a, DDVPair{Idx: 9, SN: 9})
	if b[0].Idx != 5 || b[0].SN != 6 {
		t.Fatalf("arena cut corrupted by neighbour append: %v", b)
	}
	if ar.Clone(nil) != nil {
		t.Fatal("Clone(nil) must stay nil")
	}
	// Oversized requests get their own chunk.
	big := make([]DDVPair, 3*pairArenaChunk)
	c := ar.Clone(big)
	if len(c) != len(big) {
		t.Fatalf("oversized clone len %d", len(c))
	}
}

// TestDeltaMergeOracle drives random sparse merges against a dense
// oracle: a DDV updated through mergePairs must equal one updated
// through dense element-wise max, and the list maxMerge builds from the
// same pairs must hold exactly that vector's non-zero entries, once
// each, in the order they first rose.
func TestDeltaMergeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		w := 2 + rng.Intn(30)
		sparse := NewDDV(w)
		dense := NewDDV(w)
		var list []DDVPair
		var rose []int32
		for step := 0; step < 50; step++ {
			np := rng.Intn(4)
			pairs := make([]DDVPair, 0, np)
			other := NewDDV(w)
			for p := 0; p < np; p++ {
				i := int32(rng.Intn(w))
				v := SN(rng.Intn(20))
				pairs = append(pairs, DDVPair{Idx: i, SN: v})
				if v > other[i] {
					other[i] = v
				}
			}
			for _, pr := range pairs {
				if pr.SN > 0 && sparse[pr.Idx] == 0 && !slices.Contains(rose, pr.Idx) {
					rose = append(rose, pr.Idx)
				}
			}
			sparse.mergePairs(pairs)
			list = maxMerge(list, pairs)
			for i, v := range other {
				dense[i] = max(dense[i], v)
			}
		}
		if !sparse.Equal(dense) {
			t.Fatalf("trial %d: sparse %v != dense %v", trial, sparse, dense)
		}
		if len(list) != len(rose) {
			t.Fatalf("trial %d: maxMerge list %v, want indices %v", trial, list, rose)
		}
		for k, p := range list {
			if p.Idx != rose[k] || p.SN != dense[p.Idx] {
				t.Fatalf("trial %d: maxMerge list %v, want indices %v at %v", trial, list, rose, dense)
			}
		}
	}
}
