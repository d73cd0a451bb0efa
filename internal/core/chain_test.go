package core

import (
	"math/rand"
	"testing"
)

// TestChainAnchorSparseAndShared builds random chains, ships a copy the
// way a GC report or a recovery response does (the record list copied,
// anchor and pairs shared), and drops random prefixes from the
// original, with and without an arena. A third of the trials ship
// nothing and drop through DropBelowInto, alternating two buffers the
// way the oracle's shadow chains do. After every drop the anchor is in
// sparse form and is the vector of the oldest surviving record, and
// every shipped copy still materialises exactly the vectors it held
// when it was shipped.
func TestChainAnchorSparseAndShared(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		width := rng.Intn(40) + 1
		var ar *PairArena
		if trial%3 == 0 {
			ar = new(PairArena)
		}
		into := trial%3 == 2
		var bufs [2][]DDVPair
		in := 0
		vec := NewDDV(width)
		vec[rng.Intn(width)] = 1
		var c Chain
		c.Init(1, vec)
		dense := []DDV{vec.Clone()} // dense[i]: record i's vector
		type shipped struct {
			c    Chain
			want []DDV
		}
		var ships []shipped
		for sn := SN(2); sn < 30; sn++ {
			prev := vec.Clone()
			for k := rng.Intn(4); k > 0; k-- {
				vec[rng.Intn(width)] += SN(rng.Intn(3) + 1)
			}
			c.AppendVector(sn, vec, prev)
			dense = append(dense, vec.Clone())
			if !into && rng.Intn(3) == 0 {
				ships = append(ships, shipped{
					c:    Chain{Anchor: c.Anchor, Recs: append([]ChainRec(nil), c.Recs...)},
					want: append([]DDV(nil), dense...),
				})
			}
			if rng.Intn(4) == 0 {
				threshold := c.Recs[rng.Intn(c.Len())].SN
				var cut int
				if into {
					var buf []DDVPair
					if cut, buf = c.DropBelowInto(threshold, bufs[1-in]); cut > 0 {
						bufs[1-in], in = buf, 1-in
					}
				} else {
					cut = c.DropBelow(threshold, ar)
				}
				dense = dense[cut:]
			}
			if err := sparseForm(c.Anchor, width); err != nil {
				t.Fatalf("trial %d, CLC %d: %v", trial, sn, err)
			}
			got := NewDDV(width)
			for i := range dense {
				c.Vector(i, got)
				if !got.Equal(dense[i]) {
					t.Fatalf("trial %d: record %d materialises %v, want %v", trial, c.Recs[i].SN, got, dense[i])
				}
			}
			for i := 0; i < width; i++ {
				if got := c.Anchor.Get(i); got != dense[0][i] {
					t.Fatalf("trial %d: anchor entry %d is %d, want %d", trial, i, got, dense[0][i])
				}
			}
		}
		for k, s := range ships {
			got := NewDDV(width)
			for i := range s.want {
				s.c.Vector(i, got)
				if !got.Equal(s.want[i]) {
					t.Fatalf("trial %d: shipped copy %d record %d changed to %v, shipped as %v", trial, k, i, got, s.want[i])
				}
			}
		}
	}
}

// TestSparseDenseRefusesOtherWidth: writing a sparse vector into a
// dense one of another width panics, as DDV.CopyFrom does, instead of
// leaving a vector of the wrong width behind.
func TestSparseDenseRefusesOtherWidth(t *testing.T) {
	s := sparseOf(DDV{0, 3, 0}, nil)
	for _, n := range []int{2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a 3-wide sparse vector was written into %d entries", n)
				}
			}()
			s.Dense(NewDDV(n))
		}()
	}
	got := NewDDV(3)
	s.Dense(got)
	if !got.Equal(DDV{0, 3, 0}) {
		t.Fatalf("Dense wrote %v", got)
	}
}
