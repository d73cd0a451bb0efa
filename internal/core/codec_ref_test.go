package core

import (
	"math/rand"
	"testing"
)

// twoVectorCodec is the pipe codec the one-vector DeltaCodec replaced:
// a second dense vector, enc, holds the last vector shipped, and Encode
// diffs against it. It is the reference FuzzCodecMatchesTwoVector
// holds DeltaCodec against.
type twoVectorCodec struct {
	enc, dec DDV
	encGen   uint64
}

func (c *twoVectorCodec) Init(width int) {
	c.enc = NewDDV(width)
	c.dec = NewDDV(width)
}

func (c *twoVectorCodec) Encode(cur DDV, gen uint64) []DDVPair {
	if gen != 0 && gen == c.encGen {
		return nil
	}
	c.encGen = gen
	pairs := diffPairs(nil, cur, c.enc)
	if len(pairs) == 0 {
		return nil
	}
	c.enc.applyPairs(pairs)
	return pairs
}

func (c *twoVectorCodec) Decode(pairs []DDVPair) { c.dec.applyPairs(pairs) }

// maxCodecDepth is the deepest in-flight queue the fuzz keeps.
const maxCodecDepth = 8

// FuzzCodecMatchesTwoVector drives DeltaCodec and the two-vector
// reference through the same random interleaving of Encode runs and
// Decode runs, with 0 to maxCodecDepth deltas in flight,
// sender vectors that rise and fall (a rollback lowers entries), and
// generations that advance, repeat or are absent (0). After every step
// both must have emitted equal pair lists and hold equal Current().
func FuzzCodecMatchesTwoVector(f *testing.F) {
	f.Add(uint64(1), 8, 200)
	f.Add(uint64(5), 64, 300)
	f.Add(uint64(42), 3, 400)
	f.Add(uint64(1024), 1024, 100)
	f.Fuzz(func(t *testing.T, seed uint64, width, steps int) {
		if width < 1 || width > 1024 || steps < 1 || steps > 500 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		var cd DeltaCodec
		var ref twoVectorCodec
		cd.Init(width)
		ref.Init(width)
		var ar PairArena
		var tmp DDV
		cur := NewDDV(width)
		gen := uint64(1)
		var pipe, refPipe [][]DDVPair // non-empty deltas in flight, oldest first

		encode := func(count int) {
			g := gen
			switch rng.Intn(4) {
			case 0:
				g = 0 // a sender without a generation counter
			case 1:
				gen++ // a fresh generation for an unchanged vector
				g = gen
			}
			for k := 0; k < count; k++ {
				got := cd.Encode(cur, g, &ar, &tmp)
				want := ref.Encode(cur, g)
				comparePairs(t, "Encode", width, got, want)
				if len(want) > 0 {
					pipe, refPipe = append(pipe, got), append(refPipe, want)
				}
			}
		}
		for s := 0; s < steps; s++ {
			switch op := rng.Intn(6); {
			case op == 0 && len(pipe) > 0, len(pipe) >= maxCodecDepth:
				k := rng.Intn(len(pipe)) + 1
				for i := range k {
					cd.Decode(pipe[i])
					ref.Decode(refPipe[i])
				}
				pipe, refPipe = pipe[k:], refPipe[k:]
			case op <= 2:
				// The sender's vector moves: mostly up, sometimes down.
				for n := rng.Intn(3) + 1; n > 0; n-- {
					i := rng.Intn(width)
					if rng.Intn(5) == 0 {
						cur[i] = SN(rng.Intn(int(cur[i]) + 1))
					} else {
						cur[i] += SN(rng.Intn(4) + 1)
					}
				}
				gen++
			case op == 3:
				encode(1)
			default:
				encode(rng.Intn(3) + 1)
			}
			if !cd.Current().Equal(ref.dec) {
				t.Fatalf("step %d: decoder holds %v, reference %v", s, cd.Current(), ref.dec)
			}
			if cd.inFlight != len(pipe) {
				t.Fatalf("step %d: codec holds %d deltas in flight, the pipe %d", s, cd.inFlight, len(pipe))
			}
		}
	})
}

// TestCodecDecodeRefusesOutOfOrder: a delta that is not the oldest in
// flight — a later one, a copy of the oldest, or one with nothing in
// flight — panics instead of desynchronising the codec.
func TestCodecDecodeRefusesOutOfOrder(t *testing.T) {
	var cd DeltaCodec
	cd.Init(4)
	var ar PairArena
	var tmp DDV
	first := cd.Encode(DDV{1, 0, 0, 0}, 1, &ar, &tmp)
	second := cd.Encode(DDV{1, 2, 0, 0}, 2, &ar, &tmp)
	for name, pairs := range map[string][]DDVPair{
		"later delta":  second,
		"equal copy":   append([]DDVPair(nil), first...),
		"empty delta":  nil,
		"prefix slice": first[:0],
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: decoded", name)
				}
			}()
			cd.Decode(pairs)
		}()
	}
	cd.Decode(first)
	cd.Decode(second)
	if !cd.Current().Equal(DDV{1, 2, 0, 0}) {
		t.Fatalf("decoder holds %v", cd.Current())
	}
	defer func() {
		if recover() == nil {
			t.Error("decoded with nothing in flight")
		}
	}()
	cd.Decode(second)
}
