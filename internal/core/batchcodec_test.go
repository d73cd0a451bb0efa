package core

import (
	"math/rand"
	"testing"
)

// TestEncodeBatchMatchesPerMessage pins the batch encode contract
// deterministically: for every batch size and generation discipline,
// EncodeBatch emits exactly what sequential Encode calls would, and
// the two pipes, drained at random points, decode the same vectors.
func TestEncodeBatchMatchesPerMessage(t *testing.T) {
	for _, withGen := range []bool{true, false} {
		rng := rand.New(rand.NewSource(7))
		var batched, seq DeltaCodec
		batched.Init(16)
		seq.Init(16)
		var arB, arS PairArena
		var tmp DDV
		cur := NewDDV(16)
		gen := uint64(0)
		var pipeB, pipeS [][]DDVPair
		for round := 0; round < 50; round++ {
			if rng.Intn(2) == 0 {
				cur[rng.Intn(16)] += SN(rng.Intn(3) + 1)
				gen++
			}
			g := gen
			if !withGen {
				g = 0
			}
			count := rng.Intn(4) + 1
			got := batched.EncodeBatch(nil, cur, g, count, &arB, &tmp)
			if len(got) != count {
				t.Fatalf("EncodeBatch emitted %d entries for count %d", len(got), count)
			}
			for k := 0; k < count; k++ {
				want := seq.Encode(cur, g, &arS, &tmp)
				comparePairs(t, "EncodeBatch", 16, got[k], want)
				pipeB, pipeS = append(pipeB, got[k]), append(pipeS, want)
			}
			if rng.Intn(3) == 0 {
				batched.DecodeBatch(pipeB)
				seq.DecodeBatch(pipeS)
				pipeB, pipeS = pipeB[:0], pipeS[:0]
				if !batched.Current().Equal(seq.Current()) {
					t.Fatalf("decoded vectors diverged: batch %v, seq %v", batched.Current(), seq.Current())
				}
			}
		}
	}
}

// FuzzBatchCodec fuzzes batched encode/decode against the per-message
// DeltaCodec oracle: random vector histories are shipped in random
// batch sizes; the batch side must produce identical wire pairs,
// decoder vectors, versions and journal windows.
func FuzzBatchCodec(f *testing.F) {
	f.Add(uint64(1), 8, 60)
	f.Add(uint64(9), 64, 120)
	f.Add(uint64(77), 3, 200)
	f.Fuzz(func(t *testing.T, seed uint64, width, steps int) {
		if width < 1 || width > 256 || steps < 1 || steps > 300 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		var batched, seq DeltaCodec
		batched.Init(width)
		seq.Init(width)
		var arB, arS PairArena
		var tmp DDV
		cur := NewDDV(width)
		gen := uint64(1)

		var pipeB, pipeS [][]DDVPair
		for s := 0; s < steps; s++ {
			switch rng.Intn(3) {
			case 0: // mutate the sender vector
				cur[rng.Intn(width)] = SN(rng.Intn(30))
				gen++
			case 1: // ship a batch of same-tick messages
				count := rng.Intn(5) + 1
				g := gen
				if rng.Intn(4) == 0 {
					g = 0 // sender without a generation counter
				}
				outB := batched.EncodeBatch(nil, cur, g, count, &arB, &tmp)
				for k := 0; k < count; k++ {
					outS := seq.Encode(cur, g, &arS, &tmp)
					comparePairs(t, "batch member", width, outB[k], outS)
					pipeB = append(pipeB, outB[k])
					pipeS = append(pipeS, outS)
				}
			case 2: // drain the pipe through both decoders
				if len(pipeB) == 0 {
					continue
				}
				k := rng.Intn(len(pipeB)) + 1
				decB := batched.DecodeBatch(pipeB[:k])
				for _, pairs := range pipeS[:k] {
					if len(pairs) > 0 {
						seq.Decode(pairs)
					}
				}
				pipeB, pipeS = pipeB[k:], pipeS[k:]
				if !decB.Equal(seq.Current()) {
					t.Fatalf("decoders diverged: batch %v, seq %v", decB, seq.Current())
				}
				if batched.Version() != seq.Version() {
					t.Fatalf("versions diverged: batch %d, seq %d", batched.Version(), seq.Version())
				}
				for v := uint64(0); v < batched.ver && v < codecJournal; v++ {
					idx := v % codecJournal
					comparePairs(t, "journal", width, batched.journal[idx], seq.journal[idx])
				}
			}
		}
	})
}
