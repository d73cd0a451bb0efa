package core

import (
	"math/rand"
	"slices"
	"testing"
)

// Unit and fuzz coverage for the delta wire primitives: the dirty set,
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

// TestExamCursorEpochQualified pins the rollback-window guard of the
// cluster-shared clean-exam cursor: a cursor advanced under one epoch
// must not let a node whose epoch moved on (rollback — its DDV may
// have dropped) skip its own full re-examination, even when the pipe
// decoder saw no new deltas. Without the epoch qualifier the message
// below would be delivered without forcing a CLC; the dense encoding
// (and therefore the delta contract) requires a hold.
func TestExamCursorEpochQualified(t *testing.T) {
	bed := newWideTestbed(t, 4, false)
	sender, receiver := bed.node(1, 0), bed.node(0, 0)
	dst := receiver.ID()
	// Warm up: first message forces the initial dependency, commit
	// settles, second message examines cleanly and advances the
	// cursor at epoch 0.
	sender.Send(dst, payload(sender.ID(), 1))
	sender.Send(dst, payload(sender.ID(), 2))
	bed.pump()
	if bed.stats["cic.held"] != 1 {
		t.Fatalf("warmup: held = %d, want 1", bed.stats["cic.held"])
	}
	// Mimic the hazard window of a cluster rollback observed from a
	// peer: this node's DDV dropped and its epoch advanced, but the
	// shared cursor was re-advanced by a not-yet-rolled-back peer (so
	// no ResetSeen happened after the advance).
	receiver.ddv[1] = 0
	receiver.ddvChanged()
	receiver.epoch = 1
	// The stored history follows the hand-made drop, as a restore would
	// leave it: one checkpoint, whose vector is the lowered DDV.
	receiver.dropCLCsBelow(receiver.sn)
	receiver.chain.Init(receiver.sn, receiver.ddv)
	receiver.commitBase.CopyFrom(receiver.ddv)
	bed.shadows.Attach(receiver)
	// The sender's vector is unchanged, so the pipe carries no new
	// pairs — the cursor alone would claim "covered". The stale-epoch
	// cursor must be distrusted: a full exam re-raises the dependency
	// and holds the message for a forced CLC.
	sender.Send(dst, payload(sender.ID(), 3))
	bed.pump()
	if bed.stats["cic.held"] != 2 {
		t.Fatalf("post-rollback-window message was not re-examined: held = %d, want 2",
			bed.stats["cic.held"])
	}
}

// FuzzDeltaCodec feeds a codec random vector histories interleaved
// with decodes, receiver epoch boundaries (rollbacks that lower the
// receiver's DDV) and exam-cursor traffic, and asserts:
//
//   - the decoder reconstructs every shipped vector exactly (the
//     lockstep contract),
//   - the clean-exam cursor machinery — replayed exactly as
//     examineDeltaPiggy runs it, epoch qualifier included — never
//     claims an entry covered that actually exceeds the receiver's
//     DDV, even when epoch boundaries arrive duplicated (repeated
//     ResetSeen) or reordered against decodes, and even when the
//     boundary happens *without* a reset (a not-yet-rolled-back peer
//     re-advanced the shared cursor with the old epoch's higher DDV —
//     the hazard the seenEpoch guard exists for).
func FuzzDeltaCodec(f *testing.F) {
	f.Add(uint64(1), 4, 40)
	f.Add(uint64(99), 16, 120)
	f.Add(uint64(7), 64, 30)
	f.Add(uint64(1234), 8, 400)
	f.Fuzz(func(t *testing.T, seed uint64, width, steps int) {
		if width < 1 || width > 256 || steps < 1 || steps > 400 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		var cd DeltaCodec
		cd.Init(width)
		var ar PairArena
		var tmp DDV
		cur := NewDDV(width)
		gen := uint64(1)

		type shipped struct {
			vec   DDV
			pairs []DDVPair
		}
		var inflight []shipped // encoded, not yet decoded (FIFO pipe)
		rddv := NewDDV(width)  // the receiver's committed DDV
		recvEpoch := Epoch(0)

		// exam replays examineDeltaPiggy's cursor logic against the
		// decoder state and asserts the safety direction: every entry
		// of the decoded vector above the receiver's DDV is reported.
		exam := func() {
			var raised []int32
			cursorValid := cd.seenEpoch == recvEpoch
			switch {
			case cursorValid && cd.ver == cd.seen:
				// Claimed covered: nothing may exceed rddv.
			case cursorValid && cd.ver-cd.seen <= examReplayMax:
				for v := cd.seen; v < cd.ver; v++ {
					for _, p := range cd.journal[v%codecJournal] {
						if cd.dec[p.Idx] > rddv[p.Idx] {
							raised = append(raised, p.Idx)
						}
					}
				}
			default:
				for i, v := range cd.dec {
					if v > rddv[i] {
						raised = append(raised, int32(i))
					}
				}
			}
			reported := make(map[int32]bool, len(raised))
			for _, i := range raised {
				reported[i] = true
			}
			for i, v := range cd.dec {
				if v > rddv[i] && !reported[int32(i)] {
					t.Fatalf("exam missed entry %d: decoded %d > receiver %d (seen=%d ver=%d seenEpoch=%d epoch=%d)",
						i, v, rddv[i], cd.seen, cd.ver, cd.seenEpoch, recvEpoch)
				}
			}
			if len(raised) == 0 {
				cd.seen = cd.ver
				cd.seenEpoch = recvEpoch
			} else {
				// The raised entries force a CLC; model its commit so
				// later exams run against the raised vector.
				for _, i := range raised {
					if cd.dec[i] > rddv[i] {
						rddv[i] = cd.dec[i]
					}
				}
			}
		}

		for s := 0; s < steps; s++ {
			switch rng.Intn(5) {
			case 0: // mutate the sender vector (raises and drops)
				i := rng.Intn(width)
				cur[i] = SN(rng.Intn(30))
				gen++
			case 1: // encode one message onto the pipe
				pairs := cd.Encode(cur, gen, &ar, &tmp)
				if pairs == nil {
					// Unchanged-generation or no-diff sends ship no
					// delta and never reach the decoder.
					continue
				}
				inflight = append(inflight, shipped{vec: cur.Clone(), pairs: pairs})
			case 2: // deliver the oldest in-flight message, then examine
				if len(inflight) == 0 {
					continue
				}
				m := inflight[0]
				inflight = inflight[1:]
				cd.Decode(m.pairs)
				if !cd.Current().Equal(m.vec) {
					t.Fatalf("decode mismatch: got %v want %v", cd.Current(), m.vec)
				}
				exam()
			case 3: // epoch boundary with reset: the receiver rolled
				// back (its DDV drops) and discarded the cursor. A
				// duplicated boundary (this case drawn twice in a row)
				// must be as harmless as one.
				for i := range rddv {
					if rddv[i] > 0 && rng.Intn(2) == 0 {
						rddv[i] = SN(rng.Intn(int(rddv[i]) + 1))
					}
				}
				recvEpoch++
				cd.ResetSeen()
			case 4: // epoch boundary without reset: a peer still in the
				// old epoch re-advanced the shared cursor after the
				// reset — only the seenEpoch qualifier protects the
				// next exam.
				for i := range rddv {
					if rddv[i] > 0 && rng.Intn(2) == 0 {
						rddv[i] = SN(rng.Intn(int(rddv[i]) + 1))
					}
				}
				recvEpoch++
			}
		}
	})
}
