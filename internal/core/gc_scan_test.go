package core

import (
	"math/rand"
	"testing"
)

// This file is the differential suite for the incremental GC scan
// (curPairsVsNewest): every check compares the dirty-set probe against
// the full-width diffPairs reference on live nodes, across commits,
// inter-cluster receipts, rollbacks, recoveries and GC rounds.

// newestStored materialises n's newest stored vector from its chain —
// not from commitBase, which the scan under test reads.
func newestStored(n *Node) DDV {
	v := NewDDV(n.cfg.Clusters)
	n.chain.Vector(n.chain.Len()-1, v)
	return v
}

// pairSet collapses a pair list to index->SN, failing on duplicates —
// neither scan may emit the same index twice.
func pairSet(t *testing.T, what string, ps []DDVPair) map[int32]SN {
	t.Helper()
	m := make(map[int32]SN, len(ps))
	for _, p := range ps {
		if _, dup := m[p.Idx]; dup {
			t.Fatalf("%s emitted index %d twice: %v", what, p.Idx, ps)
		}
		m[p.Idx] = p.SN
	}
	return m
}

// checkScanMatchesReference asserts, for every live node, that the
// incremental scan and the width-scan reference report the same pair
// set. Returns how many nodes were probed via the incremental path.
func checkScanMatchesReference(t *testing.T, b *testbed) (incremental int) {
	t.Helper()
	for _, n := range b.nodes {
		if n.Failed() || n.lostState || len(n.clcs) == 0 {
			continue
		}
		got := pairSet(t, "curPairsVsNewest", n.curPairsVsNewest(nil))
		want := pairSet(t, "diffPairs", diffPairs(nil, n.ddv, newestStored(n)))
		if len(got) != len(want) {
			t.Fatalf("node %v: incremental scan %v, reference %v (valid=%v dirty=%v)",
				n.ID(), got, want, n.gcScanValid, n.gcScanDirty.Indices())
		}
		for i, v := range want {
			if got[i] != v {
				t.Fatalf("node %v: index %d = %d incrementally, %d by reference",
					n.ID(), i, got[i], v)
			}
		}
		if n.gcScanValid && n.cfg.Mode == ModeHC3I {
			incremental++
		}
	}
	return incremental
}

// TestIncrementalScanDeterministic walks the invariant's lifecycle by
// hand: valid at start, dirty after a CIC receipt, reset at the next
// commit, invalidated by a rollback, revalidated by the commit after.
func TestIncrementalScanDeterministic(t *testing.T) {
	b := newTestbed(t, []int{2, 2}, 1, false)
	c0, c1 := b.node(0, 0), b.node(1, 0)

	if !c0.gcScanValid {
		t.Fatal("scan invalid right after the initial CLC")
	}
	checkScanMatchesReference(t, b)

	// A cross-cluster receipt raises c1's entry for c0 via a forced
	// CLC: in HC3I the raise lands *at the commit*, so once the pump
	// settles the vector equals the stored CLC again — scan valid,
	// dirty set empty, and the differential check passes.
	b.commitCLC(0)
	c0.Send(b.node(1, 1).ID(), payload(c0.ID(), 1))
	b.pump()
	if !c1.gcScanValid || c1.gcScanDirty.Len() != 0 {
		t.Fatalf("after forced commit: valid=%v dirty=%v", c1.gcScanValid, c1.gcScanDirty.Indices())
	}
	if !c1.DDVSnapshot().Equal(newestStored(c1)) {
		t.Fatal("HC3I invariant broken: ddv != newest stored DDV between commits")
	}
	checkScanMatchesReference(t, b)

	// A rollback breaks the invariant on every touched node; the scan
	// must fall back to the full-width reference until the next commit.
	b.node(0, 1).Fail()
	b.node(0, 1).Restart()
	c0.OnFailureDetected(b.node(0, 1).ID())
	b.pump()
	if c0.gcScanValid {
		t.Fatal("scan still marked valid after a rollback")
	}
	checkScanMatchesReference(t, b)

	// The commit after the rollback re-establishes ddv == newest CLC
	// and revalidates the incremental path.
	b.commitCLC(0)
	if !c0.gcScanValid {
		t.Fatal("scan not revalidated by the first post-rollback commit")
	}
	checkScanMatchesReference(t, b)
}

// TestIncrementalScanWide drives the single wide pipe of the
// width-parameterized testbed: receipts at width 64 must keep the
// dirty probe and the chunked full scan in agreement.
func TestIncrementalScanWide(t *testing.T) {
	for _, dense := range []bool{false, true} {
		b := newWideTestbed(t, 64, dense)
		src, dst := b.node(0, 0), b.node(1, 0)
		for k := 0; k < 4; k++ {
			b.commitCLC(0)
			src.Send(dst.ID(), payload(src.ID(), uint64(k+1)))
			b.pump()
			checkScanMatchesReference(t, b)
		}
		b.commitCLC(1)
		if checkScanMatchesReference(t, b) == 0 {
			t.Fatalf("dense=%v: no node used the incremental path", dense)
		}
	}
}

// TestIncrementalScanRandomized is the chaos arm: random cross-cluster
// sends, commits, failures and GC rounds over a 4-cluster federation,
// with the differential check after every settled step.
func TestIncrementalScanRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	b := newTestbed(t, []int{2, 2, 2, 2}, 1, true)
	b.node(0, 0).cfg.GCInitiator = true

	incremental, fallback := 0, 0
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // cross-cluster app message
			src := rng.Intn(4)
			dst := (src + 1 + rng.Intn(3)) % 4
			from := b.node(src, rng.Intn(2))
			from.Send(b.node(dst, rng.Intn(2)).ID(), payload(from.ID(), uint64(step)))
			b.pump()
		case 5, 6, 7: // unforced CLC somewhere
			b.commitCLC(rng.Intn(4))
		case 8: // node failure and cluster rollback
			c := rng.Intn(4)
			b.node(c, 1).Fail()
			b.node(c, 1).Restart()
			b.node(c, 0).OnFailureDetected(b.node(c, 1).ID())
			b.pump()
		case 9: // GC round (exercises makeGCReport on every leader)
			b.node(0, 0).OnTimer(TimerGC)
			b.pump()
		}
		incremental += checkScanMatchesReference(t, b)
		for _, n := range b.nodes {
			if !n.gcScanValid {
				fallback++
			}
		}
	}
	// The suite is only meaningful if both paths actually ran: the
	// incremental probe in steady state and the full-width fallback in
	// the windows a rollback opened.
	if incremental == 0 {
		t.Fatal("incremental path never exercised")
	}
	if fallback == 0 {
		t.Fatal("full-scan fallback never exercised")
	}
}

// TestIncrementalScanDirtyProbe white-boxes the dirty-set loop itself:
// hand-raised entries flagged dirty must surface exactly the indices
// that differ from the stored vector, matching the full-width diff.
func TestIncrementalScanDirtyProbe(t *testing.T) {
	b := newWideTestbed(t, 64, false)
	n := b.node(0, 0)
	b.commitCLC(0)
	if !n.gcScanValid {
		t.Fatal("scan invalid after a clean commit")
	}
	// Raise a few foreign entries the way a lazy receipt site would,
	// including one "touched but unchanged" index that must not emit.
	n.ddv[3] += 2
	n.gcScanDirty.Add(3)
	n.ddv[40] += 1
	n.gcScanDirty.Add(40)
	n.gcScanDirty.Add(17) // dirty but equal: probe must skip it
	got := pairSet(t, "curPairsVsNewest", n.curPairsVsNewest(nil))
	want := pairSet(t, "diffPairs", diffPairs(nil, n.ddv, newestStored(n)))
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("probe sets: incremental %v, reference %v", got, want)
	}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("index %d: incremental %d, reference %d", i, got[i], v)
		}
	}
}
