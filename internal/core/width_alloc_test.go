package core

import (
	"runtime"
	"testing"
)

// bytesAllocated returns how many heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// unshadowed hides a test's *testing.T from the testbed constructors,
// which then attach no dense reference, as for a benchmark: the
// reference keeps width-sized vectors of its own.
type unshadowed struct{ testing.TB }

// TestGCFirstRoundAllocationBounded: a fresh initiator's first analysis
// at 1024 clusters allocates its scratch and the thresholds — under
// 1 MB in all, where a width² matrix of current vectors alone is 8 MB.
func TestGCFirstRoundAllocationBounded(t *testing.T) {
	const width = 1024
	reports := ringReports(width, 3)
	n := newWideTestbed(t, width, false).node(0, 0)
	var err error
	got := bytesAllocated(func() { _, err = n.computeMinSNs(reports) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("first GC analysis at width %d allocated %d bytes", width, got)
	if got >= 1<<20 {
		t.Fatalf("first GC analysis at width %d allocated %d bytes, want under 1 MB", width, got)
	}
}

// TestLeaderFirstCommitAllocatesNoVector: a fresh leader's first commit
// at 1024 clusters — a forced one, so raises reach the commit — builds
// its pairs from its DDV and the short raise list. Everything it
// allocates together stays under one width-sized vector (8 KB).
func TestLeaderFirstCommitAllocatesNoVector(t *testing.T) {
	const width = 1024
	bed := newWideTestbed(unshadowed{t}, width, false)
	leader := bed.node(0, 0)
	raise := []DDVPair{{Idx: 5, SN: 3}, {Idx: 900, SN: 2}}
	got := bytesAllocated(func() {
		leader.requestForce(raise, false)
		bed.pump()
	})
	if leader.SN() != 2 || leader.ddv[5] != 3 || leader.ddv[900] != 2 {
		t.Fatalf("forced commit did not land: SN %d, entries %d and %d", leader.SN(), leader.ddv[5], leader.ddv[900])
	}
	t.Logf("first commit at width %d allocated %d bytes", width, got)
	if got >= 8*width {
		t.Fatalf("first commit at width %d allocated %d bytes, want under one %d-byte vector", width, got, 8*width)
	}
}
