package oracle

import (
	"testing"

	"repro/internal/core"
)

// ringRound commits one ring round on the shadow of a federation of
// two-node clusters, the shape of the wide tier's ring workload: every
// cluster takes a checkpoint, sends to its ring successor, then
// checkpoints the receipt — so each cluster depends on the checkpoint
// its predecessor took before receiving, and a simulated failure
// cascades one hop, not around the ring.
func ringRound(o *Oracle, sent []core.SN) {
	width := o.width
	for i := 0; i < width; i++ {
		sent[i] = o.clusters[i].sn + 1
		commitPairs(o, i, []core.DDVPair{{Idx: int32(i), SN: sent[i]}})
	}
	for i := 0; i < width; i++ {
		prev := (i + width - 1) % width
		pairs := []core.DDVPair{{Idx: int32(prev), SN: sent[prev]}, {Idx: int32(i), SN: o.clusters[i].sn + 1}}
		if prev > i { // pairs are in index order
			pairs[0], pairs[1] = pairs[1], pairs[0]
		}
		commitPairs(o, i, pairs)
	}
}

// commitPairs observes cluster c's next commit at both of its nodes.
func commitPairs(o *Oracle, c int, pairs []core.DDVPair) {
	seq := o.clusters[c].sn + 1
	epoch := o.clusters[c].epoch
	commit(o, node(c, 0), seq, epoch, nil, pairs)
	commit(o, node(c, 1), seq, epoch, nil, pairs)
}

// BenchmarkOracleGCRound1024 measures the oracle's share of one GC
// round at 1024 two-node clusters: every node applies the round's
// thresholds, which the oracle checks against the §3.5 analysis of its
// shadow history (ring-shaped dependencies). Between rounds, untimed,
// every cluster commits another ring round; the thresholds keep each
// cluster's newest seven CLCs, below the safe minimum, so every check
// passes and every cluster has two records to drop.
func BenchmarkOracleGCRound1024(b *testing.B) {
	const width, kept = 1024, 7
	o := New(width)
	sent := make([]core.SN, width)
	for r := 0; r < 3; r++ {
		ringRound(o, sent)
	}
	mins := make([]core.SN, width)
	round := func() {
		b.StopTimer()
		ringRound(o, sent)
		for c := range mins {
			mins[c] = o.clusters[c].sn - kept + 1
		}
		b.StartTimer()
		for c := 0; c < width; c++ {
			gcDrop(o, node(c, 0), mins)
			gcDrop(o, node(c, 1), mins)
		}
	}
	// One untimed round sizes the analyzer's buffers, so allocs/op is
	// the per-round cost, not the first round's sizing divided by b.N.
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if err := o.Err(); err != nil {
		b.Fatal(err)
	}
	if got := o.clusters[0].chain.Len(); got != kept {
		b.Fatalf("cluster 0 stores %d CLCs after the round, want %d", got, kept)
	}
}
