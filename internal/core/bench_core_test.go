package core

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Micro-benchmarks of the protocol's hot paths: DDV operations, the
// recovery-line fixpoint and the garbage collector's analysis.

func benchHistory(nClusters, steps int) ([][]Meta, []DDV) {
	f := newAbstractFederation(nClusters, 42)
	for s := 0; s < steps; s++ {
		f.step()
	}
	return f.lists, f.ddv
}

// BenchmarkDDVClone isolates DDV.Clone, one allocation per clone by
// design: no message carries a dense vector, so the clone stays off
// the per-message path (snapshots, recovery answers, tests).
func BenchmarkDDVClone(b *testing.B) {
	names := map[int]string{2: "2clusters", 8: "8clusters", 64: "64clusters", 256: "256clusters"}
	for _, size := range []int{2, 8, 64, 256} {
		d := NewDDV(size)
		for i := range d {
			d[i] = SN(i * 3)
		}
		b.Run(names[size], func(b *testing.B) {
			b.ReportAllocs()
			var sink DDV
			for i := 0; i < b.N; i++ {
				sink = d.Clone()
			}
			_ = sink
		})
	}
}

// BenchmarkDDVSnapshot measures the public DDV accessor the harness's
// error path and tests call: one clone.
func BenchmarkDDVSnapshot(b *testing.B) {
	bed := newTestbed(b, []int{2, 2}, 1, false)
	n := bed.node(0, 0)
	b.ReportAllocs()
	var sink DDV
	for i := 0; i < b.N; i++ {
		sink = n.DDVSnapshot()
	}
	_ = sink
}

// BenchmarkPiggybackMessage is the width-parameterized steady-state
// per-message bench of the dependency piggyback path: one transitive
// inter-cluster application message (send, wire transit, receive-side
// examination, ack) between two clusters of a `width`-cluster
// federation, with the dependency already covered so no checkpoint is
// forced — the fast path every message takes between commits. The
// delta encoding ships only changed entries (none in steady state).
// The `dense` rows keep their name but run without pipe codecs: each
// message carries the sender's whole vector in sparse form, shared
// with its log entry, and the receiver examines its non-zero entries,
// so both forms are near-flat across widths.
func BenchmarkPiggybackMessage(b *testing.B) {
	for _, enc := range []struct {
		name  string
		dense bool
	}{{"delta", false}, {"dense", true}} {
		for _, width := range []int{8, 64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/%dclusters", enc.name, width), func(b *testing.B) {
				bed := newWideTestbed(b, width, enc.dense)
				sender, receiver := bed.node(1, 0), bed.node(0, 0)
				dst := receiver.ID()
				app := bed.app(0, 0)
				// Warm up: the first message forces the initial-SN
				// dependency; settle the forced commit, then the
				// steady state begins.
				sender.Send(dst, payload(sender.ID(), 1))
				bed.pump()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sender.Send(dst, payload(sender.ID(), uint64(i+2)))
					bed.pump()
					// Keep the bench on the message path: drop the
					// sender's optimistic log (otherwise it grows O(N))
					// and the mock app's delivery journal.
					sender.resetLog()
					app.delivered = app.delivered[:0]
				}
			})
		}
		// The hold path at the widest federation: the sender's cluster
		// commits before every message, so each one raises the
		// receiver's entry for it, is held, forces a CLC and is
		// delivered after it. The receiver pins what the held copy
		// needs, and the sender logs the send's piggyback.
		b.Run(fmt.Sprintf("hold/%s/1024clusters", enc.name), func(b *testing.B) {
			bed := newWideTestbed(b, 1024, enc.dense)
			sender, receiver := bed.node(1, 0), bed.node(0, 0)
			dst := receiver.ID()
			app := bed.app(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bed.commitCLC(1)
				sender.Send(dst, payload(sender.ID(), uint64(i+1)))
				bed.pump()
				// Keep the bench on the message path: the log, the
				// delivery journal and both stored histories stay flat.
				sender.resetLog()
				app.delivered = app.delivered[:0]
				sender.dropCLCsBelow(sender.SN())
				receiver.dropCLCsBelow(receiver.SN())
			}
		})
	}
}

// BenchmarkNodeOnMessage measures the per-message protocol cost at a
// receiving node through the public OnMessage entry point: an
// inter-cluster application message whose dependency is already
// covered (the non-forcing fast path every message takes between
// checkpoints). It drives the pooled-box path the simulation harness
// uses — a *AppMsg in, the AppAck out through a recycled box — so the
// steady state performs no allocation at all.
func BenchmarkNodeOnMessage(b *testing.B) {
	bed := newTestbed(b, []int{2, 2}, 1, false)
	dst := bed.node(0, 0)
	src := topology.NodeID{Cluster: 1, Index: 0}
	bed.pump()
	m := &AppMsg{
		MsgID:      1,
		Payload:    AppPayload{ID: LogicalID{Src: src, Seq: 1}, Size: 4096},
		SrcCluster: 1,
		SendSN:     0, // below the receiver's DDV entry: no force
	}
	app := bed.app(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MsgID = uint64(i + 2)
		m.Payload.ID.Seq = uint64(i + 2)
		dst.OnMessage(src, m)
		// Recycle the emitted ack boxes and keep the harness buffers
		// flat so the measurement stays on the protocol path, not on
		// the mock's unbounded growth.
		for _, qm := range bed.queue {
			bed.reclaim(qm.msg)
		}
		bed.queue = bed.queue[:0]
		app.delivered = app.delivered[:0]
	}
}

func BenchmarkOldestWith(b *testing.B) {
	lists, _ := benchHistory(4, 400)
	chain := chainFromMetas(lists[1], 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain.OldestWith(0, SN(i%50))
	}
}

func BenchmarkSimulateFailure(b *testing.B) {
	for _, size := range []struct {
		name              string
		clusters, history int
	}{
		{"3clusters/100clcs", 3, 300},
		{"8clusters/400clcs", 8, 1200},
	} {
		b.Run(size.name, func(b *testing.B) {
			lists, currents := benchHistory(size.clusters, size.history)
			chains := chainsFromMetas(lists, size.clusters)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SimulateFailure(chains, currents, topology.ClusterID(i%size.clusters)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSmallestSNs(b *testing.B) {
	lists, currents := benchHistory(5, 600)
	chains := chainsFromMetas(lists, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SmallestSNs(chains, currents); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterCheckpoint measures one full two-phase commit across
// a cluster through the synchronous testbed (protocol cost without
// network latency). Its allocs/op are the mock application's: one
// boxed snapshot per node; the protocol's round allocates nothing.
func BenchmarkClusterCheckpoint(b *testing.B) {
	for _, nodes := range []int{4, 16, 64} {
		b.Run(map[int]string{4: "4nodes", 16: "16nodes", 64: "64nodes"}[nodes], func(b *testing.B) {
			bed := newTestbed(b, []int{nodes}, 1, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bed.commitCLC(0)
			}
		})
	}
}

// BenchmarkForcedCLCRound measures one forced checkpoint end to end: a
// node of cluster 1 sends to a participant of cluster 0 right after its
// own cluster committed, so the message raises a dependency; the
// receiver holds it and demands a forced CLC (ForceCLC), its leader
// runs the 2PC, and the commit's re-examine delivers the message. The
// sender logs and mirrors the message; a GC drop per round keeps every
// history one record deep and trims the log and its mirror.
func BenchmarkForcedCLCRound(b *testing.B) {
	bed := newTestbed(b, []int{2, 2}, 1, false)
	for _, n := range bed.nodes {
		n.app = &flatApp{}
	}
	sender, receiver := bed.node(1, 1), bed.node(0, 1)
	minSNs := make([]SN, 2)
	var seq uint64
	round := func() {
		bed.commitCLC(1)
		seq++
		sender.Send(receiver.ID(), payload(sender.ID(), seq))
		bed.pump()
		// Keep the newest CLC of each cluster; the sender's entries were
		// acked at the receiver's SN, so one above it trims them.
		minSNs[0], minSNs[1] = receiver.SN(), sender.SN()
		bed.node(0, 0).applyGCDrop(1, minSNs)
		receiver.applyGCDrop(1, minSNs)
		minSNs[0]++
		bed.node(1, 0).applyGCDrop(1, minSNs)
		sender.applyGCDrop(1, minSNs)
		bed.pump()
	}
	for i := 0; i < 10; i++ {
		round()
	}
	start := receiver.SN()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if got := receiver.SN() - start; got != SN(b.N) || sender.LogLen() != 0 {
		b.Fatalf("%d rounds forced %d CLCs and left %d log entries", b.N, got, sender.LogLen())
	}
}

// deepHistoryBed builds a two-node cluster (plus a one-node peer
// cluster to log towards) whose nodes each store clcs CLCs and whose
// node 1 holds logged inter-cluster messages in its log, mirrored on
// node 0: the state between two garbage collections that the commit,
// ack and mirror paths must not pay for.
func deepHistoryBed(b *testing.B, clcs, logged int) *testbed {
	bed := newTestbed(b, []int{2, 1}, 1, false)
	for bed.node(0, 0).StoredCount() < clcs {
		bed.commitCLC(0)
	}
	sender, dst := bed.node(0, 1), bed.node(1, 0).ID()
	for i := 0; i < logged; i++ {
		sender.Send(dst, payload(sender.ID(), uint64(i+1)))
		bed.pump()
	}
	bed.app(1, 0).delivered = nil
	return bed
}

// BenchmarkCommitDeepHistory measures one two-phase commit of a
// two-node cluster holding 1024 log entries and 8 or 4096 stored CLCs.
// The leader samples StorageBytes on every commit; each iteration
// drops the oldest CLC again so the depth stays what the name says.
func BenchmarkCommitDeepHistory(b *testing.B) {
	for _, clcs := range []int{8, 4096} {
		b.Run(fmt.Sprintf("%dclcs", clcs), func(b *testing.B) {
			bed := deepHistoryBed(b, clcs, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bed.commitCLC(0)
				bed.node(0, 0).dropOldestCLC()
				bed.node(0, 1).dropOldestCLC()
			}
		})
	}
}

// BenchmarkCommitWidth1024 measures one two-phase commit of a two-node
// cluster (leader and participant, one replica each) in a 1024-cluster
// federation. Read B/op: a commit stores its record as the commit's own
// pairs, so nothing it allocates is as wide as the federation — where
// every commit used to cut three 8 KB vectors (the leader's commit
// vector and one stored copy per node).
func BenchmarkCommitWidth1024(b *testing.B) {
	bed := newWideTestbedSized(b, 1024, false, 2)
	leader, peer := bed.node(0, 0), bed.node(0, 1)
	minSNs := make([]SN, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.commitCLC(0)
		// The collector's drop keeps the steady state: one stored CLC
		// and its replica per node.
		minSNs[0] = leader.SN()
		leader.applyGCDrop(1, minSNs)
		peer.applyGCDrop(1, minSNs)
	}
	if leader.StoredCount() != 1 || peer.ReplicaCount() != 1 {
		b.Fatalf("steady state drifted: %d CLCs, %d replicas", leader.StoredCount(), peer.ReplicaCount())
	}
}

// ringFederation is a width-cluster federation whose clusters exchange
// messages on a ring (i to i+1, whole-DDV piggybacks) between unforced
// checkpoints, for rounds rounds. All messages of a round are sent
// before any is received, so a dependency travels one hop per round.
func ringFederation(width, rounds int) *abstractFederation {
	f := newAbstractFederation(width, 1)
	for r := 0; r < rounds; r++ {
		piggy := make([]DDV, width)
		for i := 0; i < width; i++ {
			f.commit(i, nil)
			piggy[i] = f.ddv[i].Clone()
		}
		for i := 0; i < width; i++ {
			f.commit((i+1)%width, piggy[i])
		}
	}
	return f
}

// ringReports builds the GC reports of ringFederation(width, rounds),
// cluster c's in slot c.
func ringReports(width, rounds int) []GCReport {
	f := ringFederation(width, rounds)
	reports := make([]GCReport, width)
	for i := range reports {
		reports[i] = GCReport{Cluster: topology.ClusterID(i), Chain: f.chains[i]}
	}
	return reports
}

// BenchmarkGCAnalysis1024 measures the collector's analysis of one
// round at 1024 clusters (ring-shaped dependencies, 7 stored CLCs per
// cluster): computeMinSNs on the reported chains, against what it used
// to do — materialise every report into a dense list, then the dense
// analysis (now the test reference).
func BenchmarkGCAnalysis1024(b *testing.B) {
	const width = 1024
	reports := ringReports(width, 3)
	n := newWideTestbed(b, width, false).node(0, 0)
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := n.computeMinSNs(reports); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lists := make([][]Meta, width)
			currents := make([]DDV, width)
			for c := range lists {
				lists[c] = reports[c].Chain.metas()
				currents[c] = lists[c][len(lists[c])-1].DDV
			}
			if _, err := denseSmallestSNs(lists, currents); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGCRound1024 measures one collection round's reports and
// analysis at 1024 clusters: every cluster leader (one node per
// cluster, each storing ringFederation's chain with 3 rounds) builds
// its GC report, then the initiator runs computeMinSNs on them. Read
// B/op: a report copies its record list and shares the chain's anchor
// and pairs, so nothing in the round is as wide as the federation but
// the initiator's reused scratch.
func BenchmarkGCRound1024(b *testing.B) {
	const width = 1024
	f := ringFederation(width, 3)
	sizes := make([]int, width)
	for i := range sizes {
		sizes[i] = 1
	}
	bed := &testbed{t: b, stats: map[string]uint64{}, width: width}
	leaders := make([]*Node, width)
	for c := range leaders {
		id := topology.NodeID{Cluster: topology.ClusterID(c)}
		n := NewNode(Config{ID: id, Clusters: width, ClusterSizes: sizes,
			CLCPeriod: sim.Forever, GCPeriod: sim.Forever, GCInitiator: c == 0},
			&mockEnv{id: id, bed: bed, timers: map[TimerKind]sim.Duration{}}, &mockApp{})
		// The node stores the ring's history: its chain, and a current
		// vector equal to the newest stored one (the steady state
		// between two commits).
		n.chain.copyFrom(f.chains[c])
		n.ddv.CopyFrom(f.ddv[c])
		n.commitBase.CopyFrom(f.ddv[c])
		leaders[c] = n
	}
	reports := make([]GCReport, width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, n := range leaders {
			reports[c] = n.makeGCReport(1)
		}
		if _, err := leaders[0].computeMinSNs(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppAckDeepLog measures one AppAck at a sender whose log
// holds 16 or 4096 entries, acknowledging the entries in turn.
func BenchmarkAppAckDeepLog(b *testing.B) {
	for _, logged := range []int{16, 4096} {
		b.Run(fmt.Sprintf("%dentries", logged), func(b *testing.B) {
			bed := deepHistoryBed(b, 1, logged)
			sender, src := bed.node(0, 1), bed.node(1, 0).ID()
			first := sender.log[0].msgID
			ack := &AppAck{SrcCluster: 1, ReceiverSN: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ack.MsgID = first + uint64(i%logged)
				sender.OnMessage(src, ack)
			}
			if bed.stats["log.ack_orphan"] != 0 {
				b.Fatal("acks missed their entries")
			}
		})
	}
}

// BenchmarkLogMirrorDeep measures storing one new LogMirror at a
// holder that already mirrors 16 or 4096 entries of the owner; each
// iteration drops the new entry again so the depth stays fixed.
func BenchmarkLogMirrorDeep(b *testing.B) {
	for _, mirrored := range []int{16, 4096} {
		b.Run(fmt.Sprintf("%dentries", mirrored), func(b *testing.B) {
			bed := deepHistoryBed(b, 1, mirrored)
			holder, owner := bed.node(0, 0), bed.node(0, 1).ID()
			m := LogMirror{Owner: owner, Dst: bed.node(1, 0).ID(), Payload: payload(owner, 1), PiggySN: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MsgID = 1<<40 + uint64(i)
				holder.OnMessage(owner, m)
				holder.dropNewestMirror(owner)
			}
			if got := holder.mirrorLen(owner); got != mirrored {
				b.Fatalf("mirror depth drifted to %d", got)
			}
		})
	}
}
