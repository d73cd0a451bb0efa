package runtime

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/topology"
)

// wait gives the asynchronous live federation time to settle, then
// barriers through every event loop.
func settle(f *Live, d time.Duration) {
	time.Sleep(d)
	f.Quiesce()
}

func node(c, i int) topology.NodeID {
	return topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
}

func startLive(t *testing.T, cfg Config) *Live {
	t.Helper()
	f, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLiveUnforcedCheckpoints(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{3, 3},
		CLCPeriods: []time.Duration{30 * time.Millisecond, 30 * time.Millisecond},
	})
	settle(f, 200*time.Millisecond)
	f.Stop()

	if v := f.Stat("clc.committed.c0"); v < 3 {
		t.Fatalf("cluster 0 committed %d CLCs in 200ms at 30ms period", v)
	}
	// SN agreement inside each cluster.
	for c := 0; c < 2; c++ {
		sn := f.NodeSN(node(c, 0))
		for i := 1; i < 3; i++ {
			if got := f.NodeSN(node(c, i)); got != sn {
				t.Fatalf("cluster %d SN disagreement: %d vs %d", c, got, sn)
			}
		}
	}
}

func TestLiveForcedCheckpointOnInterClusterMessage(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{time.Hour, time.Hour}, // effectively never
	})
	// First contact piggybacks SN 1 > 0: cluster 1 must force a CLC
	// before delivery, exactly like m1 in the paper's sample.
	f.SendApp(node(0, 1), node(1, 1), 128)
	settle(f, 150*time.Millisecond)
	f.Stop()

	if v := f.Stat("clc.committed.c1.forced"); v != 1 {
		t.Fatalf("forced CLCs in cluster 1 = %d, want 1", v)
	}
	if got := f.DeliveredCount(node(1, 1)); got != 1 {
		t.Fatalf("delivered = %d", got)
	}
	if sn := f.NodeSN(node(1, 0)); sn != 2 {
		t.Fatalf("cluster 1 SN = %d, want 2", sn)
	}
}

func TestLiveCrashRecovery(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{3, 2},
		CLCPeriods: []time.Duration{40 * time.Millisecond, time.Hour},
	})
	// Let a couple of checkpoints commit, then crash a node.
	settle(f, 150*time.Millisecond)
	victim := node(0, 2)
	f.Crash(victim)
	time.Sleep(30 * time.Millisecond)
	if err := f.Recover(victim); err != nil {
		t.Fatal(err)
	}
	settle(f, 300*time.Millisecond)
	f.Stop()

	if v := f.Stat("rollback.count.c0"); v == 0 {
		t.Fatal("no rollback after crash")
	}
	if v := f.Stat("storage.recovered_states"); v == 0 {
		t.Fatal("crashed node did not recover its state from the neighbour")
	}
	if v := f.Stat("invariant.rollback_target_missing"); v != 0 {
		t.Fatalf("invariant violations: %d", v)
	}
	// The cluster converged on one SN again.
	sn := f.NodeSN(node(0, 0))
	for i := 1; i < 3; i++ {
		if got := f.NodeSN(node(0, i)); got != sn {
			t.Fatalf("post-recovery SN disagreement: %d vs %d", got, sn)
		}
	}
}

func TestLiveGarbageCollection(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{25 * time.Millisecond, 25 * time.Millisecond},
		GCPeriod:   120 * time.Millisecond,
	})
	settle(f, 400*time.Millisecond)
	f.Stop()

	if v := f.Stat("gc.rounds_completed"); v == 0 {
		t.Fatal("no GC rounds completed")
	}
	for c := 0; c < 2; c++ {
		for i := 0; i < 2; i++ {
			if got := f.NodeStored(node(c, i)); got > 6 {
				t.Fatalf("node %v stores %d CLCs despite GC", node(c, i), got)
			}
		}
	}
}

func TestLiveMessageDeliveryAndResend(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{30 * time.Millisecond, time.Hour},
	})
	// Traffic in both directions around a crash in the receiving
	// cluster: the sender's log must repair anything the rollback
	// drops.
	for k := 0; k < 5; k++ {
		f.SendApp(node(0, 0), node(1, 1), 64)
		time.Sleep(10 * time.Millisecond)
	}
	f.Crash(node(1, 0))
	time.Sleep(20 * time.Millisecond)
	if err := f.Recover(node(1, 0)); err != nil {
		t.Fatal(err)
	}
	settle(f, 300*time.Millisecond)
	f.Stop()

	// Every message sent by c0n0 must be delivered at c1n1 (resends
	// may duplicate, never lose).
	for seq := uint64(1); seq <= 5; seq++ {
		lid := core.LogicalID{Src: node(0, 0), Seq: seq}
		if f.Delivered(node(1, 1), lid) == 0 {
			t.Fatalf("message %v lost across crash", lid)
		}
	}
}

func TestLiveOverTCPTransport(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{40 * time.Millisecond, time.Hour},
		Transport:  NewTCPTransport(),
	})
	f.SendApp(node(0, 0), node(1, 0), 256)
	f.SendApp(node(1, 1), node(0, 1), 256)
	settle(f, 250*time.Millisecond)
	f.Stop()

	if v := f.Stat("clc.committed.c0"); v == 0 {
		t.Fatal("no checkpoints over TCP")
	}
	if v := f.Stat("clc.committed.c1.forced"); v == 0 {
		t.Fatal("no forced checkpoint over TCP")
	}
	if got := f.DeliveredCount(node(1, 0)); got != 1 {
		t.Fatalf("TCP delivery count = %d", got)
	}
}

func TestLiveTCPCrashRecovery(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{3},
		CLCPeriods: []time.Duration{30 * time.Millisecond},
		Transport:  NewTCPTransport(),
	})
	settle(f, 120*time.Millisecond)
	f.Crash(node(0, 1))
	time.Sleep(20 * time.Millisecond)
	if err := f.Recover(node(0, 1)); err != nil {
		t.Fatal(err)
	}
	settle(f, 300*time.Millisecond)
	f.Stop()

	if v := f.Stat("storage.recovered_states"); v == 0 {
		t.Fatal("no state recovery over TCP")
	}
	sn := f.NodeSN(node(0, 0))
	for i := 1; i < 3; i++ {
		if got := f.NodeSN(node(0, i)); got != sn {
			t.Fatalf("TCP post-recovery SN disagreement: %d vs %d", got, sn)
		}
	}
}

// TestLiveRecoverWithoutSurvivor: a node alone in its cluster has
// nobody to recover its state from, so Recover refuses before touching
// it and the node stays crashed.
func TestLiveRecoverWithoutSurvivor(t *testing.T) {
	f := startLive(t, Config{Clusters: []int{1, 2}})
	victim := node(0, 0)
	f.Crash(victim)
	if err := f.Recover(victim); err == nil {
		t.Fatal("Recover succeeded in a cluster with no survivor")
	}
	f.Quiesce()
	f.Stop()
	if n := f.nodes[victim].node; !n.Failed() || n.LostState() {
		t.Fatalf("after a refused Recover: Failed() = %v, LostState() = %v; want true, false", n.Failed(), n.LostState())
	}
}

func TestLiveStartValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestLiveWorkloadDriver(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{3, 3},
		CLCPeriods: []time.Duration{40 * time.Millisecond, 40 * time.Millisecond},
		Workload:   liveWorkload([]int{3, 3}, &WorkloadFile{PeriodMS: 5, InterProb: 0.2, Size: 128}),
	})
	settle(f, 300*time.Millisecond)
	f.Stop()

	// The driver generated both intra- and inter-cluster traffic: the
	// latter shows up as forced CLCs and acked log entries.
	delivered := 0
	for c := 0; c < 2; c++ {
		for i := 0; i < 3; i++ {
			delivered += f.DeliveredCount(node(c, i))
		}
	}
	if delivered < 20 {
		t.Fatalf("workload generated only %d deliveries", delivered)
	}
	if f.Stat("log.appended") == 0 {
		t.Fatal("no inter-cluster sends logged")
	}
	if f.Stat("clc.committed.c0.forced")+f.Stat("clc.committed.c1.forced") == 0 {
		t.Fatal("no forced CLCs from workload traffic")
	}
}

func TestLiveWorkloadSurvivesCrash(t *testing.T) {
	f := startLive(t, Config{
		Clusters:   []int{3, 2},
		CLCPeriods: []time.Duration{30 * time.Millisecond, 30 * time.Millisecond},
		Workload:   liveWorkload([]int{3, 2}, &WorkloadFile{PeriodMS: 4, InterProb: 0.3, Size: 64}),
	})
	time.Sleep(120 * time.Millisecond)
	f.Crash(node(0, 1))
	time.Sleep(30 * time.Millisecond)
	if err := f.Recover(node(0, 1)); err != nil {
		t.Fatal(err)
	}
	settle(f, 300*time.Millisecond)
	f.Stop()

	if f.Stat("rollback.count.c0") == 0 {
		t.Fatal("no rollback under live workload")
	}
	if f.Stat("invariant.rollback_target_missing") != 0 {
		t.Fatal("invariant violation under live workload")
	}
	sn := f.NodeSN(node(0, 0))
	for i := 1; i < 3; i++ {
		if got := f.NodeSN(node(0, i)); got != sn {
			t.Fatalf("SN disagreement after crash under load: %d vs %d", got, sn)
		}
	}
}

// TestLiveStopRecordIsLast stops a journaled federation in mid-traffic,
// with CLC and GC timers firing every few milliseconds: each node's
// stop record must be its last journal line and carry the final
// counters, which no late timer or inbound message may move.
func TestLiveStopRecordIsLast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	f := startLive(t, Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{3 * time.Millisecond, 3 * time.Millisecond},
		GCPeriod:   10 * time.Millisecond,
		Workload:   liveWorkload([]int{2, 2}, &WorkloadFile{PeriodMS: 1, InterProb: 0.5, Size: 64}),
		Journal:    j,
	})
	// Stop in mid-traffic, once both clusters commit and deliver
	// across the cut.
	for deadline := time.Now().Add(10 * time.Second); f.Stat("clc.committed.c0") < 3 ||
		f.Stat("clc.committed.c1") < 3 || f.Stat("app.delivered.inter") < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("no steady traffic after 10s: %v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	f.Stop()
	final := f.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := oracle.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stops []oracle.Event
	stopped := map[string]bool{}
	for i, ev := range events {
		if stopped[ev.Node] {
			t.Fatalf("%s journaled a %q record after its stop record (line %d of %d)", ev.Node, ev.Kind, i+1, len(events))
		}
		if ev.Kind == "stop" {
			stopped[ev.Node] = true
			stops = append(stops, ev)
		}
	}
	if len(stops) != 4 {
		t.Fatalf("%d nodes journaled a stop record, want 4", len(stops))
	}
	for _, ev := range stops {
		if !reflect.DeepEqual(ev.Stats, final) {
			t.Errorf("%s stop record counters differ from the stopped federation's", ev.Node)
		}
	}
}

// TestLiveJournalSkipsMirrorSends: a journaled 2+2 run with
// inter-cluster traffic journals its control-plane sends but none of
// the message firehose — application messages, their acks, and the log
// mirror and trim that every logged inter-cluster send costs, pooled or
// not — and writes exactly the record kinds a journaled run without
// failures always has.
func TestLiveJournalSkipsMirrorSends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	f := startLive(t, Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{5 * time.Millisecond, 5 * time.Millisecond},
		Workload:   liveWorkload([]int{2, 2}, &WorkloadFile{PeriodMS: 1, InterProb: 0.5, Size: 64}),
		Journal:    j,
	})
	for deadline := time.Now().Add(10 * time.Second); f.Stat("clc.committed.c0") < 3 ||
		f.Stat("clc.committed.c1") < 3 || f.Stat("log.appended") < 20 || f.Stat("app.delivered.inter") < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("no steady inter-cluster traffic after 10s: %v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	f.Stop()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := oracle.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kinds, sent := map[string]bool{}, map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind] = true
		if ev.Kind == "send" {
			sent[ev.Msg]++
		}
	}
	for _, name := range []string{"AppMsg", "AppAck", "LogMirror", "LogTrim"} {
		if sent[name] > 0 {
			t.Errorf("%d send records of %s", sent[name], name)
		}
	}
	if sent["CLCRequest"] == 0 {
		t.Errorf("no send record of a CLCRequest: %v", sent)
	}
	want := map[string]bool{"start": true, "send": true, "commit": true, "deliver": true, "stop": true}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("record kinds %v, want %v", kinds, want)
	}
}
