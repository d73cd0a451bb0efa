package runtime

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/topology"
)

func openTestJournal(t testing.TB) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func readJournal(t *testing.T, path string) []oracle.Event {
	t.Helper()
	evs, err := oracle.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestJournalStampsStrictlyIncrease: an unstamped record gets the wall
// clock, and a stamp equal to or behind the previous one is moved just
// past it.
func TestJournalStampsStrictlyIncrease(t *testing.T) {
	j, path := openTestJournal(t)
	for _, ts := range []int64{1000, 1000, 500, 0, 5} {
		j.Event(oracle.Event{T: ts, Node: "c0n0", Kind: "suspect"})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	evs := readJournal(t, path)
	if len(evs) != 5 {
		t.Fatalf("read %d records, want 5", len(evs))
	}
	if evs[0].T != 1000 || evs[1].T != 1001 || evs[2].T != 1002 {
		t.Errorf("stamps %d, %d, %d; want 1000, 1001, 1002", evs[0].T, evs[1].T, evs[2].T)
	}
	if evs[3].T < 1e18 || evs[4].T != evs[3].T+1 {
		t.Errorf("unstamped record got %d, then a stale one %d", evs[3].T, evs[4].T)
	}
}

// TestJournalWriteErrorIsSticky: a failed write loses the record, the
// journal carries on, and Close reports the first failure.
func TestJournalWriteErrorIsSticky(t *testing.T) {
	j, _ := openTestJournal(t)
	j.lj.Close() // every write from here on fails
	j.Event(oracle.Event{Node: "c0n0", Kind: "suspect"})
	j.Event(oracle.Event{Node: "c0n1", Kind: "suspect"})
	if err := j.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v, want the first write's %v", err, os.ErrClosed)
	}
}

// TestJournalReopenAfterTornTail: a daemon killed mid-line leaves a
// torn tail; its successor's journal drops it and appends whole lines.
func TestJournalReopenAfterTornTail(t *testing.T) {
	j, path := openTestJournal(t)
	j.Event(oracle.Event{T: 10, Node: "c0n0", Kind: "suspect"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":11,"node":"c0`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if j, err = OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	j.Event(oracle.Event{T: 12, Node: "c0n1", Kind: "suspect"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	evs := readJournal(t, path)
	if len(evs) != 2 || evs[0].Node != "c0n0" || evs[1].Node != "c0n1" || evs[1].T != 12 {
		t.Fatalf("after a torn tail read back %+v", evs)
	}
}

// TestJournalReadsBackEveryRecord: every kind of record the runtime
// writes comes back from oracle.ReadJournalFile field for field.
func TestJournalReadsBackEveryRecord(t *testing.T) {
	names := topology.NewNameTable([]int{3, 2})
	id, peer := topology.NodeID{Cluster: 1}, topology.NodeID{Cluster: 0, Index: 2}
	v := core.DDV{4, 2}
	var want []oracle.Event
	for _, ev := range []core.Event{
		{Kind: core.EventNodeStart, Mode: core.ModeForceAll},
		{Kind: core.EventCLCCommitted, Seq: 4, Epoch: 1, DDV: v, Forced: true},
		{Kind: core.EventRestore, Seq: 3, Epoch: 2, DDV: v},
		{Kind: core.EventDeliver, Peer: peer, PeerEpoch: 1, Seq: 7, Epoch: 2, SN: 5},
		{Kind: core.EventGCDrop, Round: 3, DDV: v},
	} {
		rec, _ := oracle.Record(names, id, ev)
		if rec.Kind == "start" {
			rec.Clusters, rec.Recovering = []int{3, 2}, true
		}
		want = append(want, rec)
	}
	want = append(want,
		oracle.Event{Node: "c1n0", Kind: "send", Dst: "c1n1", Msg: "CLCRequest"},
		oracle.Event{Node: "c1n0", Kind: "drop", Dst: "c0n2", Msg: "ForceCLC"},
		oracle.Event{Node: "c1n0", Kind: "hello", Dst: "c1n1"},
		oracle.Event{Node: "c1n1", Kind: "hello", Src: "c1n0"},
		oracle.Event{Node: "c0n2", Kind: "suspect"},
		oracle.Event{Node: "c1n0", Kind: "stop", Stats: map[string]uint64{"live.send_dropped": 3, "core.clc_committed": 12}},
	)
	j, path := openTestJournal(t)
	for i := range want {
		want[i].T = int64(100 + i)
		j.Event(want[i])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readJournal(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("read back\n%+v\nwant\n%+v", got, want)
	}
}

// journaledNode is one node of a 2+2 federation whose environment has
// the journal on and the trace off, as a daemon runs.
func journaledNode(t testing.TB) liveEnv {
	j, _ := openTestJournal(t)
	t.Cleanup(func() { j.Close() })
	return journaledNodeOn(j)
}

// journaledNodeOn is journaledNode writing to j.
func journaledNodeOn(j *Journal) liveEnv {
	clusters := []int{2, 2}
	f := &Live{cfg: Config{Clusters: clusters}, stats: &liveStats{counters: map[string]uint64{}},
		journal: j, names: topology.NewNameTable(clusters)}
	id := topology.NodeID{Cluster: 1, Index: 1}
	return liveEnv{&liveNode{id: id, fed: f, names: core.NewStatNames(id.Cluster)}}
}

var journaledDelivery = core.Event{Kind: core.EventDeliver, Peer: topology.NodeID{Cluster: 0, Index: 1},
	PeerEpoch: 3, Seq: 1234, Epoch: 2, SN: 567}

// TestJournaledDeliveryAllocatesNothing: once the journal's buffer has
// grown, an inter-cluster delivery is counted, mapped and journaled
// without one allocation.
func TestJournaledDeliveryAllocatesNothing(t *testing.T) {
	env := journaledNode(t)
	env.Event(journaledDelivery)
	if allocs := testing.AllocsPerRun(1000, func() { env.Event(journaledDelivery) }); allocs != 0 {
		t.Fatalf("a journaled delivery costs %v allocations, want 0", allocs)
	}
}

// BenchmarkJournalEvent: one journaled inter-cluster delivery through
// the node's environment, the live journal's bulk.
func BenchmarkJournalEvent(b *testing.B) {
	env := journaledNode(b)
	env.Event(journaledDelivery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Event(journaledDelivery)
	}
}

// TestJournalDropNamesPooledMirror: a pooled LogMirror the transport
// refuses is journaled as a drop of a LogMirror, as its value form is.
func TestJournalDropNamesPooledMirror(t *testing.T) {
	j, path := openTestJournal(t)
	env := journaledNodeOn(j)
	env.n.fed.transport = NewChanTransport() // no node registered: every send is refused
	dst := topology.NodeID{Cluster: 1, Index: 0}
	env.Send(dst, 0, &core.LogMirror{Owner: env.n.id, MsgID: 7, Dst: topology.NodeID{Cluster: 0, Index: 1}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want := []oracle.Event{{Node: "c1n1", Kind: "drop", Dst: "c1n0", Msg: "LogMirror"}}
	got := readJournal(t, path)
	for i := range got {
		got[i].T = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journaled %+v, want %+v", got, want)
	}
}
