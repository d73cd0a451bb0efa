package netsim

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func testNet(t *testing.T, nClusters, nodesPer int) (*sim.Engine, *Network, *topology.Federation) {
	t.Helper()
	e := sim.NewEngine()
	fed := topology.Small(nClusters, nodesPer)
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
	n := New(e, fed, sim.NewStats(), nil)
	return e, n, fed
}

func TestDeliveryTiming(t *testing.T) {
	e, n, fed := testNet(t, 2, 2)
	src := topology.NodeID{Cluster: 0, Index: 0}
	dst := topology.NodeID{Cluster: 0, Index: 1}
	var at sim.Time
	n.Register(dst, func(m Message) { at = e.Now() })
	n.Register(src, func(Message) {})

	const size = 1000
	n.Send(src, dst, KindApp, size, "x")
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(0).Add(fed.Clusters[0].Intra.Delay(size))
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestFIFOSerializationPerLink(t *testing.T) {
	e, n, fed := testNet(t, 2, 2)
	src := topology.NodeID{Cluster: 0, Index: 0}
	dst := topology.NodeID{Cluster: 1, Index: 0}
	var order []int
	var times []sim.Time
	n.Register(dst, func(m Message) {
		order = append(order, m.Payload.(int))
		times = append(times, e.Now())
	})
	n.Register(src, func(Message) {})

	const size = 10000
	n.Send(src, dst, KindApp, size, 1)
	n.Send(src, dst, KindApp, size, 2)
	n.Send(src, dst, KindApp, size, 3)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	// Messages queue behind each other: arrival k = k*transmit + latency.
	link := fed.InterLink(0, 1)
	tx := link.TransmitTime(size)
	for k, at := range times {
		want := sim.Time(0).Add(tx.Scale(float64(k+1)) + link.Latency)
		if at != want {
			t.Fatalf("message %d delivered at %v, want %v", k+1, at, want)
		}
	}
}

func TestIndependentLinksDoNotQueue(t *testing.T) {
	e, n, _ := testNet(t, 2, 2)
	a := topology.NodeID{Cluster: 0, Index: 0}
	b := topology.NodeID{Cluster: 0, Index: 1}
	c := topology.NodeID{Cluster: 1, Index: 0}
	var times []sim.Time
	handler := func(m Message) { times = append(times, e.Now()) }
	n.Register(b, handler)
	n.Register(c, handler)
	n.Register(a, func(Message) {})

	// One intra and one inter message from the same source use different
	// serialization resources, so neither delays the other.
	n.Send(a, b, KindApp, 1000, nil)
	n.Send(a, c, KindApp, 1000, nil)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
}

func TestDownNodeSemantics(t *testing.T) {
	e, n, _ := testNet(t, 2, 2)
	a := topology.NodeID{Cluster: 0, Index: 0}
	b := topology.NodeID{Cluster: 0, Index: 1}
	got := 0
	n.Register(b, func(Message) { got++ })
	n.Register(a, func(Message) {})

	// Message already in flight when the destination dies: dropped.
	n.Send(a, b, KindApp, 100, nil)
	n.SetDown(b, true)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("message delivered to a down node")
	}
	if !n.Down(b) {
		t.Fatal("Down not reported")
	}

	// A down source sends nothing.
	n.SetDown(a, true)
	n.Send(a, b, KindApp, 100, nil)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if v := n.Stats().CounterValue("net.dropped.src_down"); v != 1 {
		t.Fatalf("src_down drops = %d", v)
	}

	// After repair, traffic flows again.
	n.SetDown(a, false)
	n.SetDown(b, false)
	n.Send(a, b, KindApp, 100, nil)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("deliveries after repair = %d", got)
	}
}

func TestBroadcastReachesWholeClusterOnly(t *testing.T) {
	e, n, fed := testNet(t, 2, 4)
	src := topology.NodeID{Cluster: 0, Index: 1}
	recv := make(map[topology.NodeID]int)
	for _, id := range fed.AllNodes() {
		id := id
		n.Register(id, func(Message) { recv[id]++ })
	}
	n.Broadcast(src, KindProto, 64, "clc-request")
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range fed.AllNodes() {
		want := 0
		if id.Cluster == src.Cluster && id != src {
			want = 1
		}
		if recv[id] != want {
			t.Fatalf("node %v received %d, want %d", id, recv[id], want)
		}
	}
}

func TestAccounting(t *testing.T) {
	e, n, _ := testNet(t, 2, 2)
	a := topology.NodeID{Cluster: 0, Index: 0}
	b := topology.NodeID{Cluster: 1, Index: 0}
	n.Register(a, func(Message) {})
	n.Register(b, func(Message) {})
	n.Send(a, b, KindApp, 500, nil)
	n.Send(a, b, KindProto, 100, nil)
	n.Send(b, a, KindApp, 200, nil)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := n.AppMessages(0, 1); got != 1 {
		t.Fatalf("app msgs 0->1 = %d", got)
	}
	if got := n.AppMessages(1, 0); got != 1 {
		t.Fatalf("app msgs 1->0 = %d", got)
	}
	st := n.Stats()
	if v := st.CounterValue("net.sent.proto"); v != 1 {
		t.Fatalf("proto msgs = %d", v)
	}
	if v := st.CounterValue("net.bytes.app"); v != 700 {
		t.Fatalf("app bytes = %d", v)
	}
	if v := st.CounterValue("net.delivered"); v != 3 {
		t.Fatalf("delivered = %d", v)
	}
}

func TestSendPanics(t *testing.T) {
	_, n, _ := testNet(t, 1, 2)
	a := topology.NodeID{Cluster: 0, Index: 0}
	mustPanic(t, "self-send", func() { n.Send(a, a, KindApp, 1, nil) })
	mustPanic(t, "invalid dst", func() {
		n.Send(a, topology.NodeID{Cluster: 9, Index: 0}, KindApp, 1, nil)
	})
	n.Register(a, func(Message) {})
	mustPanic(t, "double register", func() { n.Register(a, func(Message) {}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// TestPairTableKeepsEveryPair: the per-pair state table finds every
// pair it was given, with what was stored for it, across the growths a
// thousand pairs of a 1024-cluster federation cause. (The table's load
// factor is pinned in package topology.)
func TestPairTableKeepsEveryPair(t *testing.T) {
	var tab topology.PairTable[pairState]
	counters := make([]sim.Counter, 1000)
	pair := func(i int) int { return (i*7919)%1024*1024 + (i*104729)%1024 }
	for i := range counters {
		p := tab.Get(pair(i))
		p.counters[evSent][KindApp] = &counters[i]
		p.seq = uint64(i)
	}
	for i := range counters {
		p := tab.Get(pair(i))
		if got := p.counters[evSent][KindApp]; got != &counters[i] || p.seq != uint64(i) {
			t.Fatalf("pair %d: found %p seq %d, stored %p seq %d", pair(i), got, p.seq, &counters[i], i)
		}
	}
	if tab.Len() != len(counters) {
		t.Fatalf("%d pairs, want %d", tab.Len(), len(counters))
	}
}

// TestWideSetupAllocatesLinear: assembling the topology and the network
// of a 1024-cluster federation allocates state for its nodes and for
// no cluster pair, since pairs get state when they first carry
// traffic. A width-squared table of any kind is megabytes here.
func TestWideSetupAllocatesLinear(t *testing.T) {
	clusters := make([]topology.Cluster, 1024)
	for i := range clusters {
		clusters[i] = topology.Cluster{Nodes: 2, Intra: topology.MyrinetLike()}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fed := topology.New(clusters...)
	fed.SetAllInterLinks(topology.EthernetLike())
	n := New(sim.NewEngine(), fed, nil, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("topology.New + SetAllInterLinks + netsim.New at 1024 clusters allocated %d bytes, want < 1 MiB", got)
	}
}
