package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Coverage for the per-node state that is sparse in the federation's
// width: the dirty-set bitset, the epoch table and what NewNode
// allocates.

// TestDirtySetMatchesBoolReference: random Add, Reset and Refresh
// sequences leave the bitset-backed set with exactly the indices, in
// exactly the first-marked order, that a []bool-marked reference holds.
func TestDirtySetMatchesBoolReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 63, 64, 65, 200, 1024} {
		var s DirtySet
		s.Init(width)
		mark := make([]bool, width)
		var order []int32
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				s.Reset()
				clear(mark)
				order = order[:0]
			case op == 1:
				keep := func(i int) bool { return (i*31+step)%3 != 0 }
				s.Refresh(keep)
				kept := order[:0]
				for _, i := range order {
					if keep(int(i)) {
						kept = append(kept, i)
					} else {
						mark[i] = false
					}
				}
				order = kept
			default:
				i := rng.Intn(width)
				s.Add(i)
				if !mark[i] {
					mark[i] = true
					order = append(order, int32(i))
				}
			}
			if !slices.Equal(s.Indices(), order) || s.Len() != len(order) {
				t.Fatalf("width %d step %d: set %v, reference %v", width, step, s.Indices(), order)
			}
		}
	}
}

// TestEpochTableMatchesDenseReference: random known-epoch raises and
// sets, rollback alerts and restarts read back exactly what three dense
// per-cluster arrays hold, and the table keeps entries only for
// clusters that left epoch 0.
func TestEpochTableMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const width = 64
	var tab epochTable
	known := make([]Epoch, width)
	alertEpoch := make([]Epoch, width)
	alertSN := make([]SN, width)
	rolled := make([]bool, width) // left epoch 0 since the last restart
	for step := 0; step < 20000; step++ {
		c := topology.ClusterID(rng.Intn(width))
		e := Epoch(rng.Intn(6))
		switch op := rng.Intn(40); {
		case op == 0:
			tab.reset()
			clear(known)
			clear(alertEpoch)
			clear(alertSN)
			clear(rolled)
		case op < 14:
			tab.raiseKnown(c, e)
			if e > known[c] {
				known[c] = e
			}
		case op < 20:
			tab.setKnown(c, e)
			known[c] = e
		default:
			sn := SN(rng.Intn(100))
			tab.raiseAlert(c, e, sn)
			if e > alertEpoch[c] {
				alertEpoch[c], alertSN[c] = e, sn
			}
		}
		rolled[c] = rolled[c] || known[c] != 0 || alertEpoch[c] != 0
		for i := range known {
			c := topology.ClusterID(i)
			ae, asn := tab.alert(c)
			if tab.known(c) != known[i] || ae != alertEpoch[i] || asn != alertSN[i] {
				t.Fatalf("step %d cluster %d: table (%d, %d, %d), reference (%d, %d, %d)",
					step, i, tab.known(c), ae, asn, known[i], alertEpoch[i], alertSN[i])
			}
		}
		for i, en := range tab.entries {
			if i > 0 && tab.entries[i-1].cluster >= en.cluster {
				t.Fatalf("step %d: entries out of order: %+v", step, tab.entries)
			}
			if !rolled[en.cluster] {
				t.Fatalf("step %d: entry for cluster %d, which never left epoch 0", step, en.cluster)
			}
		}
	}
}

// nullEnv is the least core.Env a node can be built on.
type nullEnv struct{}

func (nullEnv) Now() sim.Time                     { return 0 }
func (nullEnv) Send(topology.NodeID, int, Msg)    {}
func (nullEnv) SendApp(topology.NodeID, int, Msg) {}
func (nullEnv) SetTimer(TimerKind, sim.Duration)  {}

// TestNewNodeAllocatesThreeVectors: a node of a 1024-cluster federation
// starts with three width-sized vectors (its DDV, the commit base and
// the chain anchor) and small change. Epochs and dirty marks cost
// nothing width-sized until used; forced-CLC demands and prepare acks
// never do.
func TestNewNodeAllocatesThreeVectors(t *testing.T) {
	const width = 1024
	sizes := make([]int, width)
	for i := range sizes {
		sizes[i] = 2
	}
	cfg := Config{
		ID:           topology.NodeID{Cluster: 7, Index: 0},
		Clusters:     width,
		ClusterSizes: sizes,
		CLCPeriod:    sim.Forever,
		GCPeriod:     sim.Forever,
		Replicas:     1,
		Transitive:   true,
	}
	const vector = width * 8 // bytes of one DDV
	const smallChange = 6 << 10
	NewNode(cfg, nullEnv{}, &mockApp{}) // warm up one-time allocations
	var before, after runtime.MemStats
	const runs = 10
	nodes := make([]*Node, runs)
	runtime.ReadMemStats(&before)
	for i := range nodes {
		nodes[i] = NewNode(cfg, nullEnv{}, &mockApp{})
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(nodes)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	if per > 3*vector+smallChange {
		t.Fatalf("NewNode at width %d allocated %d bytes, want at most 3 vectors (%d) + %d",
			width, per, 3*vector, smallChange)
	}
}
