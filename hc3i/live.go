package hc3i

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/topology"
)

// LiveConfig configures a live federation: real goroutines, wall-clock
// timers and a real transport, running the identical protocol code as
// the simulator. It exists to validate the protocol outside the DES
// ("We need to implement the protocol on a real system to validate
// it", paper §7) and as the starting point for embedding HC3I in an
// actual runtime.
type LiveConfig struct {
	// Clusters is the node count per cluster.
	Clusters []int
	// CLCPeriods is the wall-clock delay between unforced CLCs per
	// cluster (default 50 ms).
	CLCPeriods []time.Duration
	// GCPeriod enables garbage collection (0 = off).
	GCPeriod time.Duration
	// Replicas is the stable-storage replication degree (default 1).
	Replicas int
	// UseTCP selects the loopback TCP transport (the runtime's binary
	// envelope codec) instead of in-process channels.
	UseTCP bool
	// Trace, when non-nil, receives protocol trace output.
	Trace io.Writer
}

// LiveFederation is a running live federation.
type LiveFederation struct {
	inner *runtime.Live
}

// StartLive boots a live federation; always Stop it.
func StartLive(cfg LiveConfig) (*LiveFederation, error) {
	rc := runtime.Config{
		Clusters:   cfg.Clusters,
		CLCPeriods: cfg.CLCPeriods,
		GCPeriod:   cfg.GCPeriod,
		Replicas:   cfg.Replicas,
		Trace:      cfg.Trace,
	}
	if cfg.UseTCP {
		rc.Transport = runtime.NewTCPTransport()
	}
	l, err := runtime.Start(rc)
	if err != nil {
		return nil, err
	}
	return &LiveFederation{inner: l}, nil
}

// Send injects one application message of the given size from node
// (srcCluster, srcNode) to node (dstCluster, dstNode).
func (f *LiveFederation) Send(srcCluster, srcNode, dstCluster, dstNode, size int) {
	f.inner.SendApp(
		topology.NodeID{Cluster: topology.ClusterID(srcCluster), Index: srcNode},
		topology.NodeID{Cluster: topology.ClusterID(dstCluster), Index: dstNode},
		size,
	)
}

// Crash fail-stops a node.
func (f *LiveFederation) Crash(cluster, node int) {
	f.inner.Crash(topology.NodeID{Cluster: topology.ClusterID(cluster), Index: node})
}

// Recover restarts a crashed node and triggers the failure detector.
func (f *LiveFederation) Recover(cluster, node int) error {
	return f.inner.Recover(topology.NodeID{Cluster: topology.ClusterID(cluster), Index: node})
}

// Quiesce barriers through every node's event loop.
func (f *LiveFederation) Quiesce() { f.inner.Quiesce() }

// Counter reads a protocol statistic (e.g. "clc.committed.c0").
func (f *LiveFederation) Counter(name string) uint64 { return f.inner.Stat(name) }

// SN reads a node's cluster sequence number; call after Quiesce or
// Stop for a settled value.
func (f *LiveFederation) SN(cluster, node int) uint64 {
	return uint64(f.inner.NodeSN(topology.NodeID{Cluster: topology.ClusterID(cluster), Index: node}))
}

// Stop halts the federation; its state stays readable afterwards.
func (f *LiveFederation) Stop() { f.inner.Stop() }

// String summarizes per-cluster checkpoint counters.
func (f *LiveFederation) String() string {
	s := ""
	for c := 0; ; c++ {
		name := fmt.Sprintf("clc.committed.c%d", c)
		v := f.inner.Stat(name)
		if v == 0 && c > 0 {
			break
		}
		if c > 0 {
			s += ", "
		}
		s += fmt.Sprintf("c%d: %d CLCs (%d forced)", c, v, f.inner.Stat(name+".forced"))
		if c > 16 {
			break
		}
	}
	return s
}

var _ = core.SN(0) // core types appear in the public live surface via counters
