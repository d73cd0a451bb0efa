package runtime

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/app"
	"repro/internal/sim"
	"repro/internal/topology"
)

// WorkloadFile is the JSON form of a live workload (see liveWorkload):
// every node sends on average one message every PeriodMS, a share
// InterProb of them to other clusters, each Size bytes.
type WorkloadFile struct {
	PeriodMS  int     `json:"period_ms"`
	InterProb float64 `json:"inter_prob"`
	Size      int     `json:"size"`
}

// FederationFile is the on-disk topology a multi-process federation
// shares: every hc3id daemon loads the same file and finds its peers
// in Addrs. See cmd/hc3id for the full format documentation.
type FederationFile struct {
	// Clusters is the node count per cluster.
	Clusters []int `json:"clusters"`
	// Addrs maps every node ("c0n1") to its TCP listen address.
	Addrs map[string]string `json:"addrs"`
	// CLCPeriodMS is the wall-clock delay between unforced CLCs
	// (default 50 ms), applied to every cluster.
	CLCPeriodMS int `json:"clc_period_ms,omitempty"`
	// GCPeriodMS enables garbage collection (0 = off).
	GCPeriodMS int `json:"gc_period_ms,omitempty"`
	// Replicas is the stable-storage replication degree (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Workload, when non-nil, makes every daemon generate automatic
	// application traffic.
	Workload *WorkloadFile `json:"workload,omitempty"`
}

// LoadFederationFile reads and validates a federation config file.
func LoadFederationFile(path string) (*FederationFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f FederationFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("runtime: %s: %v", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %s: %v", path, err)
	}
	return &f, nil
}

// Validate checks the shape: at least one cluster, every node of the
// topology addressed, no stray addresses.
func (f *FederationFile) Validate() error {
	if len(f.Clusters) == 0 {
		return fmt.Errorf("no clusters")
	}
	total := 0
	for c, size := range f.Clusters {
		if size <= 0 {
			return fmt.Errorf("cluster %d has %d nodes", c, size)
		}
		total += size
	}
	addrs, err := f.AddrMap()
	if err != nil {
		return err
	}
	for c, size := range f.Clusters {
		for i := 0; i < size; i++ {
			id := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
			if addrs[id] == "" {
				return fmt.Errorf("node %v has no address", id)
			}
		}
	}
	if len(addrs) != total {
		return fmt.Errorf("%d addresses for a %d-node federation", len(addrs), total)
	}
	if w := f.Workload; w != nil {
		switch {
		case w.PeriodMS <= 0:
			return fmt.Errorf("workload period_ms %d is not positive", w.PeriodMS)
		case !(w.InterProb >= 0 && w.InterProb <= 1):
			return fmt.Errorf("workload inter_prob %v outside [0, 1]", w.InterProb)
		case w.Size <= 0:
			return fmt.Errorf("workload size %d is not positive", w.Size)
		}
	}
	return nil
}

// AddrMap parses Addrs into transport form.
func (f *FederationFile) AddrMap() (map[topology.NodeID]string, error) {
	out := make(map[topology.NodeID]string, len(f.Addrs))
	for key, addr := range f.Addrs {
		id, err := topology.ParseNodeID(key)
		if err != nil {
			return nil, err
		}
		if c := int(id.Cluster); c >= len(f.Clusters) || id.Index >= f.Clusters[c] {
			return nil, fmt.Errorf("address for %v, which the topology does not contain", id)
		}
		out[id] = addr
	}
	return out, nil
}

// RuntimeConfig translates the file into a live Config for the given
// hosted subset (nil = all nodes in-process). Transport and Journal
// stay for the caller to fill in.
func (f *FederationFile) RuntimeConfig(local []topology.NodeID) Config {
	cfg := Config{
		Clusters:   append([]int(nil), f.Clusters...),
		Replicas:   f.Replicas,
		LocalNodes: local,
	}
	if f.CLCPeriodMS > 0 {
		cfg.CLCPeriods = make([]time.Duration, len(f.Clusters))
		for i := range cfg.CLCPeriods {
			cfg.CLCPeriods[i] = time.Duration(f.CLCPeriodMS) * time.Millisecond
		}
	}
	if f.GCPeriodMS > 0 {
		cfg.GCPeriod = time.Duration(f.GCPeriodMS) * time.Millisecond
	}
	if f.Workload != nil {
		cfg.Workload = liveWorkload(f.Clusters, f.Workload)
	}
	return cfg
}

// liveWorkload maps a WorkloadFile onto the rate matrix app.NodeApp
// draws its Poisson schedule from; nil gives an all-zero matrix, so the
// nodes send only what SendApp injects. Each node sends one message per
// period on average. A share InterProb of a cluster's sends is spread
// evenly over the other clusters; the rest stays inside it, except in a
// one-node cluster. The workload is open-ended and deterministic, and
// prices a checkpoint at 1024 bytes of application state.
func liveWorkload(clusters []int, w *WorkloadFile) *app.Workload {
	n := len(clusters)
	wl := &app.Workload{TotalTime: sim.Forever, RatesPerHour: make([][]float64, n),
		MsgSize: 1, StateSize: 1024, Deterministic: true}
	for i, size := range clusters {
		wl.RatesPerHour[i] = make([]float64, n)
		if w == nil {
			continue
		}
		wl.MsgSize = w.Size
		total := float64(size) * float64(time.Hour) / float64(time.Duration(w.PeriodMS)*time.Millisecond)
		out := total * w.InterProb
		if n == 1 {
			out = 0
		}
		for j := range wl.RatesPerHour[i] {
			switch {
			case j != i:
				wl.RatesPerHour[i][j] = out / float64(n-1)
			case size > 1:
				wl.RatesPerHour[i][i] = total - out
			}
		}
	}
	return wl
}
