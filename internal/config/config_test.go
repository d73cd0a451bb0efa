package config

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

const topoText = `
# the §5.2 evaluation topology
clusters = 2
mtbf = 5h

[cluster 0]
name = simulation
nodes = 100
latency = 10us
bandwidth = 80Mbps

[cluster 1]
name = trace-processor
nodes = 100
latency = 10us
bandwidth = 80Mbps

[link 0 1]
latency = 150us
bandwidth = 100Mbps
`

const appText = `
total = 10h
msgsize = 4KB
statesize = 4MB
compute = 2s
deterministic = true

[rates]
0 = 292 14.5
1 = 1.1 249.7
`

const timersText = `
gc = 2h
detection = 2s

[clc]
0 = 30m
1 = forever
`

func TestParseBasics(t *testing.T) {
	f, err := Parse(strings.NewReader("a = 1\n[sec x y]\nb = two # comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Top().Get("a"); v != "1" {
		t.Fatalf("a = %q", v)
	}
	secs := f.Find("sec")
	if len(secs) != 1 || len(secs[0].Args) != 2 {
		t.Fatalf("sections = %+v", secs)
	}
	if v, _ := secs[0].Get("b"); v != "two" {
		t.Fatalf("b = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unterminated": "[sec\n",
		"empty header": "[]\n",
		"no equals":    "justaword\n",
		"empty key":    "= 3\n",
		"duplicate":    "a = 1\na = 2\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadTopology(t *testing.T) {
	fed, err := LoadTopology(strings.NewReader(topoText))
	if err != nil {
		t.Fatal(err)
	}
	if fed.NumClusters() != 2 || fed.NumNodes() != 200 {
		t.Fatalf("federation: %d clusters %d nodes", fed.NumClusters(), fed.NumNodes())
	}
	if fed.Clusters[0].Name != "simulation" {
		t.Fatalf("name = %q", fed.Clusters[0].Name)
	}
	san := fed.Clusters[0].Intra
	if san.Latency != 10*sim.Microsecond || san.Bandwidth != 80e6 {
		t.Fatalf("SAN = %+v", san)
	}
	wan := fed.InterLink(0, 1)
	if wan.Latency != 150*sim.Microsecond || wan.Bandwidth != 100e6 {
		t.Fatalf("WAN = %+v", wan)
	}
	if fed.MTBF != 5*sim.Hour {
		t.Fatalf("MTBF = %v", fed.MTBF)
	}
}

// TestLoadTopologyPerPairLinks: each [link a b] block sets its own
// pair, in either order, and a pair with no block fails validation.
func TestLoadTopologyPerPairLinks(t *testing.T) {
	head := "clusters = 3\n[cluster 0]\nnodes = 1\n[cluster 1]\nnodes = 1\n[cluster 2]\nnodes = 1\n"
	fed, err := LoadTopology(strings.NewReader(head +
		"[link 0 1]\nlatency = 1ms\n[link 2 0]\nlatency = 2ms\nbandwidth = 10Mbps\n[link 1 2]\nlatency = 3ms\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]topology.ClusterID]topology.Link{
		{0, 1}: {Latency: sim.Millisecond, Bandwidth: 100e6},
		{0, 2}: {Latency: 2 * sim.Millisecond, Bandwidth: 10e6},
		{1, 2}: {Latency: 3 * sim.Millisecond, Bandwidth: 100e6},
	}
	for p, l := range want {
		if fed.InterLink(p[0], p[1]) != l || fed.InterLink(p[1], p[0]) != l {
			t.Fatalf("link %v = %+v / %+v, want %+v", p, fed.InterLink(p[0], p[1]), fed.InterLink(p[1], p[0]), l)
		}
	}
	_, err = LoadTopology(strings.NewReader(head + "[link 0 1]\n[link 1 2]\n"))
	if err == nil || !strings.Contains(err.Error(), "between clusters 0 and 2") {
		t.Fatalf("missing [link 0 2]: err = %v, want the pair named", err)
	}
}

func TestLoadTopologyErrors(t *testing.T) {
	cases := map[string]string{
		"no clusters":   "clusters = 0\n",
		"missing block": "clusters = 2\n[cluster 0]\nnodes = 1\n",
		"bad index":     "clusters = 1\n[cluster 5]\nnodes = 1\n",
		"dup cluster":   "clusters = 1\n[cluster 0]\nnodes=1\n[cluster 0]\nnodes=1\n",
		"self link":     "clusters = 1\n[cluster 0]\nnodes=1\n[link 0 0]\n",
		"bad bandwidth": "clusters = 1\n[cluster 0]\nnodes=1\nbandwidth = fast\n",
	}
	for name, text := range cases {
		if _, err := LoadTopology(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadWorkload(t *testing.T) {
	wl, err := LoadWorkload(strings.NewReader(appText), 2)
	if err != nil {
		t.Fatal(err)
	}
	if wl.TotalTime != 10*sim.Hour {
		t.Fatalf("total = %v", wl.TotalTime)
	}
	if wl.MsgSize != 4096 || wl.StateSize != 4<<20 {
		t.Fatalf("sizes = %d %d", wl.MsgSize, wl.StateSize)
	}
	if wl.RatesPerHour[0][0] != 292 || wl.RatesPerHour[1][0] != 1.1 {
		t.Fatalf("rates = %v", wl.RatesPerHour)
	}
	// Calibration matches Table 1 of the paper.
	if got := wl.ExpectedMessages(0, 0); got != 2920 {
		t.Fatalf("expected c0->c0 = %v", got)
	}
	if !wl.Deterministic {
		t.Fatal("deterministic flag lost")
	}
}

func TestLoadWorkloadErrors(t *testing.T) {
	if _, err := LoadWorkload(strings.NewReader("total = 1h\n"), 2); err == nil {
		t.Error("missing rates accepted")
	}
	bad := "total=1h\n[rates]\n0 = 1 2\n"
	if _, err := LoadWorkload(strings.NewReader(bad), 2); err == nil {
		t.Error("missing rate row accepted")
	}
	bad = "total=1h\n[rates]\n0 = 1\n1 = 1 2\n"
	if _, err := LoadWorkload(strings.NewReader(bad), 2); err == nil {
		t.Error("short rate row accepted")
	}
}

func TestLoadTimers(t *testing.T) {
	tm, err := LoadTimers(strings.NewReader(timersText), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tm.CLCPeriods[0] != 30*sim.Minute {
		t.Fatalf("clc0 = %v", tm.CLCPeriods[0])
	}
	if tm.CLCPeriods[1] != sim.Forever {
		t.Fatalf("clc1 = %v", tm.CLCPeriods[1])
	}
	if tm.GCPeriod != 2*sim.Hour || tm.DetectionDelay != 2*sim.Second {
		t.Fatalf("gc = %v det = %v", tm.GCPeriod, tm.DetectionDelay)
	}
}

func TestLoadTimersDefaults(t *testing.T) {
	tm, err := LoadTimers(strings.NewReader(""), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range tm.CLCPeriods {
		if d != 30*sim.Minute {
			t.Fatalf("clc%d default = %v", i, d)
		}
	}
	if tm.GCPeriod != sim.Forever {
		t.Fatalf("gc default = %v", tm.GCPeriod)
	}
}

func TestParseBandwidthAndSize(t *testing.T) {
	for in, want := range map[string]float64{
		"80Mbps": 80e6, "1Gbps": 1e9, "500Kbps": 5e5, "1000": 1000, "9bps": 9,
	} {
		got, err := ParseBandwidth(in)
		if err != nil || got != want {
			t.Errorf("ParseBandwidth(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseBandwidth("-3Mbps"); err == nil {
		t.Error("negative bandwidth accepted")
	}
	for in, want := range map[string]int{
		"4MB": 4 << 20, "64KB": 64 << 10, "1GB": 1 << 30, "100": 100, "12B": 12,
	} {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("bad size accepted")
	}
}

func TestTopologyRoundTripThroughFederation(t *testing.T) {
	fed, err := LoadTopology(strings.NewReader(topoText))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := LoadWorkload(strings.NewReader(appText), fed.NumClusters())
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Validate(fed); err != nil {
		t.Fatal(err)
	}
	if fed.LinkBetween(topology.NodeID{Cluster: 0, Index: 0}, topology.NodeID{Cluster: 1, Index: 0}).Latency != 150*sim.Microsecond {
		t.Fatal("inter link wrong after load")
	}
}
