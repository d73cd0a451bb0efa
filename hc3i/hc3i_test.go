package hc3i_test

import (
	"strings"
	"testing"
	"time"

	"repro/hc3i"
	"repro/internal/federation"
)

func smallConfig() hc3i.Config {
	return hc3i.Config{
		Clusters: []hc3i.Cluster{
			{Name: "simulation", Nodes: 4},
			{Name: "display", Nodes: 4},
		},
		TotalTime:    time.Hour,
		RatesPerHour: [][]float64{{600, 20}, {5, 600}},
		CLCPeriods:   []time.Duration{10 * time.Minute, 10 * time.Minute},
		StateSize:    64 << 10,
		Seed:         1,
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := hc3i.Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	if res.Clusters[0].Name != "simulation" {
		t.Fatalf("name = %q", res.Clusters[0].Name)
	}
	if res.Clusters[0].Committed == 0 {
		t.Fatal("no checkpoints committed")
	}
	if res.AppMessages[0][0] == 0 || res.AppMessages[0][1] == 0 {
		t.Fatalf("traffic = %v", res.AppMessages)
	}
	if res.EndTime < time.Hour {
		t.Fatalf("ended at %v", res.EndTime)
	}
	if res.Counter("net.sent") == 0 {
		t.Fatal("raw counters unavailable")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := hc3i.Run(hc3i.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := smallConfig()
	cfg.Protocol = "bogus"
	if _, err := hc3i.Run(cfg); err == nil {
		t.Fatal("bogus protocol accepted")
	}
	cfg = smallConfig()
	cfg.RatesPerHour = [][]float64{{1}}
	if _, err := hc3i.Run(cfg); err == nil {
		t.Fatal("bad rate matrix accepted")
	}
}

func TestRunWithCrashAndGC(t *testing.T) {
	cfg := smallConfig()
	cfg.GCPeriod = 20 * time.Minute
	cfg.Crashes = []hc3i.Crash{{At: 25 * time.Minute, Cluster: 0, Node: 1}}
	res, err := hc3i.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d", res.Failures)
	}
	if res.Clusters[0].Rollbacks == 0 {
		t.Fatal("no rollback recorded")
	}
	if len(res.GCRounds) == 0 {
		t.Fatal("no GC rounds")
	}
}

func TestRunForeverTimer(t *testing.T) {
	cfg := smallConfig()
	cfg.RatesPerHour = [][]float64{{600, 0}, {0, 600}} // no inter traffic
	cfg.CLCPeriods = []time.Duration{10 * time.Minute, hc3i.Forever}
	res, err := hc3i.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters[1].Committed != 0 {
		t.Fatalf("cluster with Forever timer committed %d CLCs", res.Clusters[1].Committed)
	}
}

func TestAllProtocolsRun(t *testing.T) {
	for _, p := range []hc3i.Protocol{
		hc3i.HC3I, hc3i.ForceAll, hc3i.Independent,
		hc3i.GlobalCoordinated, hc3i.HierCoordinated, hc3i.PessimisticLog,
	} {
		cfg := smallConfig()
		cfg.Protocol = p
		res, err := hc3i.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var committed uint64
		for _, c := range res.Clusters {
			committed += c.Committed
		}
		if committed == 0 {
			t.Fatalf("%s: no checkpoints", p)
		}
	}
}

// TestProtocolConstantsAreTheRegistry: every Protocol constant resolves
// in the one protocol registry, and the registry names nothing the
// public API lacks a constant for.
func TestProtocolConstantsAreTheRegistry(t *testing.T) {
	consts := []hc3i.Protocol{
		hc3i.HC3I, hc3i.ForceAll, hc3i.Independent,
		hc3i.GlobalCoordinated, hc3i.HierCoordinated, hc3i.PessimisticLog,
	}
	names := federation.ProtocolNames()
	if len(names) != len(consts) {
		t.Fatalf("registry has %v, the API has %v", names, consts)
	}
	for _, p := range consts {
		if _, err := federation.ProtocolFactory(string(p)); err != nil {
			t.Errorf("hc3i.Protocol %q: %v", p, err)
		}
	}
}

func TestTraceOutput(t *testing.T) {
	cfg := smallConfig()
	var sb strings.Builder
	cfg.Trace = &sb
	cfg.TraceLevel = "debug"
	if _, err := hc3i.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CLC") {
		t.Fatal("trace has no checkpoint records")
	}
}

func TestDeterminismThroughFacade(t *testing.T) {
	a, err := hc3i.Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := hc3i.Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("same config diverged: %d vs %d events", a.Events, b.Events)
	}
}

func TestExperimentRegistryThroughFacade(t *testing.T) {
	infos := hc3i.Experiments()
	if len(infos) < 13 {
		t.Fatalf("experiments = %d, want >= 13", len(infos))
	}
	res, err := hc3i.RunExperiment("T1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "T1") || !strings.Contains(out, "Cluster 0") {
		t.Fatalf("render:\n%s", out)
	}
	if _, err := hc3i.RunExperiment("nope", 1, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
