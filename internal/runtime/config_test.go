package runtime

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// writeFedFile writes a two-node federation config with the given
// workload object (raw JSON) and returns its path.
func writeFedFile(t *testing.T, workload string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fed.json")
	body := `{
  "clusters": [1, 1],
  "addrs": {"c0n0": "127.0.0.1:7700", "c1n0": "127.0.0.1:7710"},
  "workload": ` + workload + `
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadFederationFileChecksWorkload: a workload the daemons could
// not run is a config error naming the field, not a crash at boot.
func TestLoadFederationFileChecksWorkload(t *testing.T) {
	for workload, field := range map[string]string{
		`{"inter_prob": 0.3, "size": 256}`:                  "period_ms",
		`{"period_ms": -5, "inter_prob": 0.3, "size": 256}`: "period_ms",
		`{"period_ms": 5, "inter_prob": 1.5, "size": 256}`:  "inter_prob",
		`{"period_ms": 5, "inter_prob": -0.1, "size": 256}`: "inter_prob",
		`{"period_ms": 5, "inter_prob": 0.3}`:               "size",
		`{"period_ms": 5, "inter_prob": 0.3, "size": -1}`:   "size",
	} {
		_, err := LoadFederationFile(writeFedFile(t, workload))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("workload %s: err %v, want one naming %s", workload, err, field)
		}
	}
	if _, err := LoadFederationFile(writeFedFile(t, `{"period_ms": 5, "inter_prob": 1, "size": 256}`)); err != nil {
		t.Errorf("valid workload refused: %v", err)
	}
}

// TestWorkloadFileMapping: period_ms, inter_prob and size become the
// rate matrix, message size and state size the mapping defines. Each
// node sends 3600 s / 5 ms = 720 000 messages an hour; 30 % of a
// cluster's sends go to the only other cluster, the rest stay inside
// it, except in a one-node cluster, which has no intra-cluster rate.
func TestWorkloadFileMapping(t *testing.T) {
	w := &WorkloadFile{PeriodMS: 5, InterProb: 0.3, Size: 256}
	fed := FederationFile{Clusters: []int{3, 2}, Workload: w}
	wl := fed.RuntimeConfig(nil).Workload
	want := [][]float64{
		{3 * 720_000 * 0.7, 3 * 720_000 * 0.3},
		{2 * 720_000 * 0.3, 2 * 720_000 * 0.7},
	}
	if !reflect.DeepEqual(wl.RatesPerHour, want) {
		t.Errorf("RatesPerHour = %v, want %v", wl.RatesPerHour, want)
	}
	if wl.MsgSize != 256 || wl.StateSize != 1024 {
		t.Errorf("MsgSize %d, StateSize %d; want 256, 1024", wl.MsgSize, wl.StateSize)
	}
	if !wl.Deterministic || wl.TotalTime != sim.Forever {
		t.Errorf("Deterministic %v, TotalTime %v; want a deterministic, open-ended workload", wl.Deterministic, wl.TotalTime)
	}

	wl = liveWorkload([]int{1, 2, 2}, w)
	want = [][]float64{
		{0, 720_000 * 0.3 / 2, 720_000 * 0.3 / 2},
		{2 * 720_000 * 0.3 / 2, 2 * 720_000 * 0.7, 2 * 720_000 * 0.3 / 2},
		{2 * 720_000 * 0.3 / 2, 2 * 720_000 * 0.3 / 2, 2 * 720_000 * 0.7},
	}
	if !reflect.DeepEqual(wl.RatesPerHour, want) {
		t.Errorf("with a one-node cluster: RatesPerHour = %v, want %v", wl.RatesPerHour, want)
	}
}
