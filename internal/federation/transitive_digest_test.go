package federation_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Transitive runs at the federation level, on the configurations the
// experiments registry does not reach: transitive piggybacking combined
// with crashes and rollback cascades over jittery links, with and
// without garbage collection. Each run's full statistics dump — every
// counter, series and summary — is pinned by its SHA-256 digest. The
// digests were recorded when transitive piggybacks still rode per-pipe
// delta codecs, which produced the same dumps as the whole-vector form
// every message carries now, so these runs are the differential
// between the two forms.

// transitiveCrashOptions is a 3-cluster transitive run with two
// crashes (one of them a cluster leader) over a jittery WAN.
func transitiveCrashOptions(seed uint64) federation.Options {
	fed := topology.Small(3, 3)
	fed.SetAllInterLinks(topology.HighJitterWAN())
	wl := app.Uniform(3, 400, 18, sim.Hour)
	wl.StateSize = 64 << 10
	return federation.Options{
		Topology:   fed,
		Workload:   wl,
		CLCPeriods: []sim.Duration{8 * sim.Minute, 10 * sim.Minute, 12 * sim.Minute},
		Transitive: true,
		Seed:       seed,
		Crashes: []federation.Crash{
			{At: sim.Time(20 * sim.Minute), Node: topology.NodeID{Cluster: 1, Index: 1}},
			{At: sim.Time(40 * sim.Minute), Node: topology.NodeID{Cluster: 2, Index: 0}},
		},
	}
}

// checkDumpDigest fails unless res's statistics dump has the pinned
// SHA-256 digest and the run the pinned event count.
func checkDumpDigest(t *testing.T, what string, res *federation.Result, digest string, events uint64) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Stats.Dump()))); got != digest {
		t.Errorf("%s: stats dump digest %s, want %s", what, got, digest)
	}
	if res.Events != events {
		t.Errorf("%s: %d events, want %d", what, res.Events, events)
	}
}

func TestTransitiveDeltaCrashDifferential(t *testing.T) {
	want := []struct {
		digest string
		events uint64
	}{
		{"488b0a1c929a516bbebd2b1e61d5bf172f3199c3d1902140b4148488a53a5334", 4478},
		{"795e29289c23e113a35ad814b1a349c78c00eb65e8b36e88294016b52fb3c757", 4462},
		{"177abd863c3164c4b3427aaa3721e17396b296f605410288c0ef9fa5d7974338", 3891},
		{"8d2588f982d3a57d050be49a80b893454502d2b05d219b4aafdd5cdcb4ea7370", 4004},
		{"0079982b7300c8b8bc2ff6a03db7d0786db9905ccebc0dd4e2c04d4882f2ce86", 4076},
	}
	for i, w := range want {
		seed := uint64(i + 1)
		checkDumpDigest(t, fmt.Sprintf("seed %d", seed), mustRun(t, transitiveCrashOptions(seed)), w.digest, w.events)
	}
}

// TestTransitiveDeltaGCDifferential adds periodic garbage collection
// to a transitive run, exercising the chain-delta GC reports together
// with the logged sparse piggybacks: collections drop the records the
// log's sends were made at, crashes re-adopt the entries from mirrors,
// rollbacks resend them. Collection period, ring or central collector
// and replication degree vary by seed; the oracle watches every run.
func TestTransitiveDeltaGCDifferential(t *testing.T) {
	want := []struct {
		digest string
		events uint64
	}{
		{"6bea60317e26d6ada17b1f3626068693e752af752522b49a746b74168a2c4820", 4953},
		{"91b9539c20a52081e06a7d0d8068eb34e60f93d1301774bc059f2ba0e309bbec", 4672},
		{"d18048af2e4b982c055d91c8ccbc012d8f9379c74c9b0b518531713e05664fa9", 4387},
		{"1cfc1c20110443cfa6715b489cb37435e9a72d2cd8b5da46e8713a9f8170a101", 4241},
		{"7637fd768c5f218599355f490cb84510c4b1374f3ec98648baec229fa5c1c3e4", 4596},
		{"651f62ee4e9e13bb931b84c65a802f0e94e31ec2142bd7765494754e1ba3c90f", 4058},
	}
	for i, w := range want {
		seed := uint64(i + 1)
		opts := transitiveCrashOptions(seed)
		opts.GCPeriod = []sim.Duration{4 * sim.Minute, 15 * sim.Minute}[seed%2]
		opts.RingGC = seed%3 == 0
		opts.Replicas = 1 + int(seed%2)
		opts.Oracle = true
		checkDumpDigest(t, fmt.Sprintf("seed %d", seed), mustRun(t, opts), w.digest, w.events)
	}
}
