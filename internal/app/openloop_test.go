package app

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestNewOpenLoopCompilesRates checks the Poisson-superposition
// compilation: the rate matrix's total equals users x per-user rate,
// every source cluster carries an equal share, and destination columns
// follow the Zipf weights.
func TestNewOpenLoopCompilesRates(t *testing.T) {
	const (
		n       = 4
		users   = int64(1_000_000)
		perUser = 0.002
		zipfS   = 1.0
	)
	wl := NewOpenLoop(n, users, perUser, zipfS, sim.Hour)
	var total float64
	rowSums := make([]float64, n)
	colSums := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := wl.RatesPerHour[i][j]
			if v <= 0 {
				t.Fatalf("rate[%d][%d] = %v, want positive", i, j, v)
			}
			total += v
			rowSums[i] += v
			colSums[j] += v
		}
	}
	if want := float64(users) * perUser; math.Abs(total-want)/want > 1e-9 {
		t.Fatalf("aggregate rate = %v, want %v", total, want)
	}
	for i := 1; i < n; i++ {
		if math.Abs(rowSums[i]-rowSums[0])/rowSums[0] > 1e-9 {
			t.Fatalf("source shares unequal: %v", rowSums)
		}
	}
	// Zipf with s=1: destination j+1 gets 1/(j+1) of destination 1's
	// share.
	for j := 1; j < n; j++ {
		want := colSums[0] / float64(j+1)
		if math.Abs(colSums[j]-want)/want > 1e-9 {
			t.Fatalf("column %d = %v, want %v (Zipf s=1)", j, colSums[j], want)
		}
	}
	if wl.OpenLoop == nil || !wl.Deterministic {
		t.Fatal("open-loop workload must be marked and deterministic")
	}
	if err := wl.Validate(topology.Small(n, 2)); err != nil {
		t.Fatalf("valid open-loop workload rejected: %v", err)
	}
}

func TestOpenLoopValidate(t *testing.T) {
	fed := topology.Small(2, 2)
	wl := NewOpenLoop(2, 1000, 0.1, 1.1, sim.Hour)
	wl.Deterministic = false
	if err := wl.Validate(fed); err == nil {
		t.Fatal("open-loop workload without deterministic replay accepted")
	}
	for _, bad := range []*OpenLoop{
		{Users: 0, RequestsPerUserHour: 1},
		{Users: 10, RequestsPerUserHour: 0},
		{Users: 10, RequestsPerUserHour: 1, ZipfS: -1},
	} {
		wl := NewOpenLoop(2, 1000, 0.1, 1.1, sim.Hour)
		wl.OpenLoop = bad
		if err := wl.Validate(fed); err == nil {
			t.Errorf("open-loop %+v accepted", bad)
		}
	}
}

// TestWorkloadFreezeRebuildsRateSums pins the staleness regression: a
// sweep harness that edits RatesPerHour on a shared Workload must see
// the edited rates after Freeze. The broken implementation cached the
// sums behind a sync.Once, so every run after the first used the first
// run's totals.
func TestWorkloadFreezeRebuildsRateSums(t *testing.T) {
	wl := Uniform(2, 100, 10, sim.Hour)
	row1 := wl.rateSums()
	if row1[0] != 110 || row1[1] != 110 {
		t.Fatalf("initial sums = %v", row1)
	}
	wl.RatesPerHour[0][1] = 1000
	wl.Freeze()
	row2 := wl.rateSums()
	if row2[0] != 1100 || row2[1] != 110 {
		t.Fatalf("sums stale after Freeze: %v", row2)
	}
	// A second read without further edits keeps the rebuilt values.
	row3 := wl.rateSums()
	if row3[0] != 1100 {
		t.Fatalf("sums changed without an edit: %v", row3)
	}
}

// TestNodeAppSeesFrozenRates drives the per-node scheduler end to end:
// after editing the shared workload's rates and freezing, a fresh node
// draws a schedule matching the new rates.
func TestNodeAppSeesFrozenRates(t *testing.T) {
	fed := topology.Small(2, 2)
	wl := Uniform(2, 60, 6, 10*sim.Hour)
	count := func(seed uint64) int {
		a := NewNodeApp(topology.NodeID{Cluster: 0, Index: 0}, wl, fed, sim.NewRNG(seed))
		n := 0
		for {
			if _, ok := a.NextSend(); !ok {
				break
			}
			if _, _, ok := a.TakeSend(); !ok {
				break
			}
			n++
		}
		return n
	}
	base := count(11)
	// Cluster aggregate 66/h over 10h across 2 nodes => ~330 per node.
	if base < 230 || base > 450 {
		t.Fatalf("baseline schedule produced %d sends, want ~330", base)
	}
	for i := range wl.RatesPerHour {
		for j := range wl.RatesPerHour[i] {
			wl.RatesPerHour[i][j] *= 10
		}
	}
	wl.Freeze()
	boosted := count(11)
	if boosted < 5*base {
		t.Fatalf("rates x10 after Freeze produced %d sends vs baseline %d (stale sums?)", boosted, base)
	}
}

// FuzzBurstWarpRoundTrip checks the Warp/Unwarp inverse property over
// arbitrary envelopes: for any on-time budget s, Unwarp maps it to the
// earliest absolute time with that much on-time elapsed, so
// Warp(Unwarp(s)) == s. Seeds cover the rem == on boundary and the
// Duty == 1 degenerate envelope.
func FuzzBurstWarpRoundTrip(f *testing.F) {
	f.Add(int64(30*sim.Minute), 0.25, int64(0))
	f.Add(int64(30*sim.Minute), 0.25, int64(7*sim.Minute))
	f.Add(int64(30*sim.Minute), 0.25, int64(30*sim.Minute)/4) // rem == on
	f.Add(int64(sim.Hour), 1.0, int64(90*sim.Minute))         // Duty == 1
	f.Add(int64(1), 0.5, int64(12345))
	f.Add(int64(sim.Second), 0.001, int64(3))
	f.Fuzz(func(t *testing.T, period int64, duty float64, s int64) {
		if period <= 0 || period > int64(1000*sim.Hour) {
			t.Skip()
		}
		if duty <= 0 || duty > 1 || math.IsNaN(duty) {
			t.Skip()
		}
		if s < 0 || s > int64(100000*sim.Hour) {
			t.Skip()
		}
		b := &Burst{Period: sim.Duration(period), Duty: duty}
		on := b.onPerPeriod()
		if on <= 0 {
			// Degenerate envelope: no on-time ever accumulates.
			if b.Unwarp(sim.Duration(s)) != sim.Forever && s > 0 {
				t.Fatal("positive on-time reachable with an empty on-window")
			}
			t.Skip()
		}
		got := b.Warp(b.Unwarp(sim.Duration(s)))
		if got != sim.Duration(s) {
			t.Fatalf("Warp(Unwarp(%d)) = %d (period %d, duty %v)", s, got, period, duty)
		}
		// Warp never exceeds the on-time physically available.
		tAbs := sim.Duration(s)
		if w := b.Warp(tAbs); w > tAbs {
			t.Fatalf("Warp(%d) = %d exceeds elapsed time", tAbs, w)
		}
	})
}
