package federation_test

import (
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/topology"
)

// TestCompletenessCheckReportsLostMessage: rewinding one receiver's
// application to its initial snapshot after a clean run erases every
// delivery it made, and the end-of-run completeness check must report
// a message to it as lost.
func TestCompletenessCheckReportsLostMessage(t *testing.T) {
	f, err := federation.New(smallOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	victim := topology.NodeID{Cluster: 0, Index: 1}
	initial, _ := f.App(victim).Snapshot()
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("clean run fails its invariants: %v", err)
	}
	if f.App(victim).DeliveredCount() == 0 {
		t.Fatal("the receiver got nothing to lose")
	}
	f.App(victim).Restore(initial)
	err = f.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), " to "+victim.String()+" lost") {
		t.Fatalf("err = %v, want a message to %v lost", err, victim)
	}
}
