package experiments

import "testing"

// The delta-vs-dense piggyback differential: transitive piggybacks
// delta-encoded over per-pipe codecs (the default) must be
// observationally identical to codec-free ones, which carry the
// sender's whole vector — same CSV bytes for every table — because
// both are priced at the dense width and the codec reconstructs every
// vector exactly. The checkpoint round's
// control messages have one form only; the mutation catalogue
// (internal/federation) shows the checks that guard their deltas.

// runBothEncodings renders one experiment with delta and with
// codec-free piggybacks and asserts byte-identical CSV output.
func runBothEncodings(t *testing.T, id string, seed uint64) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	delta, err := e.Run(Config{Seed: seed, Quick: true})
	if err != nil {
		t.Fatalf("%s seed %d (delta): %v", id, seed, err)
	}
	dense, err := e.Run(Config{Seed: seed, Quick: true, noPipeCodecs: true})
	if err != nil {
		t.Fatalf("%s seed %d (dense): %v", id, seed, err)
	}
	if d, s := delta.CSV(), dense.CSV(); d != s {
		t.Errorf("%s seed %d: delta and dense encodings diverged:\n--- delta\n%s--- dense\n%s", id, seed, d, s)
	}
}

// TestDeltaWireDifferentialQuick covers one seed of the transitive
// experiment (A1), the only registry entry whose piggybacks ride the
// pipe codecs.
func TestDeltaWireDifferentialQuick(t *testing.T) {
	for _, id := range []string{"A1"} {
		t.Run(id, func(t *testing.T) {
			runBothEncodings(t, id, 11)
		})
	}
}
