package experiments

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestDeltaWireDifferentialQuick pins one seed of the transitive
// experiment (A1), the registry entry whose piggybacks carry whole
// vectors, by the SHA-256 digest of its CSV. The digest was recorded
// when those piggybacks still rode per-pipe delta codecs, which gave
// the same bytes as the whole-vector form every message carries now.
func TestDeltaWireDifferentialQuick(t *testing.T) {
	for _, r := range []struct {
		id     string
		seed   uint64
		digest string
	}{
		{"A1", 11, "55a16dba187aa08154c8100a65f7883ac75be291f2da55657290b2ed6d148f2f"},
	} {
		t.Run(r.id, func(t *testing.T) {
			e, ok := ByID(r.id)
			if !ok {
				t.Fatalf("experiment %s missing", r.id)
			}
			tab, err := e.Run(Config{Seed: r.seed, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tab.CSV()))); got != r.digest {
				t.Errorf("%s seed %d: CSV digest %s, want %s:\n%s", r.id, r.seed, got, r.digest, tab.CSV())
			}
		})
	}
}
