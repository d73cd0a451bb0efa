package topology

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLinkDelay(t *testing.T) {
	l := Link{Latency: 100 * sim.Microsecond, Bandwidth: Mbps(8)} // 1 byte/µs
	if got := l.TransmitTime(1000); got != sim.Millisecond {
		t.Fatalf("TransmitTime(1000B@8Mbps) = %v, want 1ms", got)
	}
	if got := l.Delay(1000); got != sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("Delay = %v", got)
	}
	zero := Link{}
	if zero.TransmitTime(100) != 0 {
		t.Fatal("zero-bandwidth link should have zero transmit time")
	}
}

func TestPaperTopologies(t *testing.T) {
	f2 := Paper2Clusters()
	if err := f2.Validate(); err != nil {
		t.Fatal(err)
	}
	if f2.NumClusters() != 2 || f2.NumNodes() != 200 {
		t.Fatalf("2-cluster topology: %d clusters, %d nodes", f2.NumClusters(), f2.NumNodes())
	}
	san := f2.Clusters[0].Intra
	if san.Latency != 10*sim.Microsecond || san.Bandwidth != Mbps(80) {
		t.Fatalf("SAN link = %+v, want Myrinet-like", san)
	}
	wan := f2.InterLink(0, 1)
	if wan.Latency != 150*sim.Microsecond || wan.Bandwidth != Mbps(100) {
		t.Fatalf("inter link = %+v, want Ethernet-like", wan)
	}

	f3 := Paper3Clusters()
	if err := f3.Validate(); err != nil {
		t.Fatal(err)
	}
	if f3.NumClusters() != 3 || f3.NumNodes() != 300 {
		t.Fatalf("3-cluster topology: %d clusters, %d nodes", f3.NumClusters(), f3.NumNodes())
	}
}

func TestLinkBetween(t *testing.T) {
	f := Small(2, 3)
	a := NodeID{Cluster: 0, Index: 0}
	b := NodeID{Cluster: 0, Index: 2}
	c := NodeID{Cluster: 1, Index: 1}
	if !SameCluster(a, b) || SameCluster(a, c) {
		t.Fatal("SameCluster misclassified")
	}
	if got := f.LinkBetween(a, b); got != f.Clusters[0].Intra {
		t.Fatalf("intra link = %+v", got)
	}
	if got := f.LinkBetween(a, c); got != f.InterLink(0, 1) {
		t.Fatalf("inter link = %+v", got)
	}
}

func TestInterLinkSymmetric(t *testing.T) {
	f := New(
		Cluster{Name: "a", Nodes: 1, Intra: MyrinetLike()},
		Cluster{Name: "b", Nodes: 1, Intra: MyrinetLike()},
		Cluster{Name: "c", Nodes: 1, Intra: MyrinetLike()},
	)
	l := WANLike()
	f.SetInterLink(2, 0, l)
	if f.InterLink(0, 2) != l || f.InterLink(2, 0) != l {
		t.Fatal("inter-cluster link not symmetric")
	}
}

func TestNodesEnumeration(t *testing.T) {
	f := Small(3, 4)
	all := f.AllNodes()
	if len(all) != 12 {
		t.Fatalf("AllNodes = %d, want 12", len(all))
	}
	seen := make(map[NodeID]bool)
	for _, n := range all {
		if !f.Valid(n) {
			t.Fatalf("invalid node %v enumerated", n)
		}
		if seen[n] {
			t.Fatalf("duplicate node %v", n)
		}
		seen[n] = true
	}
	if f.Valid(NodeID{Cluster: 3, Index: 0}) || f.Valid(NodeID{Cluster: 0, Index: 4}) {
		t.Fatal("Valid accepted out-of-range node")
	}
	if s := (NodeID{Cluster: 1, Index: 7}).String(); s != "c1n7" {
		t.Fatalf("String = %q", s)
	}
}

func TestValidateRejectsBrokenFederations(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Error("empty federation accepted")
	}
	f := New(Cluster{Name: "x", Nodes: 0, Intra: MyrinetLike()})
	if err := f.Validate(); err == nil {
		t.Error("zero-node cluster accepted")
	}
	f = New(Cluster{Name: "x", Nodes: 1, Intra: Link{}})
	if err := f.Validate(); err == nil {
		t.Error("zero-bandwidth SAN accepted")
	}
	f = New(
		Cluster{Name: "a", Nodes: 1, Intra: MyrinetLike()},
		Cluster{Name: "b", Nodes: 1, Intra: MyrinetLike()},
	)
	if err := f.Validate(); err == nil {
		t.Error("missing inter-cluster link accepted")
	}
	f.SetAllInterLinks(EthernetLike())
	f.MTBF = -1
	if err := f.Validate(); err == nil {
		t.Error("negative MTBF accepted")
	}
}

// Property: transmission delay is monotone in message size and additive
// with latency for any sane link.
func TestLinkDelayMonotoneProperty(t *testing.T) {
	f := func(lat uint32, bwRaw uint16, s1, s2 uint16) bool {
		bw := Mbps(float64(bwRaw%1000) + 1)
		l := Link{Latency: sim.Duration(lat), Bandwidth: bw}
		a, b := int(s1), int(s2)
		if a > b {
			a, b = b, a
		}
		return l.Delay(a) <= l.Delay(b) && l.Delay(a) >= l.Latency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func threeClusters() *Federation {
	return New(
		Cluster{Name: "a", Nodes: 1, Intra: MyrinetLike()},
		Cluster{Name: "b", Nodes: 1, Intra: MyrinetLike()},
		Cluster{Name: "c", Nodes: 1, Intra: MyrinetLike()},
	)
}

// SetInterLink after SetAllInterLinks overrides one pair, both ways,
// and leaves every other pair on the federation-wide class.
func TestSetInterLinkOverridesOnePair(t *testing.T) {
	f := threeClusters()
	f.SetAllInterLinks(EthernetLike())
	f.SetInterLink(2, 1, WANLike())
	for _, p := range [][2]ClusterID{{0, 1}, {1, 0}, {0, 2}, {2, 0}} {
		if got := f.InterLink(p[0], p[1]); got != EthernetLike() {
			t.Fatalf("InterLink%v = %+v, want the SetAllInterLinks class", p, got)
		}
	}
	if f.InterLink(1, 2) != WANLike() || f.InterLink(2, 1) != WANLike() {
		t.Fatalf("override lost: %+v / %+v", f.InterLink(1, 2), f.InterLink(2, 1))
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// SetAllInterLinks after SetInterLink resets every pair, overridden
// ones included.
func TestSetAllInterLinksResetsOverrides(t *testing.T) {
	f := threeClusters()
	f.SetInterLink(0, 1, WANLike())
	f.SetInterLink(1, 2, HighJitterWAN())
	f.SetAllInterLinks(EthernetLike())
	for a := ClusterID(0); a < 3; a++ {
		for b := ClusterID(0); b < 3; b++ {
			if a != b && f.InterLink(a, b) != EthernetLike() {
				t.Fatalf("InterLink(%d, %d) = %+v after SetAllInterLinks", a, b, f.InterLink(a, b))
			}
		}
	}
}

// Validate names the first pair that was never set, even when others
// were.
func TestValidateNamesUnsetPair(t *testing.T) {
	f := threeClusters()
	f.SetInterLink(0, 1, EthernetLike())
	err := f.Validate()
	if err == nil || !strings.Contains(err.Error(), "between clusters 0 and 2") {
		t.Fatalf("Validate = %v, want the unset pair (0, 2) named", err)
	}
	f.SetInterLink(2, 0, EthernetLike())
	f.SetInterLink(1, 2, Link{Latency: sim.Microsecond})
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "between clusters 1 and 2") {
		t.Fatalf("Validate = %v, want the zero-bandwidth pair (1, 2) named", err)
	}
	f.SetInterLink(1, 2, EthernetLike())
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Every pair keeps its own class: no two pairs share an override.
func TestInterLinkEveryPairDistinct(t *testing.T) {
	const n = 6
	clusters := make([]Cluster, n)
	for i := range clusters {
		clusters[i] = Cluster{Nodes: 1, Intra: MyrinetLike()}
	}
	f := New(clusters...)
	link := func(a, b ClusterID) Link {
		return Link{Latency: sim.Duration(1 + min(a, b)*n + max(a, b)), Bandwidth: Mbps(1)}
	}
	for a := ClusterID(0); a < n; a++ {
		for b := a + 1; b < n; b++ {
			f.SetInterLink(b, a, link(a, b))
		}
	}
	for a := ClusterID(0); a < n; a++ {
		for b := ClusterID(0); b < n; b++ {
			if a != b && f.InterLink(a, b) != link(a, b) {
				t.Fatalf("InterLink(%d, %d) = %+v, want %+v", a, b, f.InterLink(a, b), link(a, b))
			}
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// parseNodeIDRef is ParseNodeID as it was written with fmt: the
// reference the strconv version must agree with.
func parseNodeIDRef(s string) (NodeID, bool) {
	var c, i int
	n, err := fmt.Sscanf(s, "c%dn%d", &c, &i)
	if err != nil || n != 2 || c < 0 || i < 0 {
		return NodeID{}, false
	}
	if fmt.Sprintf("c%dn%d", c, i) != s {
		return NodeID{}, false
	}
	return NodeID{Cluster: ClusterID(c), Index: i}, true
}

// TestNodeIDStringRoundTrip: String writes exactly what Sprintf wrote,
// negative numbers included, ParseNodeID reads back every non-negative
// ID, and it accepts and refuses exactly what the fmt version did.
func TestNodeIDStringRoundTrip(t *testing.T) {
	for _, id := range []NodeID{{0, 0}, {1, 7}, {12, 305}, {-1, 0}, {3, -4},
		{math.MaxInt, math.MaxInt}, {math.MinInt, math.MinInt}} {
		s := id.String()
		if want := fmt.Sprintf("c%dn%d", id.Cluster, id.Index); s != want {
			t.Fatalf("String = %q, want %q", s, want)
		}
		back, err := ParseNodeID(s)
		if ok := id.Cluster >= 0 && id.Index >= 0; ok != (err == nil) || ok && back != id {
			t.Fatalf("ParseNodeID(%q) = %v, %v", s, back, err)
		}
	}
	for _, s := range []string{"c0n0", "c1n7", "c10n200", "", "c", "n", "cn", "c1", "c1n", "cn1",
		"n1", "c-1n0", "c1n-2", "c-0n0", "c01n2", "c1n02", "c00n0", "c+1n2", "c1n+2", "c 1n2",
		"c1n 2", " c1n2", "c1n2 ", "c1n2x", "x1n2", "C1N2", "c1n2n3", "c1x2", "c0x1n2", "c1_0n2",
		"c9223372036854775807n0", "c9223372036854775808n0", "c1n99999999999999999999"} {
		got, err := ParseNodeID(s)
		want, ok := parseNodeIDRef(s)
		if ok != (err == nil) || got != want {
			t.Errorf("ParseNodeID(%q) = %v, %v; the fmt version gave %v, %v", s, got, err, want, ok)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = NodeID{Cluster: 12, Index: 305}.String() }); allocs != 1 {
		t.Errorf("String allocates %.0f times, want 1", allocs)
	}
}
