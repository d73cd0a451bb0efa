// Package topology describes cluster federations: clusters of nodes
// linked by a fast SAN internally and by slower LAN/WAN links between
// clusters, as assumed by the HC3I paper (§2.1 architecture model).
package topology

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ClusterID identifies a cluster within a federation (0-based, dense).
type ClusterID int

// NodeID identifies a node by its cluster and its index inside the
// cluster. The paper's protocol never needs a flat global namespace:
// all addressing is "node i of cluster c".
type NodeID struct {
	Cluster ClusterID
	Index   int
}

// String formats the node as "c<cluster>n<index>", in one allocation:
// the live journal names two nodes per delivery.
func (n NodeID) String() string {
	var buf [42]byte // "c", "n" and two 20-byte int64s
	b := strconv.AppendInt(append(buf[:0], 'c'), int64(n.Cluster), 10)
	b = strconv.AppendInt(append(b, 'n'), int64(n.Index), 10)
	return string(b)
}

// ParseNodeID parses the canonical "c<cluster>n<index>" form produced
// by NodeID.String — the identifier format of federation config files
// and live-run journals. Both numbers are non-negative decimals with no
// sign and no leading zero.
func ParseNodeID(s string) (NodeID, error) {
	rest, okC := strings.CutPrefix(s, "c")
	cs, is, okN := strings.Cut(rest, "n")
	c, errC := strconv.Atoi(cs)
	i, errI := strconv.Atoi(is)
	if !okC || !okN || errC != nil || errI != nil || !canonical(cs) || !canonical(is) {
		return NodeID{}, errors.New("topology: bad node id " + strconv.Quote(s) + " (want cXnY)")
	}
	return NodeID{Cluster: ClusterID(c), Index: i}, nil
}

// canonical reports whether a decimal that strconv.Atoi accepted is
// written the way strconv.Itoa writes a non-negative number.
func canonical(d string) bool { return d[0] != '+' && d[0] != '-' && (d[0] != '0' || len(d) == 1) }

// Link models one network class by latency and bandwidth, exactly the
// two parameters the paper's topology file specifies per link, plus an
// optional jitter bound for the high-variance WAN profiles of the
// scenario matrix.
type Link struct {
	Latency   sim.Duration
	Bandwidth float64 // bits per simulated second
	// Jitter is the maximum extra propagation delay added per message,
	// drawn uniformly from [0, Jitter] by the network model. Zero (the
	// paper's configuration) keeps delays deterministic per link.
	Jitter sim.Duration
}

// TransmitTime returns serialization delay for a message of size bytes.
func (l Link) TransmitTime(sizeBytes int) sim.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	bits := float64(sizeBytes) * 8
	return sim.Duration(bits / l.Bandwidth * float64(sim.Second))
}

// Delay returns the total one-way delay for a message of size bytes:
// latency plus serialization.
func (l Link) Delay(sizeBytes int) sim.Duration {
	return l.Latency + l.TransmitTime(sizeBytes)
}

// Cluster describes one cluster: a name, a node count and its internal
// SAN link class.
type Cluster struct {
	Name  string
	Nodes int
	Intra Link
}

// Federation is the full architecture model: clusters, the
// inter-cluster link classes and the federation MTBF.
type Federation struct {
	Clusters []Cluster
	// interAll is the link class of every pair of distinct clusters
	// that interOver does not name (SetAllInterLinks); interOver holds
	// the per-pair classes set by SetInterLink, keyed by triangleIndex.
	// Read through InterLink.
	interAll  Link
	interOver PairTable[Link]
	// MTBF is the federation-wide mean time between failures used by
	// the failure injector (0 = no failures).
	MTBF sim.Duration
}

// New returns a federation with the given clusters and no inter-cluster
// links configured yet.
func New(clusters ...Cluster) *Federation {
	return &Federation{Clusters: clusters}
}

// NumClusters returns the number of clusters.
func (f *Federation) NumClusters() int { return len(f.Clusters) }

// NumNodes returns the total number of nodes in the federation.
func (f *Federation) NumNodes() int {
	n := 0
	for _, c := range f.Clusters {
		n += c.Nodes
	}
	return n
}

// SetInterLink sets the link class between two distinct clusters
// (symmetric).
func (f *Federation) SetInterLink(a, b ClusterID, l Link) {
	if a == b {
		panic("topology: SetInterLink with identical clusters")
	}
	*f.interOver.Get(triangleIndex(a, b)) = l
}

// SetAllInterLinks sets the same link class between every pair of
// distinct clusters, replacing every earlier SetInterLink.
func (f *Federation) SetAllInterLinks(l Link) {
	f.interAll = l
	f.interOver = PairTable[Link]{}
}

// InterLink returns the link class between two distinct clusters.
func (f *Federation) InterLink(a, b ClusterID) Link {
	if a == b {
		panic("topology: InterLink with identical clusters")
	}
	if l := f.interOver.Find(triangleIndex(a, b)); l != nil {
		return *l
	}
	return f.interAll
}

// triangleIndex numbers the unordered pair {a, b} of distinct clusters
// densely, whatever the cluster count: hi*(hi-1)/2 + lo.
func triangleIndex(a, b ClusterID) int {
	lo, hi := int(a), int(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	return hi*(hi-1)/2 + lo
}

// LinkBetween returns the link class used for a message from node a to
// node b: the source cluster's SAN if they share a cluster, the
// inter-cluster link otherwise.
func (f *Federation) LinkBetween(a, b NodeID) Link {
	if a.Cluster == b.Cluster {
		return f.Clusters[a.Cluster].Intra
	}
	return f.InterLink(a.Cluster, b.Cluster)
}

// SameCluster reports whether two nodes are in the same cluster.
func SameCluster(a, b NodeID) bool { return a.Cluster == b.Cluster }

// Nodes returns all node IDs of one cluster, in index order.
func (f *Federation) Nodes(c ClusterID) []NodeID {
	ids := make([]NodeID, f.Clusters[c].Nodes)
	for i := range ids {
		ids[i] = NodeID{Cluster: c, Index: i}
	}
	return ids
}

// AllNodes returns every node ID in the federation, cluster by cluster.
func (f *Federation) AllNodes() []NodeID {
	ids := make([]NodeID, 0, f.NumNodes())
	for c, cl := range f.Clusters {
		for i := 0; i < cl.Nodes; i++ {
			ids = append(ids, NodeID{Cluster: ClusterID(c), Index: i})
		}
	}
	return ids
}

// NodeIndex maps NodeIDs onto dense ordinals [0, NumNodes), cluster by
// cluster in index order. Hot paths use it to replace NodeID-keyed maps
// with flat slices: hashing a two-word struct per message turned up as
// a top profile entry in the simulation's delivery loop.
type NodeIndex struct {
	offsets []int
	sizes   []int
	total   int
}

// Index builds the dense ordinal mapping for the federation's current
// cluster layout.
func (f *Federation) Index() NodeIndex {
	off := make([]int, len(f.Clusters))
	sizes := make([]int, len(f.Clusters))
	total := 0
	for i, c := range f.Clusters {
		off[i] = total
		sizes[i] = c.Nodes
		total += c.Nodes
	}
	return NodeIndex{offsets: off, sizes: sizes, total: total}
}

// Ord returns the dense ordinal of a node. An out-of-range ID panics:
// the map lookups this replaces failed loudly on invalid IDs, and a
// silent alias onto another node's slot would corrupt a run instead.
func (ix NodeIndex) Ord(n NodeID) int {
	if n.Index < 0 || n.Index >= ix.sizes[n.Cluster] {
		panic(fmt.Sprintf("topology: node %v outside its cluster", n))
	}
	return ix.offsets[n.Cluster] + n.Index
}

// Len returns the number of nodes covered by the index.
func (ix NodeIndex) Len() int { return ix.total }

// Valid reports whether a node ID addresses an existing node.
func (f *Federation) Valid(n NodeID) bool {
	return n.Cluster >= 0 && int(n.Cluster) < len(f.Clusters) &&
		n.Index >= 0 && n.Index < f.Clusters[n.Cluster].Nodes
}

// Validate checks structural soundness: at least one cluster, every
// cluster non-empty with a usable SAN, and every inter-cluster link
// configured with positive latency/bandwidth.
func (f *Federation) Validate() error {
	if len(f.Clusters) == 0 {
		return fmt.Errorf("topology: federation has no clusters")
	}
	for i, c := range f.Clusters {
		if c.Nodes <= 0 {
			return fmt.Errorf("topology: cluster %d (%s) has %d nodes", i, c.Name, c.Nodes)
		}
		if c.Intra.Bandwidth <= 0 || c.Intra.Latency < 0 {
			return fmt.Errorf("topology: cluster %d (%s) has invalid SAN link %+v", i, c.Name, c.Intra)
		}
	}
	// With a valid class for every pair, only the overrides can be bad:
	// check those alone unless one is, then name the first bad pair.
	badLink := func(l Link) bool { return l.Bandwidth <= 0 || l.Latency < 0 }
	bad := badLink(f.interAll)
	f.interOver.Each(func(_ int, l *Link) { bad = bad || badLink(*l) })
	for i := 0; bad && i < len(f.Clusters); i++ {
		for j := i + 1; j < len(f.Clusters); j++ {
			if l := f.InterLink(ClusterID(i), ClusterID(j)); badLink(l) {
				return fmt.Errorf("topology: missing or invalid link between clusters %d and %d: %+v", i, j, l)
			}
		}
	}
	if f.MTBF < 0 {
		return fmt.Errorf("topology: negative MTBF")
	}
	return nil
}
