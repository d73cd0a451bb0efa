package core

import (
	"sort"

	"repro/internal/topology"
)

// Chain is a cluster's stored-CLC history in sparse form: the dense
// vector of the oldest stored checkpoint, then per checkpoint only its
// sequence number and the entries its commit changed. The paper attaches
// one DDV to every stored CLC (§3.2); consecutive stored CLCs are
// consecutive commits (GC drops a prefix, a rollback a suffix), so one
// dense anchor plus the commits' own delta pairs reconstructs every one
// of those vectors exactly, in O(width + changed entries) of memory
// instead of O(width x stored CLCs).
//
// It is the one representation of a stored history: a node's records
// (Node.chain), the GC report, the recovery response and the oracle's
// shadow chain all hold a Chain, and the recovery-line analysis
// (SimulateFailure, SmallestSNs) runs on it directly.
//
// Ownership: Anchor belongs to the chain and is mutated only by prefix
// drops (DropBelow folds the dropped records' pairs into it); a pair
// slice is immutable once appended and may be shared between chains; a
// chain that leaves its owner (in a message) is a snapshot. The fields
// are exported because internal/oracle reads them and the live
// runtime's wire codec encodes them.
//
// A node's chain is also where its logged transitive piggybacks live
// (see logEntry): a log entry or mirror names record SN, and the node
// resolves the vector with Vector. Records a collection drops while a
// reference names them move to the node's retired history, a second
// Chain that ends where this one begins (Node.retire).
type Chain struct {
	// Anchor is the dense vector of record 0.
	Anchor DDV
	// Recs are the stored records, oldest first, strictly increasing in
	// SN. Recs[0].Pairs is already folded into Anchor: walks never read
	// it, but a node's retired history (Node.retired) continues from it.
	Recs []ChainRec
}

// ChainRec is one stored CLC of a Chain: its sequence number and the
// entries its commit changed relative to the record before it, as
// absolute values.
type ChainRec struct {
	SN    SN
	Pairs []DDVPair
}

// Len returns the number of stored records.
func (c *Chain) Len() int { return len(c.Recs) }

// chainRoom is how many records a chain holds before its list first
// grows: about what a node stores between two collections, so most
// chains never reallocate (a prefix drop compacts in place).
const chainRoom = 16

// Init resets the chain to the single record (sn, vec); vec is copied.
func (c *Chain) Init(sn SN, vec DDV) {
	if len(c.Anchor) != len(vec) {
		c.Anchor = make(DDV, len(vec))
	}
	copy(c.Anchor, vec)
	if c.Recs == nil {
		c.Recs = make([]ChainRec, 0, chainRoom)
	}
	clear(c.Recs)
	c.Recs = append(c.Recs[:0], ChainRec{SN: sn})
}

// Append stores the next record: pairs is what its commit changed
// relative to the newest stored record, and is retained. A chain a GC
// drop emptied keeps its anchor at the last dropped record's vector, so
// the record appended next folds into the anchor.
func (c *Chain) Append(sn SN, pairs []DDVPair) {
	if len(c.Recs) == 0 {
		c.Anchor.applyPairs(pairs)
	}
	c.Recs = append(c.Recs, ChainRec{SN: sn, Pairs: pairs})
}

// AppendVector is Append for a caller that holds the record's dense
// vector instead of its pairs (the dense reference wire): prev is the
// newest stored record's vector.
func (c *Chain) AppendVector(sn SN, vec, prev DDV) {
	c.Append(sn, diffPairs(nil, vec, prev))
}

// firstAbove returns the position of the oldest record with SN > sn.
func (c *Chain) firstAbove(sn SN) int {
	return sort.Search(len(c.Recs), func(i int) bool { return c.Recs[i].SN > sn })
}

// DropBelow discards the prefix of records with SN < threshold, folding
// their pairs into the anchor so it stays the oldest surviving record's
// vector, and returns how many records it dropped.
func (c *Chain) DropBelow(threshold SN) int {
	cut := sort.Search(len(c.Recs), func(i int) bool { return c.Recs[i].SN >= threshold })
	if cut == 0 {
		return 0
	}
	for i := 1; i <= cut && i < len(c.Recs); i++ {
		c.Anchor.applyPairs(c.Recs[i].Pairs)
	}
	kept := copy(c.Recs, c.Recs[cut:])
	clear(c.Recs[kept:])
	c.Recs = c.Recs[:kept]
	return cut
}

// TruncateAfter discards the suffix of records with SN > sn.
func (c *Chain) TruncateAfter(sn SN) {
	keep := c.firstAbove(sn)
	clear(c.Recs[keep:])
	c.Recs = c.Recs[:keep]
}

// Index returns the position of the record with sequence number sn, or
// -1 if the chain does not store it.
func (c *Chain) Index(sn SN) int {
	if i := c.firstAbove(sn) - 1; i >= 0 && c.Recs[i].SN == sn {
		return i
	}
	return -1
}

// Vector writes record i's dense vector into dst by walking the anchor
// and the pairs up to i: O(width + pairs), for the rare paths (rollback,
// recovery) that need a stored vector whole.
func (c *Chain) Vector(i int, dst DDV) {
	dst.CopyFrom(c.Anchor)
	for r := 1; r <= i; r++ {
		dst.applyPairs(c.Recs[r].Pairs)
	}
}

// snapshot returns an independent copy of the oldest keep records for a
// message: the anchor is cut from ar, the record list is copied, the
// immutable pair slices themselves are shared.
func (c *Chain) snapshot(keep int, ar *DDVArena) Chain {
	return Chain{Anchor: ar.Clone(c.Anchor), Recs: append([]ChainRec(nil), c.Recs[:keep]...)}
}

// copyFrom makes c an independent copy of o (the counterpart of
// snapshot at a receiver that goes on mutating what it received).
func (c *Chain) copyFrom(o Chain) {
	c.Anchor = append(c.Anchor[:0], o.Anchor...)
	clear(c.Recs)
	c.Recs = append(c.Recs[:0], o.Recs...)
}

// column calls visit with the entry for cluster col of every record,
// oldest first, until visit returns false.
func (c *Chain) column(col topology.ClusterID, visit func(i int, v SN) bool) {
	v := c.Anchor[col]
	for i, r := range c.Recs {
		if i > 0 {
			for _, p := range r.Pairs {
				if p.Idx == int32(col) {
					v = p.SN
				}
			}
		}
		if !visit(i, v) {
			return
		}
	}
}

// OldestWith returns the index of the oldest record whose entry for
// cluster col is >= s, or -1 if none qualifies. Per §3.4, this is the
// checkpoint a cluster must restore when it receives a rollback alert
// (col, s) and its current DDV entry for col is >= s: the oldest
// qualifying checkpoint is the forced CLC taken just *before*
// delivering the first message that created the dangerous dependency,
// so its state does not depend on the rolled-back execution.
func (c *Chain) OldestWith(col topology.ClusterID, s SN) int {
	found := -1
	c.column(col, func(i int, v SN) bool {
		if v >= s {
			found = i
		}
		return found < 0
	})
	return found
}

// NewestBelow returns the index of the newest record whose entry for
// cluster col is < s, or -1 if none. This is the rollback target under
// *independent* checkpointing (no forced CLCs exist, so the receiver
// must fall back behind the dependency entirely) — the rule whose
// repeated application produces the domino effect (§2.2).
func (c *Chain) NewestBelow(col topology.ClusterID, s SN) int {
	found := -1
	c.column(col, func(i int, v SN) bool {
		if v < s {
			found = i
		}
		return true
	})
	return found
}
