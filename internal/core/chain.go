package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/topology"
)

// Chain is a cluster's stored-CLC history in sparse form: the vector of
// the oldest stored checkpoint, then per checkpoint only its sequence
// number and the entries its commit changed. The paper attaches one DDV
// to every stored CLC (§3.2); consecutive stored CLCs are consecutive
// commits (GC drops a prefix, a rollback a suffix), so the anchor plus
// the commits' own delta pairs reconstructs every one of those vectors
// exactly, in O(non-zero entries + changed entries) of memory instead
// of O(width x stored CLCs).
//
// It is the one representation of a stored history: a node's records
// (Node.chain), the GC report, the recovery response and the oracle's
// shadow chain all hold a Chain, and the recovery-line analysis
// (SimulateFailure, SmallestSNs) runs on it directly.
//
// Ownership: the anchor and the pair slices are immutable once built
// and may be shared between chains. A prefix drop builds a new anchor
// instead of folding into the old one, so shipping a chain (in a GC
// report or a recovery response) shares the anchor and the pairs and
// copies only the record list. A chain that shares its anchor with
// nothing (the oracle's shadow chains) may instead reuse the anchor's
// storage through DropBelowInto. The fields are exported because
// internal/oracle reads them and the live runtime's wire codec encodes
// them.
type Chain struct {
	// Anchor is record 0's vector.
	Anchor SparseDDV
	// Recs are the stored records, oldest first, strictly increasing in
	// SN. Recs[0].Pairs is already folded into Anchor: walks never read
	// it.
	Recs []ChainRec
}

// ChainRec is one stored CLC of a Chain: its sequence number and the
// entries its commit changed relative to the record before it, as
// absolute values.
type ChainRec struct {
	SN    SN
	Pairs []DDVPair
}

// SparseDDV is a DDV in sparse form: its width and its non-zero entries
// as pairs in ascending index order. It is immutable once built, so
// copies share Pairs. At 1024 clusters a stored vector has a few dozen
// non-zero entries, where the dense form copies 8 KB. Chain anchors and
// logged transitive piggybacks (Node.piggy) take this form.
type SparseDDV struct {
	Width int
	Pairs []DDVPair
}

// sparseOf returns vec's non-zero entries in storage cut from ar (nil
// allocates), exactly as many as there are.
func sparseOf(vec DDV, ar *PairArena) SparseDDV {
	s := SparseDDV{Width: len(vec)}
	nz := 0
	for _, v := range vec {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		return s
	}
	s.Pairs = ar.cut(nz)[:0]
	for i, v := range vec {
		if v != 0 {
			s.Pairs = append(s.Pairs, DDVPair{Idx: int32(i), SN: v})
		}
	}
	return s
}

// Valid reports whether s is in sparse form: every pair's index in
// [0, Width), every SN non-zero, indices strictly ascending.
func (s SparseDDV) Valid() bool {
	for i, p := range s.Pairs {
		if p.Idx < 0 || int(p.Idx) >= s.Width || p.SN == 0 || (i > 0 && p.Idx <= s.Pairs[i-1].Idx) {
			return false
		}
	}
	return true
}

// Get returns entry i.
func (s SparseDDV) Get(i int) SN {
	if k, ok := slices.BinarySearchFunc(s.Pairs, int32(i), pairAt); ok {
		return s.Pairs[k].SN
	}
	return 0
}

// pairAt orders a pair against a cluster index.
func pairAt(p DDVPair, idx int32) int { return cmp.Compare(p.Idx, idx) }

// Dense writes the vector into dst, which must be Width entries long.
func (s SparseDDV) Dense(dst DDV) {
	if len(dst) != s.Width {
		panic(fmt.Sprintf("core: a %d-wide sparse vector written into %d entries", s.Width, len(dst)))
	}
	clear(dst)
	dst.applyPairs(s.Pairs)
}

// fold returns s patched with the pairs of recs, oldest first, in
// storage cut from ar (nil allocates). s itself is left as it was for
// whoever shares it. The cut is at most min(pairs, Width) entries,
// however many records are folded, and what the result does not use
// goes back to ar.
func (s SparseDDV) fold(recs []ChainRec, ar *PairArena) SparseDDV {
	n := len(s.Pairs)
	for _, r := range recs {
		n += len(r.Pairs)
	}
	if n == len(s.Pairs) {
		return s
	}
	n = min(n, s.Width)
	out := s.foldInto(ar.cut(n), recs)
	ar.giveBack(n - len(out.Pairs))
	out.Pairs = slices.Clip(out.Pairs)
	return out
}

// foldInto writes s patched with the pairs of recs, oldest first, into
// buf (from its start; grown only past its capacity). Each write
// replaces or inserts its entry, and entries a write set to 0 are
// removed at the end.
func (s SparseDDV) foldInto(buf []DDVPair, recs []ChainRec) SparseDDV {
	out := append(buf[:0], s.Pairs...)
	for _, r := range recs {
		for _, p := range r.Pairs {
			if k, ok := slices.BinarySearchFunc(out, p.Idx, pairAt); ok {
				out[k] = p
			} else {
				out = slices.Insert(out, k, p)
			}
		}
	}
	out = slices.DeleteFunc(out, func(p DDVPair) bool { return p.SN == 0 })
	return SparseDDV{Width: s.Width, Pairs: out}
}

// Len returns the number of stored records.
func (c *Chain) Len() int { return len(c.Recs) }

// chainRoom is how many records a chain holds before its list first
// grows: about what a node stores between two collections, so most
// chains never reallocate (a prefix drop compacts in place).
const chainRoom = 16

// Init resets the chain to the single record (sn, vec); vec is copied
// in sparse form.
func (c *Chain) Init(sn SN, vec DDV) {
	c.Anchor = sparseOf(vec, nil)
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
		c.Anchor = c.Anchor.fold([]ChainRec{{Pairs: pairs}}, nil)
	}
	c.Recs = append(c.Recs, ChainRec{SN: sn, Pairs: pairs})
}

// AppendVector is Append for a caller that holds the record's dense
// vector instead of its pairs (the oracle, whose offline replay of a
// live journal sees dense commit vectors): prev is the newest stored
// record's vector.
func (c *Chain) AppendVector(sn SN, vec, prev DDV) {
	c.Append(sn, diffPairs(nil, vec, prev))
}

// firstAbove returns the position of the oldest record with SN > sn.
func (c *Chain) firstAbove(sn SN) int {
	return sort.Search(len(c.Recs), func(i int) bool { return c.Recs[i].SN > sn })
}

// DropBelow discards the prefix of records with SN < threshold and
// returns how many records it dropped. The anchor becomes the oldest
// surviving record's vector, with the dropped records' pairs folded
// in: a new one cut from ar (nil allocates), so chains that share the
// old anchor keep it.
func (c *Chain) DropBelow(threshold SN, ar *PairArena) int {
	cut := c.below(threshold)
	if cut > 0 {
		c.Anchor = c.Anchor.fold(c.dropped(cut), ar)
		c.dropPrefix(cut)
	}
	return cut
}

// DropBelowInto is DropBelow for a chain that shares its anchor with
// nothing (the oracle's shadow chains): the new anchor is built in buf,
// which must not be the current anchor's storage, and grows it only
// past its capacity. It returns how many records it dropped and the
// storage the anchor now uses (buf, or buf grown), so a caller that
// alternates two buffers allocates nothing once they are large enough.
func (c *Chain) DropBelowInto(threshold SN, buf []DDVPair) (int, []DDVPair) {
	cut := c.below(threshold)
	if cut == 0 {
		return 0, buf
	}
	c.Anchor = c.Anchor.foldInto(buf, c.dropped(cut))
	c.dropPrefix(cut)
	return cut, c.Anchor.Pairs
}

// below returns how many records have SN < threshold.
func (c *Chain) below(threshold SN) int {
	return sort.Search(len(c.Recs), func(i int) bool { return c.Recs[i].SN >= threshold })
}

// dropped returns the records whose pairs a drop of the first cut
// records folds into the anchor: all of them but record 0 (already in
// the anchor), up to the oldest surviving record.
func (c *Chain) dropped(cut int) []ChainRec {
	return c.Recs[1 : min(cut, len(c.Recs)-1)+1]
}

// dropPrefix discards the first cut records.
func (c *Chain) dropPrefix(cut int) {
	kept := copy(c.Recs, c.Recs[cut:])
	clear(c.Recs[kept:])
	c.Recs = c.Recs[:kept]
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
	c.Anchor.Dense(dst)
	for r := 1; r <= i; r++ {
		dst.applyPairs(c.Recs[r].Pairs)
	}
}

// copyFrom makes c a copy of o that c may go on mutating: the record
// list is copied, the anchor and the pairs are shared.
func (c *Chain) copyFrom(o Chain) {
	c.Anchor = o.Anchor
	clear(c.Recs)
	c.Recs = append(c.Recs[:0], o.Recs...)
}

// column calls visit with the entry for cluster col of every record,
// oldest first, until visit returns false.
func (c *Chain) column(col topology.ClusterID, visit func(i int, v SN) bool) {
	v := c.Anchor.Get(int(col))
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
