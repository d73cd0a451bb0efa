package core

// This file implements the delta wire representation of Direct
// Dependencies Vectors for the checkpoint round: instead of shipping one
// SN per cluster on every control message that carries dependency
// metadata (O(width) to build, copy and examine), messages carry only
// the (index, SN) pairs that changed, and receivers patch a stored dense
// copy in place. The dense DDV type remains the canonical form of a
// node's current vector, so protocol logic and recorded results are
// untouched.
//
// Exactness, not convergence, is the contract: every decode must yield
// byte-for-byte the vector the dense encoding would have shipped. Each
// escape point gets it from a different invariant:
//
//   - Forced-CLC demands (ForceCLC) carry only raised entries; the
//     leader merges them element-wise, and entries equal to the
//     cluster DDV merge to nothing — so omitting them is exact.
//   - Prepare acks (CLCAck, ModeIndependent) carry the entries this
//     node raised above the last committed vector; the commit merge
//     starts from a superset of that base, so unraised entries are
//     no-ops there too.
//   - Commit broadcasts (CLCCommit) are deltas against the previous
//     commit; the two-phase commit's Seq continuity guarantees every
//     participant holds exactly that base (commitBase), and every
//     rollback/recovery path resets the base from the restored record.
//
// The pairs a commit ships are also how it is stored: a node's stored
// CLCs are a Chain (chain.go) — one sparse anchor plus each commit's
// pairs. A transitive piggyback is not a delta: it is the sender's
// whole vector in sparse form (AppMsg.Piggy), the one its log entry
// holds. The network model prices dependency metadata at its dense
// width, so all recorded goldens are invariant under the encoding.

// DDVPair is one sparse DDV entry: the cluster index and its SN.
type DDVPair struct {
	Idx int32
	SN  SN
}

// applyPairs patches d in place with the pairs (d[Idx] = SN).
func (d DDV) applyPairs(pairs []DDVPair) {
	for _, p := range pairs {
		d[p.Idx] = p.SN
	}
}

// mergePairs raises d to the element-wise maximum with the pairs.
func (d DDV) mergePairs(pairs []DDVPair) {
	for _, p := range pairs {
		if p.SN > d[p.Idx] {
			d[p.Idx] = p.SN
		}
	}
}

// maxMerge raises list, a sparse vector whose absent entries are zero,
// to the element-wise maximum with pairs, and returns it: each index
// appears once, at its largest SN, in the order it was first raised.
// A scan per pair: the lists it builds (forced-CLC demands, prepare
// acks) hold a few entries.
func maxMerge(list, pairs []DDVPair) []DDVPair {
next:
	for _, p := range pairs {
		for i := range list {
			if list[i].Idx == p.Idx {
				list[i].SN = max(list[i].SN, p.SN)
				continue next
			}
		}
		if p.SN > 0 {
			list = append(list, p)
		}
	}
	return list
}

// entryOf returns entry i of list, a maxMerge list (each index at most
// once), 0 if list does not hold it. A scan, like maxMerge's.
func entryOf(list []DDVPair, i int32) SN {
	for _, p := range list {
		if p.Idx == i {
			return p.SN
		}
	}
	return 0
}

// diffPairs appends to buf one pair per entry where cur differs from
// base, and returns the extended buffer. O(width) worst case, but the
// chunked kernel skips unchanged blocks whole; callers that know
// nothing changed (generation counters) skip the call entirely.
func diffPairs(buf []DDVPair, cur, base DDV) []DDVPair {
	return diffPairsKernel(buf, cur, base)
}

// DirtySet tracks which DDV indices changed since it was last reset,
// so merges and scans iterate O(dirty entries) instead of O(width).
// A node holds several sets, so the marks are a bitset: 128 bytes per
// set at width 1024.
// The zero value is unusable; call Init first.
type DirtySet struct {
	mark []uint64 // bit i%64 of word i/64 marks index i
	idx  []int32
}

// Init sizes the set for vectors of the given width.
func (s *DirtySet) Init(width int) {
	s.mark = make([]uint64, (width+63)/64)
	s.idx = s.idx[:0]
}

// Add marks index i dirty.
func (s *DirtySet) Add(i int) {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.mark[w]&b == 0 {
		s.mark[w] |= b
		s.idx = append(s.idx, int32(i))
	}
}

// unmark clears index i's mark.
func (s *DirtySet) unmark(i int32) { s.mark[i>>6] &^= 1 << (i & 63) }

// Len returns the number of dirty indices.
func (s *DirtySet) Len() int { return len(s.idx) }

// Indices returns the dirty indices in first-marked order. The slice is
// owned by the set: valid only until the next Add or Reset.
func (s *DirtySet) Indices() []int32 { return s.idx }

// Reset clears the set in O(dirty entries).
func (s *DirtySet) Reset() {
	for _, i := range s.idx {
		s.unmark(i)
	}
	s.idx = s.idx[:0]
}

// Refresh drops every dirty index for which keep returns false,
// preserving first-marked order of the survivors.
func (s *DirtySet) Refresh(keep func(i int) bool) {
	kept := s.idx[:0]
	for _, i := range s.idx {
		if keep(int(i)) {
			kept = append(kept, i)
		} else {
			s.unmark(i)
		}
	}
	s.idx = kept
}

// PairArena hands out DDVPair slices cut from chunked backing storage:
// one chunk allocation per pairArenaChunk pairs instead of one slice
// per escaping message or per chain anchor a prefix drop builds. Slices are full-capacity
// cuts, so appends can never bleed into a neighbouring slice, and
// chunks stay valid as long as any cut references them.
type PairArena struct {
	chunk []DDVPair
	off   int
}

// pairArenaChunk is how many pairs one backing chunk holds;
// pairArenaFirst is the size of an arena's first chunk, so a node that
// only ever folds a few-entry chain anchor (a cluster member that
// sends no pairs) does not hold a full chunk for it.
const (
	pairArenaChunk = 256
	pairArenaFirst = 32
)

// Clone returns an arena-backed copy of pairs; nil stays nil (and empty
// stays empty without consuming arena space).
func (a *PairArena) Clone(pairs []DDVPair) []DDVPair {
	if len(pairs) == 0 {
		return pairs
	}
	c := a.cut(len(pairs))
	copy(c, pairs)
	return c
}

// cut returns n pairs of arena storage as a full-capacity slice; a nil
// arena allocates them.
func (a *PairArena) cut(n int) []DDVPair {
	if a == nil {
		return make([]DDVPair, n)
	}
	if a.off+n > len(a.chunk) {
		size := pairArenaChunk
		if a.chunk == nil {
			size = pairArenaFirst
		}
		a.chunk = make([]DDVPair, max(n, size))
		a.off = 0
	}
	c := a.chunk[a.off : a.off+n : a.off+n]
	a.off += n
	return c
}

// giveBack returns the last n pairs of the most recent cut, which its
// caller has shortened (capacity included) and will not touch again.
func (a *PairArena) giveBack(n int) {
	if a != nil {
		a.off -= n
	}
}
