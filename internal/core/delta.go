package core

import (
	"fmt"

	"repro/internal/topology"
)

// This file implements the delta wire representation of Direct
// Dependencies Vectors: instead of shipping one SN per cluster on every
// message that carries dependency metadata (O(width) to build, copy and
// examine), messages carry only the (index, SN) pairs that changed, and
// receivers patch a stored dense copy in place. The dense DDV type
// remains the canonical form of a node's current vector, so protocol
// logic and recorded results are untouched.
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
//   - Transitive piggybacks (AppMsg) ride a per-directed-cluster-pair
//     DeltaCodec: the simulated inter-cluster pipe is FIFO and
//     loss-free (drops happen at the destination node, after the
//     pipe), so decoding at pipe exit replays the encoder's exact
//     write sequence (see netsim.PipeExit).
//
// The pairs a commit ships are also how it is stored: a node's stored
// CLCs are a Chain (chain.go) — one sparse anchor plus each commit's
// pairs. When the harness offers no pipe codecs (see PiggyCodecs), a
// transitive piggyback is the sender's whole vector in sparse form
// (AppMsg.Piggy), the one its log entry holds. The network model prices
// dependency metadata at its dense width either way, so all recorded
// goldens are invariant under the encoding.

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

// codecJournal is how many decoded deltas a DeltaCodec remembers. A
// receiver node that examined the pipe less than codecJournal deltas
// ago re-examines only the union of the journalled pairs; one that
// fell further behind rescans the full width once.
const codecJournal = 32

// DeltaCodec is the piggyback codec of one directed inter-cluster pipe
// (the LAN/WAN uplink netsim serializes src→dst traffic through). The
// encoder half lives at the sending cluster's gateway and emits the
// pairs that changed since the last vector shipped on the pipe; the
// decoder half lives at the receiving gateway: dec replays the
// encoder's writes in pipe (FIFO) order, so after decoding message m,
// dec is byte-identical to the dense vector m would have carried.
// Node restarts do not touch the codec — like the pipe itself, the
// gateway is part of the network model, not of node volatile memory.
//
// The codec keeps one dense vector. The last vector shipped is dec
// overlaid, oldest first, with the deltas encoded but not yet decoded
// (the in-flight ring): Encode diffs against dec itself when nothing
// is in flight, and against that overlay, built in the caller's
// scratch, when something is.
//
// Invariant: every non-empty delta Encode returns is decoded exactly
// once, in pipe order — netsim.PipeExit fires for messages to down
// nodes too. Decode panics when it is handed anything but the oldest
// in-flight delta: a pipe that dropped, duplicated or reordered a delta
// would otherwise desynchronise the codec silently. Any transport that
// can do that to delta piggybacks (chaos scheduling over the delta wire
// among them) must keep this invariant first.
type DeltaCodec struct {
	dec DDV // last vector decoded off the pipe

	// flight is the ring of in-flight deltas: the inFlight slots from
	// head on (modulo its length), oldest first. It grows by doubling
	// and is reused.
	flight   [][]DDVPair
	head     int
	inFlight int

	// encGen is the sender-side DDV generation the last encode
	// reflects: when the sending node's generation still matches,
	// nothing changed and Encode is O(1). Generation 0 means "never
	// encoded".
	encGen uint64

	// ver counts non-empty decodes; journal[ (ver-1) % codecJournal ]
	// holds the pairs of the most recent one.
	ver     uint64
	journal [codecJournal][]DDVPair

	// seen is the newest version any node of the receiving cluster
	// examined with a clean (no dependency raised) outcome, qualified
	// by the epoch that node was in (seenEpoch). It is shared
	// deliberately: outside commit windows every node of an HC3I
	// cluster holds the same committed DDV (and frozen nodes do not
	// examine), so one node's clean exam covers the others. The epoch
	// qualifier closes the rollback window: while a cluster rollback
	// is in flight, a peer that has not yet executed its RollbackCmd
	// still examines with the old epoch's higher DDV, and a cursor it
	// advances must not let an already-rolled-back node (whose DDV
	// dropped) skip its own full re-examination — an exam only trusts
	// the cursor when seenEpoch matches its own epoch, and epochs
	// never go backwards. ResetSeen additionally discards the cursor
	// outright on every DDV-lowering event.
	seen      uint64
	seenEpoch Epoch

	// scratch is the encoder's reusable diff buffer.
	scratch []DDVPair
}

// Init sizes the codec for the federation width. Both ends start from
// the all-zero vector, matching a DDV's initial state.
func (c *DeltaCodec) Init(width int) {
	c.dec = NewDDV(width)
}

// Encode emits the pairs that changed since the last vector shipped on
// this pipe and advances the encoder state. gen is the sender's DDV
// generation: if it matches the previous call's, the vector is
// unchanged and no diff runs. With deltas in flight the last vector
// shipped is rebuilt in tmp, a width-sized scratch the caller owns
// (allocated here on first need). The returned slice is cut from ar and
// owned by the message; the codec holds it until Decode takes it back.
func (c *DeltaCodec) Encode(cur DDV, gen uint64, ar *PairArena, tmp *DDV) []DDVPair {
	if gen != 0 && gen == c.encGen {
		return nil
	}
	c.encGen = gen
	shipped := c.dec
	if c.inFlight > 0 {
		if len(*tmp) != len(c.dec) {
			*tmp = NewDDV(len(c.dec))
		}
		shipped = *tmp
		copy(shipped, c.dec)
		for i := 0; i < c.inFlight; i++ {
			shipped.applyPairs(c.flight[(c.head+i)%len(c.flight)])
		}
	}
	pairs := diffPairs(c.scratch[:0], cur, shipped)
	c.scratch = pairs
	if len(pairs) == 0 {
		return nil
	}
	out := ar.Clone(pairs)
	c.push(out)
	return out
}

// push appends an encoded delta to the in-flight ring.
func (c *DeltaCodec) push(pairs []DDVPair) {
	if c.inFlight == len(c.flight) {
		grown := make([][]DDVPair, max(2*len(c.flight), 4))
		for i := 0; i < c.inFlight; i++ {
			grown[i] = c.flight[(c.head+i)%len(c.flight)]
		}
		c.flight, c.head = grown, 0
	}
	c.flight[(c.head+c.inFlight)%len(c.flight)] = pairs
	c.inFlight++
}

// Decode patches the decoder vector with one message's pairs, in pipe
// order. Empty deltas never reach the decoder (Encode returns nil). It
// panics unless pairs is the oldest in-flight delta (see DeltaCodec).
func (c *DeltaCodec) Decode(pairs []DDVPair) {
	if c.inFlight == 0 || !sameSlice(c.flight[c.head], pairs) {
		panic(fmt.Sprintf("core: pipe codec decodes %v, which is not the oldest of its %d in-flight deltas", pairs, c.inFlight))
	}
	c.flight[c.head] = nil
	c.head = (c.head + 1) % len(c.flight)
	c.inFlight--
	c.dec.applyPairs(pairs)
	c.journal[c.ver%codecJournal] = pairs
	c.ver++
}

// sameSlice reports whether a and b are the same non-empty slice.
func sameSlice(a, b []DDVPair) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// Current returns the decoder vector: the exact dense vector the
// message just decoded would have carried. Owned by the codec — valid
// only until the next Decode on this pipe; callers that defer a
// message clone it first.
func (c *DeltaCodec) Current() DDV { return c.dec }

// ResetSeen discards the clean-exam cursor: the next examination
// rescans the full width. Receiving nodes call it (through
// PiggyCodecs.ResetPiggyExam) whenever their DDV may have decreased.
func (c *DeltaCodec) ResetSeen() {
	c.seen = 0
	c.seenEpoch = 0
}

// examReplayMax bounds how many journalled deltas an examination
// replays before falling back to one full-width scan (the scan is a
// tight compare loop — the dense encoding's exam — so replaying long
// windows is never cheaper).
const examReplayMax = 8

// PiggyCodecs is an optional upgrade interface of Env: a harness that
// transports transitive piggybacks in delta form returns the codec of
// the directed inter-cluster pipe src→dst (nil when the pipe has no
// codec, e.g. codec-free runs). Environments that do not implement it
// (the live runtime) get whole-vector piggybacks.
type PiggyCodecs interface {
	PiggyCodec(src, dst topology.ClusterID) *DeltaCodec
	// ResetPiggyExam discards the clean-exam cursor of every existing
	// pipe into cluster dst (without instantiating absent ones).
	ResetPiggyExam(dst topology.ClusterID)
}
