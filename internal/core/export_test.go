package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// all copies a block list out, for the walks below to range over.
func all[T any](b *sim.Blocks[T]) []T { return b.AppendTo(nil) }

// The full-history walks the running totals and indexes replaced. They
// are the reference the O(1) paths are checked against: after every
// event of a run they must agree exactly.

// recomputeStorageBytes is StorageBytes by walking every store.
func (n *Node) recomputeStorageBytes() uint64 {
	var total uint64
	for _, r := range all(&n.clcs) {
		if !r.remote {
			total += uint64(r.stateSize)
		}
		for _, l := range r.lateLog {
			total += uint64(l.msg.Payload.Size)
		}
	}
	for _, l := range n.replicas {
		for _, rep := range all(&l.reps) {
			total += uint64(rep.Size)
		}
	}
	for _, e := range n.log {
		total += uint64(e.payload.Size)
	}
	for _, ml := range n.mirrorLogs {
		for _, e := range all(&ml.entries) {
			total += uint64(e.Payload.Size)
		}
	}
	return total
}

// logIndexConsistent checks that the MsgID index holds exactly the log:
// every entry is found under its own MsgID (so a linear first-match
// scan and the index agree) and nothing else is indexed.
func (n *Node) logIndexConsistent() error {
	if len(n.logIndex) != len(n.log) {
		return fmt.Errorf("log index holds %d ids for %d entries", len(n.logIndex), len(n.log))
	}
	for i, e := range n.log {
		if n.logIndex[e.msgID] != e {
			return fmt.Errorf("log[%d] (msg %d) is not the entry its id indexes", i, e.msgID)
		}
	}
	return nil
}

// mirrorSetConsistent checks each owner's MsgID set against its
// mirrored slice: same ids, no duplicates.
func (n *Node) mirrorSetConsistent() error {
	for owner, ml := range n.mirrorLogs {
		if len(ml.ids) != ml.entries.Len() {
			return fmt.Errorf("mirror of %v: %d ids for %d entries", owner, len(ml.ids), ml.entries.Len())
		}
		for _, e := range all(&ml.entries) {
			if _, ok := ml.ids[e.MsgID]; !ok {
				return fmt.Errorf("mirror of %v: msg %d is not in the id set", owner, e.MsgID)
			}
		}
	}
	return nil
}

// clcsOrdered checks that the stored CLCs are strictly increasing in
// SN, which deliverIntra's tail scan and the chain's searches rely on.
func (n *Node) clcsOrdered() error {
	recs := n.chain.Recs
	for i := 1; i < len(recs); i++ {
		if recs[i-1].SN >= recs[i].SN {
			return fmt.Errorf("stored CLCs out of order: SN %d before SN %d", recs[i-1].SN, recs[i].SN)
		}
	}
	return nil
}

// chainConsistent checks the stored chain against the rest of the
// node: one chain entry per record, an anchor in sparse form (non-zero
// entries inside the width, strictly ascending), every column
// non-decreasing along the chain, and commitBase equal to the newest
// record's vector.
func (n *Node) chainConsistent() error {
	c := &n.chain
	if len(c.Recs) != n.clcs.Len() {
		return fmt.Errorf("chain holds %d entries for %d records", len(c.Recs), n.clcs.Len())
	}
	if len(c.Recs) == 0 {
		return nil
	}
	if err := sparseForm(c.Anchor, len(n.ddv)); err != nil {
		return err
	}
	cur := NewDDV(c.Anchor.Width)
	c.Anchor.Dense(cur)
	for i := 1; i < len(c.Recs); i++ {
		for _, p := range c.Recs[i].Pairs {
			if p.SN < cur[p.Idx] {
				return fmt.Errorf("chain record %d lowers entry %d from %d to %d", c.Recs[i].SN, p.Idx, cur[p.Idx], p.SN)
			}
			cur[p.Idx] = p.SN
		}
	}
	if !cur.Equal(n.commitBase) {
		return fmt.Errorf("newest stored vector %v, commitBase %v", cur, n.commitBase)
	}
	return nil
}

// sparseForm checks that a is a sparse vector of the given width.
func sparseForm(a SparseDDV, width int) error {
	if a.Width != width {
		return fmt.Errorf("anchor is %d entries wide in a %d-cluster federation", a.Width, width)
	}
	if !a.Valid() {
		return fmt.Errorf("anchor %v is not in sparse form", a.Pairs)
	}
	return nil
}

// replicaKey identifies a neighbour state held in a node's memory: the
// key of the hash-map replica store the SN-ordered lists replaced, kept
// as the tests' reference.
type replicaKey struct {
	owner topology.NodeID
	seq   SN
}

// replicaStoreConsistent checks the replica store's shape: one list
// per owner, each strictly increasing in SN and holding only that
// owner's states, and replicaBytes equal to a recount.
func (n *Node) replicaStoreConsistent() error {
	var bytes uint64
	owners := map[topology.NodeID]bool{}
	for _, l := range n.replicas {
		if owners[l.owner] {
			return fmt.Errorf("replica store lists owner %v twice", l.owner)
		}
		owners[l.owner] = true
		reps := all(&l.reps)
		for i, r := range reps {
			if r.Owner != l.owner {
				return fmt.Errorf("replica of %v in the list of %v", r.Owner, l.owner)
			}
			if i > 0 && reps[i-1].Seq >= r.Seq {
				return fmt.Errorf("replicas of %v out of order: SN %d before SN %d", l.owner, reps[i-1].Seq, r.Seq)
			}
			bytes += uint64(r.Size)
		}
	}
	if bytes != n.replicaBytes {
		return fmt.Errorf("replicaBytes %d, recount %d", n.replicaBytes, bytes)
	}
	return nil
}

// lookupReplica is the store's lookup as onRecoverStateReq does it.
func (n *Node) lookupReplica(k replicaKey) (Replica, bool) {
	reps := n.replicasOf(k.owner)
	if i, ok := searchReplica(reps, k.seq); ok {
		return *reps.At(i), true
	}
	return Replica{}, false
}

// isFree reports whether the box sits in its sender's free list.
func (b *Box[T]) isFree() bool {
	for _, f := range b.home.free {
		if f == b {
			return true
		}
	}
	return false
}

// CheckStoredHistory compares every running total and index of the
// stored history with its reference walk.
func (n *Node) CheckStoredHistory() error {
	if got, want := n.StorageBytes(), n.recomputeStorageBytes(); got != want {
		return fmt.Errorf("node %v: StorageBytes %d, walk %d", n.id, got, want)
	}
	for _, err := range []error{n.logIndexConsistent(), n.mirrorSetConsistent(), n.clcsOrdered(), n.chainConsistent(), n.replicaStoreConsistent()} {
		if err != nil {
			return fmt.Errorf("node %v: %w", n.id, err)
		}
	}
	return nil
}

// mirrorLen is the number of log entries mirrored here for owner.
func (n *Node) mirrorLen(owner topology.NodeID) int {
	if ml := n.mirrorLogs[owner]; ml != nil {
		return ml.entries.Len()
	}
	return 0
}

// dropOldestCLC and dropNewestMirror undo one append in O(1) (past one
// block; a short list compacts by copying, as the stores do), so a
// benchmark can hold its history at a fixed depth.

func (n *Node) dropOldestCLC() {
	n.clcBytes -= n.clcs.At(0).storedBytes()
	n.clcs.DropFront(1)
	c := &n.chain
	c.Anchor = c.Anchor.fold(c.Recs[1:2], &n.pairArena)
	c.Recs = c.Recs[1:]
}

func (n *Node) dropNewestMirror(owner topology.NodeID) {
	ml := n.mirrorLogs[owner]
	last := *ml.entries.At(ml.entries.Len() - 1)
	ml.entries.Truncate(ml.entries.Len() - 1)
	delete(ml.ids, last.MsgID)
	n.mirrorBytes -= uint64(last.Payload.Size)
}

// ---- the dense representation the chain replaced, as the reference ----

// Meta is the metadata of one stored CLC in dense form: its sequence
// number and its own copy of the DDV recorded at commit time, as the
// paper describes it (§3.2, §3.5).
type Meta struct {
	SN  SN
	DDV DDV
}

// metas materialises the chain into the dense list it stands for.
func (c *Chain) metas() []Meta {
	ms := make([]Meta, c.Len())
	for i := range ms {
		ms[i] = Meta{SN: c.Recs[i].SN, DDV: NewDDV(c.Anchor.Width)}
		c.Vector(i, ms[i].DDV)
	}
	return ms
}

// StoredMetas returns the node's stored CLCs in dense form, oldest
// first.
func (n *Node) StoredMetas() []Meta { return n.chain.metas() }

// chainFromMetas is the inverse of metas for a list whose vectors are
// width wide.
func chainFromMetas(list []Meta, width int) Chain {
	c := Chain{Anchor: SparseDDV{Width: width}}
	for i, m := range list {
		if i == 0 {
			c.Init(m.SN, m.DDV)
		} else {
			c.AppendVector(m.SN, m.DDV, list[i-1].DDV)
		}
	}
	return c
}

func chainsFromMetas(lists [][]Meta, width int) []Chain {
	cs := make([]Chain, len(lists))
	for j, l := range lists {
		cs[j] = chainFromMetas(l, width)
	}
	return cs
}

// currentPatches turns dense current vectors into what the analysis
// takes: per cluster j, the pairs where currents[j] differs from the
// newest vector chains[j] stores (its anchor when it stores none). A
// cluster without a chain is patched against the zero vector, so a
// count mismatch reaches the analysis as one.
func currentPatches(chains []Chain, currents []DDV) [][]DDVPair {
	patches := make([][]DDVPair, len(currents))
	for j, cur := range currents {
		newest := NewDDV(len(cur))
		if j < len(chains) {
			chains[j].Vector(chains[j].Len()-1, newest)
		}
		patches[j] = diffPairs(nil, cur, newest)
	}
	return patches
}

// denseOldestWith is Chain.OldestWith on the dense list.
func denseOldestWith(list []Meta, c topology.ClusterID, s SN) int {
	for i, m := range list {
		if m.DDV[c] >= s {
			return i
		}
	}
	return -1
}

// denseNewestBelow is Chain.NewestBelow on the dense list.
func denseNewestBelow(list []Meta, c topology.ClusterID, s SN) int {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].DDV[c] < s {
			return i
		}
	}
	return -1
}

// denseSimulateFailure is SimulateFailure on dense lists: lists[j] is
// cluster j's stored checkpoints in commit order.
func denseSimulateFailure(lists [][]Meta, currents []DDV, f topology.ClusterID) (RecoveryLine, error) {
	n := len(lists)
	if len(currents) != n {
		return RecoveryLine{}, fmt.Errorf("core: %d checkpoint chains but %d current vectors", n, len(currents))
	}
	rl := RecoveryLine{
		Index:      make([]int, n),
		SN:         make([]SN, n),
		RolledBack: make([]bool, n),
	}
	eff := make([]DDV, n) // effective DDV after rollbacks so far
	for j := 0; j < n; j++ {
		rl.Index[j] = len(lists[j])
		rl.SN[j] = currents[j][j]
		eff[j] = currents[j]
	}

	type alert struct {
		c topology.ClusterID
		s SN
	}
	var queue []alert

	rollTo := func(j topology.ClusterID, idx int) {
		m := lists[j][idx]
		rl.Index[j] = idx
		rl.SN[j] = m.SN
		rl.RolledBack[j] = true
		eff[j] = m.DDV
		queue = append(queue, alert{j, m.SN})
		rl.Alerts += n - 1
	}

	if len(lists[f]) == 0 {
		return rl, fmt.Errorf("core: faulty cluster %d has no stored checkpoint", f)
	}
	rollTo(f, len(lists[f])-1)

	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for j := topology.ClusterID(0); int(j) < n; j++ {
			if j == a.c || !NeedsRollback(eff[j], a.c, a.s) {
				continue
			}
			idx := denseOldestWith(lists[j], a.c, a.s)
			if idx == -1 {
				return rl, fmt.Errorf("core: cluster %d depends on cluster %d SN>=%d but stores no qualifying checkpoint", j, a.c, a.s)
			}
			if idx < rl.Index[j] {
				rollTo(j, idx)
			}
		}
	}
	return rl, nil
}

// denseSmallestSNs is SmallestSNs on dense lists.
func denseSmallestSNs(lists [][]Meta, currents []DDV) ([]SN, error) {
	n := len(lists)
	min := make([]SN, n)
	for j := 0; j < n; j++ {
		min[j] = currents[j][j]
	}
	for f := 0; f < n; f++ {
		rl, err := denseSimulateFailure(lists, currents, topology.ClusterID(f))
		if err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			if rl.SN[j] < min[j] {
				min[j] = rl.SN[j]
			}
		}
	}
	return min, nil
}

// sameLine reports how two recovery lines differ, "" if they do not.
func sameLine(got, want RecoveryLine) string {
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Sprintf("chain analysis %+v, dense reference %+v", got, want)
	}
	return ""
}

// sameErr reports how two analysis errors differ, "" if they do not.
func sameErr(got, want error) string {
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		return fmt.Sprintf("chain analysis error %v, dense reference error %v", got, want)
	}
	return ""
}

// The differential forms every history test goes through: each runs
// the chain code and the dense reference on the same history and fails
// t if they disagree.

func oldestWith(t testing.TB, list []Meta, c topology.ClusterID, s SN) int {
	t.Helper()
	want := denseOldestWith(list, c, s)
	ch := chainFromMetas(list, len(list[0].DDV))
	if got := ch.OldestWith(c, s); got != want {
		t.Fatalf("Chain.OldestWith(c%d, %d) = %d, dense reference %d", c, s, got, want)
	}
	x, err := indexChain(ch, nil, ch.Anchor.Width, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.oldestWith(c, s); got != want {
		t.Fatalf("indexed oldestWith(c%d, %d) = %d, dense reference %d", c, s, got, want)
	}
	return want
}

func newestBelow(t testing.TB, list []Meta, c topology.ClusterID, s SN) int {
	t.Helper()
	want := denseNewestBelow(list, c, s)
	ch := chainFromMetas(list, len(list[0].DDV))
	if got := ch.NewestBelow(c, s); got != want {
		t.Fatalf("Chain.NewestBelow(c%d, %d) = %d, dense reference %d", c, s, got, want)
	}
	return want
}

func simulateFailure(t testing.TB, lists [][]Meta, currents []DDV, f topology.ClusterID) (RecoveryLine, error) {
	t.Helper()
	want, wantErr := denseSimulateFailure(lists, currents, f)
	chains := chainsFromMetas(lists, len(lists))
	got, err := SimulateFailure(chains, currentPatches(chains, currents), f)
	if d := sameErr(err, wantErr); d != "" {
		t.Fatalf("failure in cluster %d: %s", f, d)
	}
	if d := sameLine(got, want); err == nil && d != "" {
		t.Fatalf("failure in cluster %d: %s", f, d)
	}
	return want, wantErr
}

func smallestSNs(t testing.TB, lists [][]Meta, currents []DDV) ([]SN, error) {
	t.Helper()
	want, wantErr := denseSmallestSNs(lists, currents)
	chains := chainsFromMetas(lists, len(lists))
	got, err := SmallestSNs(chains, currentPatches(chains, currents))
	if d := sameErr(err, wantErr); d != "" {
		t.Fatal(d)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chain thresholds %v, dense reference %v", got, want)
	}
	return want, wantErr
}

// ---- the dense shadow of a run ----

// DenseShadows keeps, for every node attached to it, the dense
// stored-CLC list the chain replaced — one owned vector per stored CLC —
// maintained the way the parent commit maintained it, from the same
// events: a commit appends the committed vector, a rollback truncates,
// a GC drop cuts the prefix, a recovery adopts the list the holder
// answered with. A test harness shows it every node's events through
// NodeEvent, routes Env.Send through Sent and message delivery through
// Deliver, and calls Check after every event.
//
// It also keeps each node's replica store as the hash map the
// SN-ordered lists replaced (map[replicaKey]Replica), mutated from the
// same events: a seed or an accepted Replica stores, a GC drop deletes
// below the threshold, a local rollback above its target (observed at
// the restore, or at the RecoverStateReq a remote restore sends first),
// a restart empties it. The harness routes seeding through SeedReplica
// and the node's events through NodeEvent.
type DenseShadows struct {
	nodes    map[topology.NodeID]*Node
	replicas map[topology.NodeID]map[replicaKey]Replica
	// inRecovery is set while a node handles a RecoverStateResp, until
	// the restore that completes the recovery, which drops no replica.
	inRecovery bool

	lists map[topology.NodeID][]Meta
	// answers holds, per RecoverStateResp in flight (keyed by the first
	// record of its chain snapshot's own list), the holder's dense
	// list when it answered.
	answers map[*ChainRec][]Meta
	// recovering is the answer the node now handling a RecoverStateResp
	// was sent; nil outside Deliver.
	recovering []Meta
	// gcRounds is the round each node's last GC drop named.
	gcRounds map[topology.NodeID]uint64
	err      error
}

func NewDenseShadows() *DenseShadows {
	return &DenseShadows{
		nodes:    map[topology.NodeID]*Node{},
		replicas: map[topology.NodeID]map[replicaKey]Replica{},
		lists:    map[topology.NodeID][]Meta{},
		answers:  map[*ChainRec][]Meta{},
		gcRounds: map[topology.NodeID]uint64{},
	}
}

// Attach starts n's shadow from its initial checkpoint and an empty
// replica store.
func (d *DenseShadows) Attach(n *Node) {
	d.nodes[n.id] = n
	d.replicas[n.id] = map[replicaKey]Replica{}
	d.lists[n.id] = n.StoredMetas()
}

// SeedReplica seeds r into holder, as Node.SeedReplica, and into the
// holder's reference store.
func (d *DenseShadows) SeedReplica(holder *Node, r Replica) {
	holder.SeedReplica(r)
	d.replicas[holder.id][replicaKey{owner: r.Owner, seq: r.Seq}] = r
}

// NodeEvent sees node id's protocol events: a commit appends to its
// dense list, a restore truncates it, a GC drop cuts its prefix, and a
// restart empties its reference store, as the crash emptied the node's.
func (d *DenseShadows) NodeEvent(id topology.NodeID, ev Event) {
	switch ev.Kind {
	case EventCLCCommitted:
		d.lists[id] = append(d.lists[id], Meta{SN: ev.Seq, DDV: ev.DDV.Clone()})
	case EventRestore:
		d.restore(id, ev.Seq, ev.DDV)
	case EventGCDrop:
		d.gcRounds[id] = ev.Round
		d.gcDrop(id, ev.DDV)
	case EventRestarted:
		clear(d.replicas[id])
	}
}

// dropReplicas deletes the reference entries of id that drop accepts.
func (d *DenseShadows) dropReplicas(id topology.NodeID, drop func(seq SN) bool) {
	for k := range d.replicas[id] {
		if drop(k.seq) {
			delete(d.replicas[id], k)
		}
	}
}

// checkReplicas holds n's replica store against its reference map: the
// same number of states, and every lookup of a reference key finds that
// state.
func (d *DenseShadows) checkReplicas(n *Node) error {
	ref := d.replicas[n.id]
	if got := n.ReplicaCount(); got != len(ref) {
		return fmt.Errorf("node %v: replica store holds %d states, reference map %d", n.id, got, len(ref))
	}
	for k, want := range ref {
		got, ok := n.lookupReplica(k)
		if !ok {
			return fmt.Errorf("node %v: replica %d of %v not found, reference map holds it", n.id, k.seq, k.owner)
		}
		if got.Seq != want.Seq || got.Epoch != want.Epoch || got.Owner != want.Owner || got.Size != want.Size {
			return fmt.Errorf("node %v: replica %d of %v is %+v, reference map %+v", n.id, k.seq, k.owner, got, want)
		}
	}
	return nil
}

func (d *DenseShadows) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *DenseShadows) restore(id topology.NodeID, toSN SN, ddv DDV) {
	if d.inRecovery {
		// The recovery's own restore; a rollback it cascades into
		// afterwards drops as usual.
		d.inRecovery = false
	} else {
		d.dropReplicas(id, func(seq SN) bool { return seq > toSN })
	}
	list := d.lists[id]
	if d.recovering != nil {
		// Recovery: the list is the holder's answer, each vector copied
		// as the parent's onRecoverStateResp copied it.
		list = list[:0]
		for _, m := range d.recovering {
			list = append(list, Meta{SN: m.SN, DDV: m.DDV.Clone()})
		}
	}
	for len(list) > 0 && list[len(list)-1].SN > toSN {
		list = list[:len(list)-1]
	}
	d.lists[id] = list
	if len(list) == 0 || list[len(list)-1].SN != toSN {
		d.fail("node %v restored CLC %d, which its dense shadow does not hold", id, toSN)
	} else if !list[len(list)-1].DDV.Equal(ddv) {
		d.fail("node %v restored CLC %d as %v, its dense shadow holds %v", id, toSN, ddv, list[len(list)-1].DDV)
	}
}

func (d *DenseShadows) gcDrop(id topology.NodeID, minSNs []SN) {
	d.dropReplicas(id, func(seq SN) bool { return seq < minSNs[id.Cluster] })
	list := d.lists[id]
	for len(list) > 0 && list[0].SN < minSNs[id.Cluster] {
		list = list[1:]
	}
	d.lists[id] = list
}

// Sent sees every message src hands to its Env: a recovery answer is
// paired with src's dense list as of now, cut like the answer's chain;
// a recovery query from a node that did not lose its state follows the
// local rollback that dropped its replicas above the queried SN.
func (d *DenseShadows) Sent(src topology.NodeID, msg Msg) {
	if req, ok := msg.(RecoverStateReq); ok && !d.nodes[src].lostState {
		d.dropReplicas(src, func(seq SN) bool { return seq > req.Seq })
	}
	resp, ok := msg.(RecoverStateResp)
	if !ok || resp.Chain.Len() == 0 {
		return
	}
	var answer []Meta
	for _, m := range d.lists[src] {
		if m.SN <= resp.Seq {
			answer = append(answer, m)
		}
	}
	d.answers[&resp.Chain.Recs[0]] = answer
}

// Deliver hands msg to n, telling the shadow which answer a recovery
// inside that call adopts, and stores a Replica the node accepts into
// its reference store.
func (d *DenseShadows) Deliver(n *Node, src topology.NodeID, msg Msg) {
	var rep Replica
	isRep := false
	switch m := msg.(type) {
	case Replica:
		rep, isRep = m, true
	case *Box[Replica]:
		rep, isRep = m.M, true
	case RecoverStateResp:
		d.inRecovery = true
		defer func() { d.inRecovery = false }()
		if m.Chain.Len() > 0 {
			d.recovering = d.answers[&m.Chain.Recs[0]]
			defer func() { d.recovering = nil }()
		}
	}
	accepted := isRep && !n.failed && rep.Epoch == n.epoch && src.Cluster == n.cluster
	n.OnMessage(src, msg)
	if accepted {
		d.replicas[n.id][replicaKey{owner: rep.Owner, seq: rep.Seq}] = rep
	}
}

// Check holds n's replica store against its reference map, and n's
// chain, materialised, against its dense shadow: the same SNs, the
// anchor equal to the oldest stored vector, and every later record's
// vector equal to the one its commit copied.
func (d *DenseShadows) Check(n *Node) error {
	if d.err != nil {
		return d.err
	}
	if err := d.checkReplicas(n); err != nil {
		return err
	}
	if n.lostState {
		return nil // volatile memory gone: both lists are void until recovery
	}
	got, want := n.StoredMetas(), d.lists[n.id]
	if len(got) != len(want) {
		return fmt.Errorf("node %v: chain stores %d CLCs, dense shadow %d", n.id, len(got), len(want))
	}
	for i := range got {
		if got[i].SN != want[i].SN {
			return fmt.Errorf("node %v: record %d is CLC %d, dense shadow has CLC %d", n.id, i, got[i].SN, want[i].SN)
		}
		if !got[i].DDV.Equal(want[i].DDV) {
			what := "materialised vector"
			if i == 0 {
				what = "anchor"
			}
			return fmt.Errorf("node %v: CLC %d %s %v, dense shadow %v", n.id, got[i].SN, what, got[i].DDV, want[i].DDV)
		}
	}
	return nil
}

// Equal reports whether s and o are the same vector.
func (s SparseDDV) Equal(o SparseDDV) bool {
	return s.Width == o.Width && slices.Equal(s.Pairs, o.Pairs)
}

// StoredChainDiff reports how the stored chains of a and b differ —
// anchor, SNs or any record's pairs — or "" if they are equal.
func StoredChainDiff(a, b *Node) string {
	ca, cb := &a.chain, &b.chain
	if !ca.Anchor.Equal(cb.Anchor) {
		return fmt.Sprintf("anchor %v vs %v", ca.Anchor, cb.Anchor)
	}
	if len(ca.Recs) != len(cb.Recs) {
		return fmt.Sprintf("%d records vs %d", len(ca.Recs), len(cb.Recs))
	}
	for i, ra := range ca.Recs {
		rb := cb.Recs[i]
		if ra.SN != rb.SN {
			return fmt.Sprintf("record %d: CLC %d vs CLC %d", i, ra.SN, rb.SN)
		}
		if i > 0 && fmt.Sprint(ra.Pairs) != fmt.Sprint(rb.Pairs) {
			return fmt.Sprintf("pairs of CLC %d: %v vs %v", ra.SN, ra.Pairs, rb.Pairs)
		}
	}
	return ""
}

// StoredPairs returns the pair sets of n's stored records after the
// anchor, oldest first.
func (n *Node) StoredPairs() [][]DDVPair {
	var ps [][]DDVPair
	for _, r := range n.chain.Recs[1:] {
		ps = append(ps, r.Pairs)
	}
	return ps
}
