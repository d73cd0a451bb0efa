// Package oracle is the protocol's online invariant checker: a
// passive subscriber to the protocol's core.Event stream (Observe),
// attachable to any federation run, that asserts, at every delivery,
// commit, restore and garbage-collection event, the global safety
// properties the paper claims —
//
//   - per-epoch DDV monotonicity and cluster-wide commit agreement
//     (§3.1/§3.2: the two-phase commit keeps the committed vector
//     identical on every node, and dependency entries never decrease
//     between rollbacks),
//   - commit-line domination of every stable checkpoint (§3.2: the
//     newest committed vector dominates the whole stored chain),
//   - no orphan messages after a rollback (§3.4: every delivery whose
//     send is later rolled back must be erased by the receiver's own
//     cascaded rollback before the run ends),
//   - recovery-line sanity (§3.4: rollbacks restore checkpoints that
//     exist, agree cluster-wide, and epochs never skip),
//   - garbage-collection safety (§3.5: no collection discards a
//     checkpoint some future recovery could still need; the collector's
//     analysis is rerun over the shadow state once per GC round — at the
//     first drop of each threshold vector, again after any rollback —
//     see gcDrop),
//   - delta-codec/pipe lockstep (the wire-encoding contract of
//     core/delta.go: at every pipe exit the decoder holds exactly the
//     dense vector the message stood for).
//
// The oracle maintains a cheap shadow causal history — one vector,
// one rollback log and one stored-checkpoint chain per cluster, the
// chain being the very core.Chain the nodes store and the collector
// analyses — patched with the same delta pairs the wire carries, so the
// steady-state checks are O(changed entries), not O(federation width);
// the dense commit path, which the offline replay of a live journal
// feeds (journals record commits as dense vectors), pays a full-width
// compare. It never touches statistics, RNG streams or
// the event queue: runs are byte-identical with the oracle attached,
// which the determinism suite pins against the recorded goldens.
package oracle

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// MaxViolations bounds how many violations one run records; the first
// one already fails the run, the rest are context.
const MaxViolations = 16

// rollbackRec is one observed epoch bump of a cluster: the checkpoint
// it restored and the vector it resumed from. Epochs advance one at a
// time, so a cluster's rolls[i] is the rollback into epoch i+1.
type rollbackRec struct {
	epoch core.Epoch
	toSN  core.SN
	ddv   core.DDV
}

// delivRec is one live inter-cluster delivery into this cluster. It is
// pruned when the receiver rolls back past it (the delivery is erased)
// or when a garbage collection proves the sender can never again roll
// back past the send; if the *sender* rolls back past the send first,
// the record becomes an orphan obligation the receiver must erase
// before the run ends.
type delivRec struct {
	src      topology.ClusterID
	srcEpoch core.Epoch
	sendSN   core.SN
	recvSN   core.SN
	orphaned bool
}

// clusterShadow is the oracle's causal history of one cluster.
type clusterShadow struct {
	epoch core.Epoch
	sn    core.SN
	// nPairs is the pair count of the first observation of commit sn,
	// -1 when sn was not committed in pairs (the initial checkpoint, a
	// dense commit, a restore): every node's commit of sn must ship
	// that many.
	nPairs int
	cur    core.DDV   // committed line: the newest committed vector
	chain  core.Chain // stored checkpoints
	rolls  []rollbackRec
	delivs []delivRec // inter-cluster deliveries INTO this cluster

	// anchorBufs are the two buffers the chain's prefix drops build its
	// anchor in, alternately: anchorBufs[anchorIn] may be the anchor's
	// storage, the other never is. Nothing shares a shadow chain's
	// anchor, so a drop reuses the buffer the previous anchor left.
	anchorBufs [2][]core.DDVPair
	anchorIn   int
}

// Oracle is one run's invariant checker. All methods must be invoked
// from the simulation goroutine (it is as single-threaded as the
// protocol it watches).
type Oracle struct {
	width    int
	clusters []clusterShadow
	// pipes holds, per directed cluster pair (src*width+dst) that
	// carried a delta piggyback, the FIFO queue of vectors entering the
	// pipe, as their non-zero pairs, whose decoded counterparts must
	// reappear at pipe exit. The pairs are the senders' shared sparse
	// piggybacks — immutable once handed out — so the queue stores
	// references, never copies.
	pipes topology.PairTable[[][]core.DDVPair]
	// vec is the scratch a stored vector is materialised into.
	vec core.DDV
	// gc caches the garbage-collection safety analysis (gcDrop).
	gc gcCheck

	// Clock supplies the virtual clock for violation context (optional).
	Clock func() sim.Time
	// OnFirstViolation fires once, at the first recorded violation;
	// harnesses hook it to stop the simulation early.
	OnFirstViolation func()

	// lazyDeps is set when any node runs ModeIndependent: lazy
	// dependency tracking delivers before the cluster DDV names the
	// dependency, so the no-orphan obligation does not apply — that
	// gap is the documented cost of the baseline (§2.2), not a bug.
	lazyDeps bool

	violations []error
	dropped    int // violations beyond MaxViolations
}

// anchorRoom is how many entries each of a shadow chain's anchor
// buffers holds before it first grows.
const anchorRoom = 8

// New returns an oracle for a federation of nClusters clusters, seeded
// with the protocol's initial state: every cluster starts at epoch 0,
// SN 1, with its initial checkpoint stored (core.NewNode's "the
// beginning of the application" CLC).
func New(nClusters int) *Oracle {
	o := &Oracle{
		width:    nClusters,
		clusters: make([]clusterShadow, nClusters),
		vec:      core.NewDDV(nClusters),
		gc: gcCheck{
			chains:   make([]core.Chain, nClusters),
			currents: make([]core.DDV, nClusters),
		},
	}
	room := make([]core.DDVPair, 2*nClusters*anchorRoom)
	for i := range o.clusters {
		c := &o.clusters[i]
		c.sn = 1
		c.nPairs = -1
		c.cur = core.NewDDV(nClusters)
		c.cur[i] = 1
		c.chain.Init(1, c.cur)
		for k := range c.anchorBufs {
			off := (2*i + k) * anchorRoom
			c.anchorBufs[k] = room[off : off : off+anchorRoom]
		}
	}
	return o
}

// violatef records one invariant violation.
func (o *Oracle) violatef(format string, args ...any) {
	if len(o.violations) >= MaxViolations {
		o.dropped++
		return
	}
	prefix := "oracle: "
	if o.Clock != nil {
		prefix = fmt.Sprintf("oracle: t=%v ", o.Clock())
	}
	o.violations = append(o.violations, fmt.Errorf(prefix+format, args...))
	if len(o.violations) == 1 && o.OnFirstViolation != nil {
		o.OnFirstViolation()
	}
}

// Err returns the first recorded violation, nil if the run is clean so
// far.
func (o *Oracle) Err() error {
	if len(o.violations) == 0 {
		return nil
	}
	return o.violations[0]
}

// Violations returns every recorded violation (capped at
// MaxViolations).
func (o *Oracle) Violations() []error { return o.violations }

// Observe is the oracle's one entry point: it checks node id's protocol
// event ev. Events arrive one at a time, in the order the protocol
// emitted them (the simulator's sink calls it inside the event); a DDV
// it keeps is copied, while commit pairs and piggyback vectors are
// immutable and retained. Kinds that carry no safety claim (the trace
// points) are ignored.
func (o *Oracle) Observe(id topology.NodeID, ev core.Event) {
	switch ev.Kind {
	case core.EventNodeStart:
		// Mode scopes mode-specific claims: the no-orphan obligation
		// assumes eager dependency tracking (ModeHC3I / ModeForceAll
		// raise the cluster DDV before delivering), which
		// ModeIndependent's lazy tracking deliberately gives up —
		// orphans between commits are the documented cost of that
		// baseline (§2.2), not a violation.
		if ev.Mode == core.ModeIndependent {
			o.lazyDeps = true
		}
	case core.EventCLCCommitted:
		o.commit(id, ev.Seq, ev.Epoch, ev.DDV, ev.Pairs)
	case core.EventRestore:
		o.restore(id, ev.Seq, ev.Epoch, ev.DDV)
	case core.EventDeliver:
		o.deliver(id, ev.Peer, ev.PeerEpoch, ev.Seq, ev.SN)
	case core.EventPiggySend:
		q := o.pipes.Get(int(id.Cluster)*o.width + int(ev.Cluster))
		*q = append(*q, ev.Pairs)
	case core.EventGCDrop:
		o.gcDrop(id, ev.DDV)
	}
}

// commit checks per-epoch monotonicity, own-entry continuity and
// cluster-wide commit agreement, then advances the shadow chain. With
// delta pairs the work is O(changed entries): unchanged entries equal
// the previous commit, which an earlier commit already verified — the
// induction the commitBase wire invariant rests on. That induction
// needs every node to ship the same pairs, so a later node's commit
// must also match the first one's pair count: a missing pair is not a
// disagreeing one.
func (o *Oracle) commit(id topology.NodeID, seq core.SN, epoch core.Epoch, ddv core.DDV, pairs []core.DDVPair) {
	c := &o.clusters[id.Cluster]
	if epoch != c.epoch {
		o.violatef("commit: %v committed CLC %d in epoch %d, cluster epoch is %d", id, seq, epoch, c.epoch)
		return
	}
	switch {
	case seq == c.sn:
		// A later node applying the commit the shadow already holds:
		// every node of the cluster must install the identical vector.
		if pairs != nil {
			if c.nPairs >= 0 && len(pairs) != c.nPairs {
				o.violatef("commit agreement: %v CLC %d ships %d pairs, cluster committed %d",
					id, seq, len(pairs), c.nPairs)
				return
			}
			for _, p := range pairs {
				if c.cur[p.Idx] != p.SN {
					o.violatef("commit agreement: %v CLC %d entry %d = %d, cluster committed %d",
						id, seq, p.Idx, p.SN, c.cur[p.Idx])
					return
				}
			}
		} else if !ddv.Equal(c.cur) {
			o.violatef("commit agreement: %v CLC %d vector %v, cluster committed %v", id, seq, ddv, c.cur)
		}
	case seq == c.sn+1:
		// First observation of the next commit: entries never decrease
		// within an epoch, and the own entry advances by exactly one.
		if pairs != nil {
			for _, p := range pairs {
				if p.SN < c.cur[p.Idx] {
					o.violatef("DDV monotonicity: %v CLC %d lowers entry %d from %d to %d",
						id, seq, p.Idx, c.cur[p.Idx], p.SN)
					return
				}
			}
			for _, p := range pairs {
				c.cur[p.Idx] = p.SN
			}
			c.chain.Append(seq, pairs)
			c.nPairs = len(pairs)
		} else {
			for i, v := range ddv {
				if v < c.cur[i] {
					o.violatef("DDV monotonicity: %v CLC %d lowers entry %d from %d to %d",
						id, seq, i, c.cur[i], v)
					return
				}
			}
			c.chain.AppendVector(seq, ddv, c.cur)
			c.cur.CopyFrom(ddv)
			c.nPairs = -1
		}
		if c.cur[id.Cluster] != seq {
			o.violatef("commit: %v CLC %d own entry is %d", id, seq, c.cur[id.Cluster])
		}
		c.sn = seq
	default:
		o.violatef("commit continuity: %v committed CLC %d, cluster line is at %d", id, seq, c.sn)
	}
}

// restore checks that the restored checkpoint exists in the
// shadow chain, that every node of the cluster restores the same one,
// and that epochs advance one at a time; it then truncates the chain,
// erases the deliveries the restore undoes, and marks as orphan
// obligations every other cluster's live delivery whose send this
// rollback discarded.
func (o *Oracle) restore(id topology.NodeID, toSN core.SN, newEpoch core.Epoch, ddv core.DDV) {
	c := &o.clusters[id.Cluster]
	switch {
	case newEpoch == c.epoch+1:
		// First observation of this epoch's rollback: it may lower a
		// safe minimum, so the cached GC analysis is stale.
		o.gc.valid = false
		c.chain.TruncateAfter(toSN)
		if idx := c.chain.Index(toSN); idx < 0 {
			o.violatef("rollback: %v restored CLC %d which the cluster no longer stores (GC unsafe?)", id, toSN)
			// Resync the shadow from the reported state so one
			// violation does not cascade into noise.
			if last := c.chain.Len() - 1; last < 0 {
				c.chain.Init(toSN, ddv)
			} else {
				c.chain.Vector(last, o.vec)
				c.chain.AppendVector(toSN, ddv, o.vec)
			}
			c.cur.CopyFrom(ddv)
		} else {
			c.chain.Vector(idx, c.cur)
			if !ddv.Equal(c.cur) {
				o.violatef("rollback: %v restored CLC %d with vector %v, committed as %v",
					id, toSN, ddv, c.cur)
			}
		}
		oldEpoch := c.epoch
		c.epoch = newEpoch
		c.sn = toSN
		c.nPairs = -1
		c.rolls = append(c.rolls, rollbackRec{epoch: newEpoch, toSN: toSN, ddv: c.cur.Clone()})
		// Deliveries into this cluster made at or after the restored
		// checkpoint are erased by the restore.
		kept := c.delivs[:0]
		for _, d := range c.delivs {
			if d.recvSN < toSN {
				kept = append(kept, d)
			}
		}
		c.delivs = kept
		// Deliveries out of this cluster whose send is now discarded
		// (sent at or after the restored checkpoint, in the aborted
		// epoch or earlier) become orphan obligations at their
		// receivers.
		src := id.Cluster
		for j := range o.clusters {
			if topology.ClusterID(j) == src {
				continue
			}
			for k := range o.clusters[j].delivs {
				d := &o.clusters[j].delivs[k]
				if d.src == src && d.srcEpoch <= oldEpoch && d.sendSN >= toSN {
					d.orphaned = true
				}
			}
		}
	case newEpoch == c.epoch:
		if toSN != c.sn {
			o.violatef("rollback agreement: %v restored CLC %d, cluster rolled back to %d", id, toSN, c.sn)
		} else if !ddv.Equal(c.cur) {
			o.violatef("rollback agreement: %v restored vector %v, cluster restored %v", id, ddv, c.cur)
		}
	case newEpoch < c.epoch:
		// A straggler executing a superseded rollback command: legal,
		// but it must match the rollback that created that epoch,
		// rolls[newEpoch-1]. Epoch 0 is entered by no rollback.
		if newEpoch == 0 {
			o.violatef("rollback: %v restored epoch %d the cluster never entered", id, newEpoch)
			return
		}
		r := &c.rolls[newEpoch-1]
		if r.toSN != toSN {
			o.violatef("rollback agreement: %v restored CLC %d for epoch %d, cluster restored %d",
				id, toSN, newEpoch, r.toSN)
		} else if !ddv.Equal(r.ddv) {
			o.violatef("rollback agreement: %v epoch %d vector %v, cluster restored %v",
				id, newEpoch, ddv, r.ddv)
		}
	default:
		o.violatef("rollback: %v skipped from epoch %d to %d", id, c.epoch, newEpoch)
	}
}

// deliver checks a delivery into dst against the sender's shadow
// history — no message may carry an epoch the sender never reached or
// an SN it never committed — and records it for orphan accounting: if
// the sender later rolls back past the send, the receiver must erase
// the delivery (its own cascaded rollback) before the run ends.
func (o *Oracle) deliver(dst, src topology.NodeID, srcEpoch core.Epoch, sendSN, recvSN core.SN) {
	s := &o.clusters[src.Cluster]
	if srcEpoch > s.epoch {
		o.violatef("delivery: %v delivered message from %v with epoch %d, sender cluster is at %d",
			dst, src, srcEpoch, s.epoch)
		return
	}
	if srcEpoch == s.epoch && sendSN > s.sn {
		o.violatef("delivery: %v delivered message from %v with SendSN %d, sender cluster committed only %d",
			dst, src, sendSN, s.sn)
		return
	}
	if o.lazyDeps {
		return // no orphan obligation without eager dependency tracking
	}
	d := delivRec{src: src.Cluster, srcEpoch: srcEpoch, sendSN: sendSN, recvSN: recvSN}
	// A prior-epoch delivery is an orphan obligation from birth when
	// some rollback after its epoch already discarded the send. rolls
	// holds one record per epoch (rolls[i] created epoch i+1), so only
	// the newest len(rolls)-srcEpoch records are after the send's epoch.
	for i := len(s.rolls) - 1; i >= 0 && s.rolls[i].epoch > srcEpoch; i-- {
		if sendSN >= s.rolls[i].toSN {
			d.orphaned = true
			break
		}
	}
	o.clusters[dst.Cluster].delivs = append(o.clusters[dst.Cluster].delivs, d)
}

// CheckPipeExit verifies the delta-codec lockstep contract at a pipe
// exit: decoded (the pipe decoder's vector after this message) must
// equal the vector the matching EventPiggySend stood for, which Observe
// queued on the pipe's expectation queue — every listed entry matches
// and every other entry is zero. The harness calls it for every
// delta-piggybacked message leaving a pipe, in pipe order.
func (o *Oracle) CheckPipeExit(src, dst topology.ClusterID, decoded core.DDV) {
	q := o.pipes.Find(int(src)*o.width + int(dst))
	if q == nil || len(*q) == 0 {
		o.violatef("pipe lockstep: c%d->c%d exit without an observed send", src, dst)
		return
	}
	want := (*q)[0]
	(*q)[0] = nil
	*q = (*q)[1:]
	if !sparseEqual(decoded, want) {
		o.violatef("pipe lockstep: c%d->c%d decoder holds %v, sender shipped %v", src, dst, decoded, want)
	}
}

// sparseEqual reports whether vec equals the vector whose non-zero
// entries are pairs, in ascending index order.
func sparseEqual(vec core.DDV, pairs []core.DDVPair) bool {
	k := 0
	for i, v := range vec {
		var w core.SN
		if k < len(pairs) && int(pairs[k].Idx) == i {
			w = pairs[k].SN
			k++
		}
		if v != w {
			return false
		}
	}
	return k == len(pairs)
}

// gcCheck is the §3.5 analysis of the shadow state, kept for the
// threshold vector it was last run for. A GC round's drops all name one
// vector, so the oracle analyses once per round, on memory it reuses.
type gcCheck struct {
	valid bool
	key   []core.SN // the threshold vector the analysis was run for
	fresh []core.SN // the analysis's minimums
	err   error
	// uncached makes every drop rerun the analysis: the reference the
	// cache is tested against (export_test.go).
	uncached bool

	lines    core.LineAnalyzer
	chains   []core.Chain
	currents []core.DDV
}

// gcDrop checks garbage-collection safety: the distributed
// thresholds must never exceed what the recovery-line analysis over
// the oracle's own shadow state allows (a higher threshold discards a
// checkpoint some simulated failure still needs). It then prunes the
// shadow chain like the protocol does and retires delivery records the
// collection proved permanently safe.
//
// The analysis runs at the first drop of a threshold vector and is
// reused by the round's later drops. Reuse is sound because, in
// between, shadow commits only raise the safe minimums and shadow
// drops below a safe threshold discard nothing a simulated failure
// needs; a rollback can lower a minimum, so restore invalidates the
// cache. The first drop of every round therefore checks exactly what a
// fresh analysis checks.
func (o *Oracle) gcDrop(id topology.NodeID, minSNs []core.SN) {
	if len(minSNs) != o.width {
		o.violatef("gc: %v applied a %d-entry threshold vector in a %d-cluster federation",
			id, len(minSNs), o.width)
		return
	}
	c := &o.clusters[id.Cluster]
	threshold := minSNs[id.Cluster]
	if c.chain.Len() == 0 || c.chain.Recs[0].SN >= threshold {
		return // nothing to drop here: a later node of the same round
	}
	g := &o.gc
	if !g.valid || g.uncached || !slices.Equal(g.key, minSNs) {
		// Rerun the §3.5 analysis on the shadow history. Shadow
		// commits since the reports only raise the safe minimums, so
		// any distributed threshold above the freshly computed one
		// discards a checkpoint a simulated failure still needs.
		for i := range o.clusters {
			g.chains[i] = o.clusters[i].chain
			g.currents[i] = o.clusters[i].cur
		}
		g.fresh, g.err = g.lines.SmallestSNs(g.chains, g.currents)
		clear(g.chains) // copies of chains that later drops and commits replace
		g.key = append(g.key[:0], minSNs...)
		g.valid = true
	}
	if g.err != nil {
		o.violatef("gc safety: recovery-line analysis over the shadow state failed: %v", g.err)
	} else {
		for i, m := range minSNs {
			if m > g.fresh[i] {
				o.violatef("gc safety: threshold %d for cluster %d, but a failure could roll it back to %d",
					m, i, g.fresh[i])
				break
			}
		}
	}
	k := 1 - c.anchorIn
	if n, buf := c.chain.DropBelowInto(threshold, c.anchorBufs[k]); n > 0 {
		c.anchorBufs[k], c.anchorIn = buf, k
	}
	// The collection proves no cluster ever rolls back below its
	// threshold again: deliveries whose send predates the sender's
	// threshold can never become orphans — drop their records.
	kept := c.delivs[:0]
	for _, d := range c.delivs {
		if d.orphaned || d.sendSN >= minSNs[d.src] {
			kept = append(kept, d)
		}
	}
	c.delivs = kept
}

// Finish runs the end-of-run checks once the federation quiesced: no
// outstanding orphan obligation (every delivery whose send was rolled
// back was erased by a receiver rollback), and the commit line of each
// cluster dominates its whole stored chain.
func (o *Oracle) Finish() error {
	for j := range o.clusters {
		c := &o.clusters[j]
		for _, d := range c.delivs {
			if d.orphaned {
				o.violatef("orphan: cluster %d still holds a delivery from cluster %d (epoch %d, SendSN %d, received at SN %d) whose send was rolled back",
					j, d.src, d.srcEpoch, d.sendSN, d.recvSN)
			}
		}
		// Every stored entry is an anchor entry or a pair.
		dominated := func(sn core.SN, k int, v core.SN) {
			if v > c.cur[k] {
				o.violatef("commit-line domination: cluster %d stored CLC %d entry %d = %d exceeds the committed line %d",
					j, sn, k, v, c.cur[k])
			}
		}
		for i, r := range c.chain.Recs {
			if i == 0 {
				for _, p := range c.chain.Anchor.Pairs {
					dominated(r.SN, int(p.Idx), p.SN)
				}
				continue
			}
			if r.SN <= c.chain.Recs[i-1].SN {
				o.violatef("stored chain: cluster %d stores CLC %d after %d", j, r.SN, c.chain.Recs[i-1].SN)
			}
			for _, p := range r.Pairs {
				dominated(r.SN, int(p.Idx), p.SN)
			}
		}
	}
	if o.dropped > 0 {
		o.violatef("(%d further violations dropped)", o.dropped)
	}
	return o.Err()
}
