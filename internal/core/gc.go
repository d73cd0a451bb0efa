package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// This file implements garbage collection (§3.5). The protocol stores
// multiple CLCs per cluster (and logs every inter-cluster message), so
// memory must be reclaimed: the centralized collector gathers every
// cluster's stored-CLC DDVs, simulates a failure in each cluster, and
// distributes the smallest SN each cluster might ever roll back to;
// older checkpoints and sufficiently-acknowledged log entries are
// dropped. The ring variant (§7 future work) replaces the star-shaped
// exchange with a circulating token.

// onGCTimer starts a collection round on the federation GC initiator.
func (n *Node) onGCTimer() {
	if !n.cfg.GCInitiator {
		return
	}
	n.env.SetTimer(TimerGC, n.cfg.GCPeriod)
	n.startGCRound()
}

// checkMemoryPressure demands a collection when this node's
// fault-tolerance memory saturates (§3.5). The demand flag clears once
// a GCDrop arrives, so a node asks at most once per saturation episode.
func (n *Node) checkMemoryPressure() {
	if n.cfg.GCMemoryThreshold == 0 || n.gcDemanded {
		return
	}
	bytes := n.StorageBytes()
	if bytes <= n.cfg.GCMemoryThreshold {
		return
	}
	n.gcDemanded = true
	n.env.Stat("gc.demands", 1)
	d := GCDemand{From: n.id, Bytes: bytes}
	if n.cfg.GCInitiator {
		n.onGCDemand(n.id, d)
		return
	}
	n.env.Send(n.leaderOf(0), controlSize(d), d)
}

// onGCDemand reacts to a saturation demand at the initiator (the
// initiator is node 0 of cluster 0 by convention).
func (n *Node) onGCDemand(src topology.NodeID, m GCDemand) {
	if !n.cfg.GCInitiator {
		return
	}
	// Rate-limit: at most one demand-driven round per minute, and none
	// while a round is already gathering reports.
	if n.gcHave > 0 ||
		(n.gcStartedOnce && n.env.Now().Sub(n.gcLastStart) < sim.Minute) {
		n.env.Stat("gc.demands_coalesced", 1)
		return
	}
	n.env.Stat("gc.demand_rounds", 1)
	n.startGCRound()
}

// startGCRound opens a collection round (timer- or demand-driven).
func (n *Node) startGCRound() {
	if n.cfg.Mode != ModeHC3I {
		// The GC analysis simulates failures under the HC3I rollback
		// rule; the baseline modes keep everything.
		n.env.Stat("gc.unsupported_mode", 1)
		return
	}
	if n.rbActive || n.lostState {
		n.env.Stat("gc.skipped_busy", 1)
		return
	}
	n.gcLastStart = n.env.Now()
	n.gcStartedOnce = true
	n.gcRound++
	n.gcAlertsMark = n.alertsSeen
	n.env.Stat("gc.rounds_started", 1)
	n.emit(Event{Kind: EventGCStart, Round: n.gcRound})

	if n.cfg.RingGC {
		tok := GCToken{Round: n.gcRound, Phase: 0, Reports: []GCReport{n.makeGCReport(n.gcRound)}}
		n.forwardToken(tok)
		return
	}
	reports := n.gcSlots()
	reports[n.cluster] = n.makeGCReport(n.gcRound)
	n.gcHave = 1
	req := GCRequest{Round: n.gcRound}
	for c := topology.ClusterID(0); int(c) < n.cfg.Clusters; c++ {
		if c == n.cluster {
			continue
		}
		n.env.Stat("gc.messages", 1)
		n.env.Send(n.leaderOf(c), controlSize(req), req)
	}
	n.maybeFinishGCRound()
}

// gcSlots returns the initiator's per-cluster report slots, emptied.
func (n *Node) gcSlots() []GCReport {
	if n.gcReports == nil {
		n.gcReports = make([]GCReport, n.cfg.Clusters)
	}
	clear(n.gcReports)
	return n.gcReports
}

// makeGCReport ships the stored chain as it is stored — the record list
// copied, the anchor and the pair slices shared — plus the pairs that
// patch the newest record's vector into the current DDV.
func (n *Node) makeGCReport(round uint64) GCReport {
	n.pairScratch = n.curPairsVsNewest(n.pairScratch[:0])
	return GCReport{
		Round:    round,
		Cluster:  n.cluster,
		Epoch:    n.epoch,
		Chain:    Chain{Anchor: n.chain.Anchor, Recs: append([]ChainRec(nil), n.chain.Recs...)},
		CurPairs: n.pairArena.Clone(n.pairScratch),
	}
}

// curPairsVsNewest appends the (index, SN) pairs where ddv differs from
// the newest stored CLC's vector, which commitBase holds. While the
// incremental scan is valid (HC3I steady state), only the indices
// raised since the last commit are probed — O(dirty) instead of
// O(width); any path that broke the invariant (rollback, recovery,
// restart) cleared gcScanValid and the chunked full-width diff runs
// instead. gc_scan_test.go diffs the two against each other across
// chaos runs.
func (n *Node) curPairsVsNewest(buf []DDVPair) []DDVPair {
	newest := n.commitBase
	if !n.gcScanValid || n.cfg.Mode != ModeHC3I {
		return diffPairs(buf, n.ddv, newest)
	}
	for _, i := range n.gcScanDirty.Indices() {
		if v := n.ddv[i]; v != newest[i] {
			buf = append(buf, DDVPair{Idx: i, SN: v})
		}
	}
	return buf
}

// onGCRequest answers the initiator with this cluster's checkpoint
// metadata; a cluster busy rolling back stays silent and the round is
// superseded by the next timer tick.
func (n *Node) onGCRequest(src topology.NodeID, m GCRequest) {
	if !n.leader() || n.rbActive || n.lostState {
		return
	}
	rep := n.makeGCReport(m.Round)
	n.env.Stat("gc.messages", 1)
	n.env.Send(src, controlSize(rep), rep)
}

// onGCReport collects cluster reports at the initiator.
func (n *Node) onGCReport(src topology.NodeID, m GCReport) {
	if !n.cfg.GCInitiator || m.Round != n.gcRound || n.gcHave == 0 ||
		m.Cluster < 0 || int(m.Cluster) >= n.cfg.Clusters {
		return
	}
	if n.gcReports[m.Cluster].Round != m.Round {
		n.gcHave++
	}
	n.gcReports[m.Cluster] = m
	n.maybeFinishGCRound()
}

func (n *Node) maybeFinishGCRound() {
	if n.gcHave < n.cfg.Clusters {
		return
	}
	n.gcHave = 0
	defer clear(n.gcReports) // the reports' chains are not ours to keep
	if n.alertsSeen != n.gcAlertsMark {
		// A rollback happened mid-round: the reports may be mutually
		// inconsistent, so the round is abandoned (safe: GC only ever
		// delays reclamation).
		n.env.Stat("gc.rounds_aborted", 1)
		return
	}
	minSNs, err := n.computeMinSNs(n.gcReports)
	if err != nil {
		n.env.Stat("gc.rounds_aborted", 1)
		n.emit(Event{Kind: EventGCFailed, Round: n.gcRound, Err: err})
		return
	}
	coll := GCCollect{Round: n.gcRound, MinSNs: minSNs}
	for c := topology.ClusterID(0); int(c) < n.cfg.Clusters; c++ {
		if c == n.cluster {
			continue
		}
		n.env.Stat("gc.messages", 1)
		n.env.Send(n.leaderOf(c), controlSize(coll), coll)
	}
	n.env.Stat("gc.rounds_completed", 1)
	n.distributeDropLocally(coll.Round, coll.MinSNs)
}

// gcScratch is the GC initiator's analysis memory, kept between
// rounds: the per-cluster chains and current vectors handed to the
// analysis, and the width² cells those vectors live in.
type gcScratch struct {
	lines    LineAnalyzer
	chains   []Chain
	currents []DDV
	cells    []SN
}

// computeMinSNs runs the paper's analysis: simulate a failure in every
// cluster and keep, per cluster, the smallest SN it might roll back to.
// reports holds cluster c's report in slot c. The analysis reads the
// reported chains as they are; the one dense vector it needs per
// cluster is the current DDV. Every buffer but the returned thresholds
// is the initiator's scratch, reused each round.
func (n *Node) computeMinSNs(reports []GCReport) ([]SN, error) {
	width := n.cfg.Clusters
	s := n.gcScratch
	if s == nil {
		s = &gcScratch{
			chains:   make([]Chain, width),
			currents: make([]DDV, width),
			cells:    make([]SN, width*width),
		}
		n.gcScratch = s
	}
	defer clear(s.chains) // the reports' chains are not ours to keep
	if len(reports) != width {
		return nil, fmt.Errorf("core: GC round has %d report slots for %d clusters", len(reports), width)
	}
	for c, rep := range reports {
		if rep.Cluster != topology.ClusterID(c) {
			return nil, fmt.Errorf("core: GC round missing report for cluster %d", c)
		}
		if rep.Chain.Anchor.Width != width {
			return nil, fmt.Errorf("core: cluster %d reports a %d-entry anchor in a %d-cluster federation", c, rep.Chain.Anchor.Width, width)
		}
		cur := DDV(s.cells[c*width : (c+1)*width : (c+1)*width])
		rep.Chain.Vector(rep.Chain.Len()-1, cur)
		cur.applyPairs(rep.CurPairs)
		s.chains[c], s.currents[c] = rep.Chain, cur
	}
	mins, err := s.lines.SmallestSNs(s.chains, s.currents)
	if err == nil && Mutate.GCOverCollect {
		// Seeded protocol break for oracle smoke tests: threshold one
		// past the safe minimum discards a checkpoint a future recovery
		// could need.
		for i := range mins {
			mins[i]++
		}
	}
	return mins, err
}

// onGCCollect applies the thresholds at a cluster leader and broadcasts
// them in the cluster.
func (n *Node) onGCCollect(src topology.NodeID, m GCCollect) {
	if !n.leader() {
		return
	}
	n.distributeDropLocally(m.Round, m.MinSNs)
}

// distributeDropLocally broadcasts round's drop thresholds inside the
// cluster and applies them here.
func (n *Node) distributeDropLocally(round uint64, minSNs []SN) {
	drop := GCDrop{Round: round, Epoch: n.epoch, MinSNs: minSNs}
	sendToCluster(n, nil, drop)
	n.applyGCDrop(round, minSNs)
}

// onGCDrop applies the thresholds on a cluster member.
func (n *Node) onGCDrop(src topology.NodeID, m GCDrop) {
	if m.Epoch != n.epoch || src.Cluster != n.cluster {
		return
	}
	n.applyGCDrop(m.Round, m.MinSNs)
}

// applyGCDrop discards checkpoints that can never again be a rollback
// target, neighbour replicas for the same range, and logged messages
// whose delivery is captured by every checkpoint the receiver cluster
// might restore ("acknowledged with a SN smaller than the receiver's
// cluster smallest SN").
func (n *Node) applyGCDrop(round uint64, minSNs []SN) {
	if len(minSNs) != n.cfg.Clusters {
		return
	}
	n.emit(Event{Kind: EventGCDrop, Round: round, DDV: minSNs})
	before := n.clcs.Len()
	threshold := minSNs[n.cluster]
	logBefore := len(n.log)
	n.filterLog(func(e *logEntry) bool { return !e.acked || e.ackSN >= minSNs[e.dstCluster] })
	n.dropCLCsBelow(threshold)
	n.dropReplicasBelow(threshold)
	if len(n.log) < logBefore && n.cfg.Replicas > 0 {
		// Let the stable-storage neighbour trim its mirror too.
		trim := LogTrim{Kept: make([]uint64, 0, len(n.log))}
		for _, e := range n.log {
			trim.Kept = append(trim.Kept, e.msgID)
		}
		n.env.Send(n.holderFor(), controlSize(trim), trim)
	}

	n.env.Stat("gc.clcs_removed", uint64(before-n.clcs.Len()))
	n.env.Stat("gc.log_entries_removed", uint64(logBefore-len(n.log)))
	n.gcDemanded = false // saturation episode over; may demand again
	if n.leader() {
		// The before/after pairs of Tables 2 and 3.
		n.env.StatSeries(n.keys.gcBefore, float64(before))
		n.env.StatSeries(n.keys.gcAfter, float64(n.clcs.Len()))
		n.env.StatSeries(n.keys.storageBytes, float64(n.StorageBytes()))
		n.recordStoredStat()
	}
}

// ---- distributed (ring) variant ----

// forwardToken passes the token to the next cluster's leader on the
// ring.
func (n *Node) forwardToken(tok GCToken) {
	next := topology.ClusterID((int(n.cluster) + 1) % n.cfg.Clusters)
	n.env.Stat("gc.messages", 1)
	n.env.Send(n.leaderOf(next), controlSize(tok), tok)
}

// onGCToken advances the ring protocol: phase 0 accumulates reports
// around the ring; once the token returns to the initiator it computes
// the thresholds and circulates them as phase 1.
func (n *Node) onGCToken(src topology.NodeID, m GCToken) {
	if !n.leader() {
		return
	}
	switch m.Phase {
	case 0:
		if n.cfg.GCInitiator {
			if m.Round != n.gcRound || len(m.Reports) != n.cfg.Clusters {
				return // stale or incomplete round
			}
			if n.alertsSeen != n.gcAlertsMark {
				n.env.Stat("gc.rounds_aborted", 1)
				return
			}
			reports := n.gcSlots()
			for _, r := range m.Reports {
				if r.Cluster >= 0 && int(r.Cluster) < len(reports) {
					reports[r.Cluster] = r
				}
			}
			minSNs, err := n.computeMinSNs(reports)
			clear(reports)
			if err != nil {
				n.env.Stat("gc.rounds_aborted", 1)
				return
			}
			n.env.Stat("gc.rounds_completed", 1)
			n.distributeDropLocally(m.Round, minSNs)
			n.forwardToken(GCToken{Round: m.Round, Phase: 1, MinSNs: minSNs})
			return
		}
		if n.rbActive || n.lostState {
			return // round dies; the next timer tick retries
		}
		m.Reports = append(m.Reports, n.makeGCReport(m.Round))
		n.forwardToken(m)
	case 1:
		if n.cfg.GCInitiator {
			return // token completed the distribution lap
		}
		n.distributeDropLocally(m.Round, m.MinSNs)
		n.forwardToken(m)
	}
}
