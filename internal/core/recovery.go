package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// This file holds the pure recovery-line algorithms of §3.4/§3.5. They
// are shared by the live rollback path and by the garbage collector
// (which "simulates a failure in each cluster"), and are the most
// heavily property-tested part of the protocol. They run on the sparse
// stored chains directly (see Chain); the dense forms the paper
// describes live on as the test reference (export_test.go).

// NeedsRollback applies the §3.4 test: given the cluster's effective
// DDV, must it roll back on alert (c, s)?
func NeedsRollback(current DDV, c topology.ClusterID, s SN) bool {
	return current[c] >= s
}

// RecoveryLine is the outcome of a (real or simulated) failure: for
// each cluster, the checkpoint index it restores (the chain's length
// means "kept its current state") and the SN it runs from afterwards.
type RecoveryLine struct {
	// Index[j] is the restored checkpoint's position in cluster j's
	// stored chain, or its length if cluster j did not roll back.
	Index []int
	// SN[j] is cluster j's sequence number after the cascade.
	SN []SN
	// RolledBack[j] reports whether cluster j had to roll back.
	RolledBack []bool
	// Alerts counts the inter-cluster rollback alerts the cascade
	// would emit (the faulty cluster alerts everyone; every further
	// rollback alerts everyone again).
	Alerts int
}

// Depth returns how many clusters rolled back.
func (r RecoveryLine) Depth() int {
	n := 0
	for _, b := range r.RolledBack {
		if b {
			n++
		}
	}
	return n
}

// colChange is one entry of a chain's column index: record rec set
// column col to sn.
type colChange struct {
	col, rec int32
	sn       SN
}

// chainIndex is one chain's pairs regrouped by column — per column the
// list of changes in record order — so a stored entry is a binary
// search instead of a walk. Entries never decrease along a stored chain
// (dependencies only grow between rollbacks, and a rollback truncates),
// which makes "oldest record with entry >= s" a binary search too.
//
// The cluster's current vector is indexed as one more record after the
// stored ones (position c.Len()): its changes are the patch from the
// newest stored record to the current DDV (GCReport.CurPairs). It is
// never a restore target.
type chainIndex struct {
	c    Chain
	cols []colChange // sorted by (col, rec)
}

// indexChain builds c's column index in buf (len 0, capacity for every
// pair of c's records after the first and of patch) and checks what the
// searches rely on: a sparse anchor and entries inside the federation's
// width, columns that never decrease — through the patch too. The
// anchor stays out of the index: an entry no record changed is read
// from it (SparseDDV.Get).
func indexChain(c Chain, patch []DDVPair, width int, buf []colChange) (chainIndex, error) {
	if c.Anchor.Width != width {
		return chainIndex{}, fmt.Errorf("core: chain anchor is %d entries wide in a %d-cluster federation", c.Anchor.Width, width)
	}
	if !c.Anchor.Valid() {
		return chainIndex{}, fmt.Errorf("core: chain anchor %v is not a sparse vector", c.Anchor.Pairs)
	}
	x := chainIndex{c: c}
	// Record 0 is folded into the anchor; the current vector is the
	// record at cur (in an emptied chain, its patch applies to the
	// anchor itself).
	cur := int32(c.Len())
	for r := min(1, cur); r <= cur; r++ {
		pairs := patch // the current vector's, at position cur
		if r < cur {
			pairs = c.Recs[r].Pairs
		}
		for _, p := range pairs {
			if p.Idx < 0 || int(p.Idx) >= width {
				return chainIndex{}, fmt.Errorf("core: %s changes entry %d of a %d-cluster vector", x.what(r), p.Idx, width)
			}
			buf = append(buf, colChange{col: p.Idx, rec: r, sn: p.SN})
		}
	}
	slices.SortFunc(buf, func(a, b colChange) int {
		if a.col != b.col {
			return cmp.Compare(a.col, b.col)
		}
		return cmp.Compare(a.rec, b.rec)
	})
	for i, ch := range buf {
		var prev SN
		if i > 0 && buf[i-1].col == ch.col {
			if buf[i-1].rec == ch.rec {
				return chainIndex{}, fmt.Errorf("core: %s changes entry %d twice", x.what(ch.rec), ch.col)
			}
			prev = buf[i-1].sn
		} else {
			prev = c.Anchor.Get(int(ch.col))
		}
		if ch.sn < prev {
			return chainIndex{}, fmt.Errorf("core: %s lowers entry %d from %d to %d", x.what(ch.rec), ch.col, prev, ch.sn)
		}
	}
	x.cols = buf
	return x, nil
}

// what names record rec in an error: a stored record by its SN, the
// current vector as such.
func (x *chainIndex) what(rec int32) string {
	if int(rec) >= x.c.Len() {
		return "current vector"
	}
	return fmt.Sprintf("chain record %d", x.c.Recs[rec].SN)
}

// search returns the first position in cols at or after the key (col,
// rec) when bySN is false, (col, sn) when it is true — a column's
// changes are in record order and, being non-decreasing, in SN order
// too, so one binary search serves both keys.
func (x *chainIndex) search(col int32, rec int32, sn SN, bySN bool) int {
	lo, hi := 0, len(x.cols)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		ch := &x.cols[mid]
		var before bool
		switch {
		case ch.col != col:
			before = ch.col < col
		case bySN:
			before = ch.sn < sn
		default:
			before = ch.rec < rec
		}
		if before {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// entry returns record rec's entry for cluster col: the newest change
// of the column at or before rec, the anchor's entry if there is none.
func (x *chainIndex) entry(rec int, col topology.ClusterID) SN {
	k := x.search(int32(col), int32(rec)+1, 0, false)
	if k > 0 && x.cols[k-1].col == int32(col) {
		return x.cols[k-1].sn
	}
	return x.c.Anchor.Get(int(col))
}

// oldestWith is Chain.OldestWith by binary search over the column: the
// oldest stored record with entry >= s, never the current vector.
func (x *chainIndex) oldestWith(col topology.ClusterID, s SN) int {
	if x.c.Len() > 0 && x.c.Anchor.Get(int(col)) >= s {
		return 0
	}
	k := x.search(int32(col), 0, s, true)
	if k < len(x.cols) && x.cols[k].col == int32(col) && int(x.cols[k].rec) < x.c.Len() {
		return int(x.cols[k].rec)
	}
	return -1
}

// rbAlert is one rollback alert of a simulated cascade: cluster c now
// runs from SN s.
type rbAlert struct {
	c topology.ClusterID
	s SN
}

// holder is one cluster whose current vector holds a non-zero entry sn
// in some column.
type holder struct {
	j  topology.ClusterID
	sn SN
}

// lineAnalysis is the recovery-line computation over a federation's
// stored chains and current vectors: the column indexes, each
// cluster's current SN and, per column, the clusters that hold a
// non-zero entry in it are built once, and every simulated failure
// reuses them and the scratch. reset rebuilds it in place, so one
// lineAnalysis kept across calls (LineAnalyzer) allocates nothing once
// its buffers have grown to the federation's size.
type lineAnalysis struct {
	idx  []chainIndex
	cur  []SN        // cur[j] is cluster j's current SN
	cols []colChange // backing store of every idx[j].cols
	// Column c's holders, ascending by cluster, are
	// holders[hstart[c]:hstart[c+1]]. Entries never decrease, so a
	// cluster outside the list has entry 0 in every record.
	hstart  []int32
	holders []holder
	queue   []rbAlert
	rl      RecoveryLine
}

// reset indexes chains and the patches to their current vectors,
// reusing a's memory. patches[j] takes cluster j's newest stored
// record to its current vector; a nil patches means every cluster runs
// on its newest stored record.
func (a *lineAnalysis) reset(chains []Chain, patches [][]DDVPair) error {
	n := len(chains)
	if patches != nil && len(patches) != n {
		return fmt.Errorf("core: %d checkpoint chains but %d current vectors", n, len(patches))
	}
	pairs := 0
	for j, c := range chains {
		for r := 1; r < len(c.Recs); r++ {
			pairs += len(c.Recs[r].Pairs)
		}
		if patches != nil {
			pairs += len(patches[j])
		}
	}
	a.idx = slices.Grow(a.idx[:0], n)[:n]
	a.cols = slices.Grow(a.cols[:0], pairs)
	a.queue = a.queue[:0]
	buf := a.cols
	for j, c := range chains {
		var patch []DDVPair
		if patches != nil {
			patch = patches[j]
		}
		x, err := indexChain(c, patch, n, buf[len(buf):])
		if err != nil {
			return fmt.Errorf("cluster %d: %w", j, err)
		}
		a.idx[j] = x
		buf = buf[:len(buf)+len(x.cols)]
	}
	a.indexHolders()
	return nil
}

// indexHolders lists, per column, the clusters whose current vector
// holds a non-zero entry in it (counted, then placed: CSR form), and
// records every cluster's current SN.
func (a *lineAnalysis) indexHolders() {
	n := len(a.idx)
	a.cur = slices.Grow(a.cur[:0], n)[:n]
	a.hstart = slices.Grow(a.hstart[:0], n+1)[:n+1]
	clear(a.hstart)
	for j := range a.idx {
		a.addHolder(j, false)
	}
	for c := 0; c < n; c++ {
		a.hstart[c+1] += a.hstart[c]
	}
	total := int(a.hstart[n])
	a.holders = slices.Grow(a.holders[:0], total)[:total]
	for j := range a.idx {
		a.addHolder(j, true)
	}
	// Placing advanced every start to its column's end: shift back.
	copy(a.hstart[1:], a.hstart[:n])
	a.hstart[0] = 0
}

// addHolder walks cluster j's current vector in ascending column order
// — per column the anchor's entry or, if the column changes, its last
// change (the largest) — and, for each non-zero entry, counts j as a
// holder of the column or, with place set, files it in the column's
// list and notes j's own entry as its current SN.
func (a *lineAnalysis) addHolder(j int, place bool) {
	x := &a.idx[j]
	an, cols := x.c.Anchor.Pairs, x.cols
	if place {
		a.cur[j] = 0
	}
	for len(an) > 0 || len(cols) > 0 {
		var p DDVPair
		if len(cols) == 0 || (len(an) > 0 && an[0].Idx < cols[0].col) {
			p, an = an[0], an[1:]
		} else {
			p.Idx = cols[0].col
			if len(an) > 0 && an[0].Idx == p.Idx {
				an = an[1:]
			}
			for len(cols) > 0 && cols[0].col == p.Idx {
				p.SN, cols = cols[0].sn, cols[1:]
			}
		}
		switch {
		case p.SN == 0:
		case !place:
			a.hstart[p.Idx+1]++
		default:
			a.holders[a.hstart[p.Idx]] = holder{j: topology.ClusterID(j), sn: p.SN}
			a.hstart[p.Idx]++
			if int(p.Idx) == j {
				a.cur[j] = p.SN
			}
		}
	}
}

// release drops the references a kept analysis holds to its last
// input, so the chains it indexed can be collected.
func (a *lineAnalysis) release() {
	clear(a.idx)
}

// line sizes a's scratch recovery line for the analysis and sets it to
// "no cluster rolled back".
func (a *lineAnalysis) line() *RecoveryLine {
	n := len(a.idx)
	a.rl.Index = slices.Grow(a.rl.Index[:0], n)[:n]
	a.rl.SN = slices.Grow(a.rl.SN[:0], n)[:n]
	a.rl.RolledBack = slices.Grow(a.rl.RolledBack[:0], n)[:n]
	for j := range a.idx {
		a.rl.Index[j] = a.idx[j].c.Len()
		a.rl.SN[j] = a.cur[j]
		a.rl.RolledBack[j] = false
	}
	a.rl.Alerts = 0
	return &a.rl
}

// simulate computes into rl the recovery line for a failure in cluster
// f: the faulty cluster restores its newest stored checkpoint, then
// alerts cascade to a fixpoint. A cluster's effective DDV is its
// current vector until it rolls back, its restored record's afterwards.
// rl must come from line() and since then have been written only by
// simulate: the clusters the previous failure rolled back, which its
// alerts name, are reset first.
func (a *lineAnalysis) simulate(f topology.ClusterID, rl *RecoveryLine) error {
	for _, al := range a.queue {
		rl.Index[al.c] = a.idx[al.c].c.Len()
		rl.SN[al.c] = a.cur[al.c]
		rl.RolledBack[al.c] = false
	}
	rl.Alerts = 0
	a.queue = a.queue[:0]

	if a.idx[f].c.Len() == 0 {
		return fmt.Errorf("core: faulty cluster %d has no stored checkpoint", f)
	}
	a.rollTo(rl, f, a.idx[f].c.Len()-1)

	for head := 0; head < len(a.queue); head++ {
		al := a.queue[head]
		if al.s == 0 {
			// Every entry is >= 0: each cluster depends on the alert,
			// holder or not.
			for j := range a.idx {
				if err := a.follow(rl, topology.ClusterID(j), al); err != nil {
					return err
				}
			}
			continue
		}
		for _, h := range a.holders[a.hstart[al.c]:a.hstart[al.c+1]] {
			eff := h.sn
			if rl.RolledBack[h.j] {
				eff = a.idx[h.j].entry(rl.Index[h.j], al.c)
			}
			if eff < al.s {
				continue
			}
			if err := a.follow(rl, h.j, al); err != nil {
				return err
			}
		}
	}
	return nil
}

// follow rolls cluster j back as alert al demands, j's effective entry
// for al.c being at least al.s: to its oldest checkpoint that depends
// on the alert too, unless it already sits at or below it.
func (a *lineAnalysis) follow(rl *RecoveryLine, j topology.ClusterID, al rbAlert) error {
	if j == al.c {
		return nil
	}
	idx := a.idx[j].oldestWith(al.c, al.s)
	if idx == -1 {
		return fmt.Errorf("core: cluster %d depends on cluster %d SN>=%d but stores no qualifying checkpoint", j, al.c, al.s)
	}
	if idx < rl.Index[j] {
		a.rollTo(rl, j, idx)
	}
	return nil
}

// rollTo restores cluster j's stored checkpoint idx in rl and queues
// the alert it sends to every other cluster.
func (a *lineAnalysis) rollTo(rl *RecoveryLine, j topology.ClusterID, idx int) {
	sn := a.idx[j].c.Recs[idx].SN
	rl.Index[j] = idx
	rl.SN[j] = sn
	rl.RolledBack[j] = true
	a.queue = append(a.queue, rbAlert{j, sn})
	rl.Alerts += len(a.idx) - 1
}

// SimulateFailure computes the recovery line for a failure in cluster
// f. chains[j] is cluster j's stored checkpoints; patches[j] is the
// pairs that take its newest stored record's vector to its present DDV
// (GCReport.CurPairs), nil when the two are equal — as is every patch
// when patches is nil.
//
// It returns an error if a chain or patch is malformed (a patch that
// lowers an entry included) or if the cascade needs a checkpoint that
// does not exist — which the garbage collector's safety rule must make
// impossible; the error path exists so tests can prove it never fires.
func SimulateFailure(chains []Chain, patches [][]DDVPair, f topology.ClusterID) (RecoveryLine, error) {
	var a lineAnalysis
	if err := a.reset(chains, patches); err != nil {
		return RecoveryLine{}, err
	}
	rl := a.line()
	return *rl, a.simulate(f, rl)
}

// SmallestSNs implements the garbage collector's analysis (§3.5): it
// simulates a failure in every cluster and returns, per cluster, the
// smallest SN that cluster might ever have to roll back to. Checkpoints
// strictly older than this threshold can never be a rollback target and
// may be discarded. chains and patches are as for SimulateFailure.
func SmallestSNs(chains []Chain, patches [][]DDVPair) ([]SN, error) {
	var z LineAnalyzer
	return z.SmallestSNs(chains, patches)
}

// LineAnalyzer runs the §3.5 analysis on memory it keeps between calls:
// the column indexes, the per-column holder lists, the alert queue and
// the recovery line are reused, so a caller that analyses once per GC
// round allocates only the thresholds each call returns. It reads the
// stored chains and the current vectors' patches as they are — nothing
// it builds is as wide as width² — and an alert visits only the
// clusters that hold a non-zero entry in the alerting cluster's
// column. The zero value is ready to use; it is not safe for
// concurrent use.
type LineAnalyzer struct{ a lineAnalysis }

// SmallestSNs is the package-level SmallestSNs on z's memory. The
// returned slice is freshly allocated: thresholds travel in messages.
func (z *LineAnalyzer) SmallestSNs(chains []Chain, patches [][]DDVPair) ([]SN, error) {
	a := &z.a
	defer a.release()
	if err := a.reset(chains, patches); err != nil {
		return nil, err
	}
	min := slices.Clone(a.cur)
	rl := a.line()
	for f := range chains {
		if err := a.simulate(topology.ClusterID(f), rl); err != nil {
			return nil, err
		}
		// Only the clusters the failure rolled back moved, each to its
		// last (smallest) alert's SN.
		for _, al := range a.queue {
			if al.s < min[al.c] {
				min[al.c] = al.s
			}
		}
	}
	return min, nil
}
