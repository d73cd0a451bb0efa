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
type chainIndex struct {
	c    Chain
	cols []colChange // sorted by (col, rec)
}

// indexChain builds c's column index in buf (len 0, capacity for every
// pair of c) and checks what the searches rely on: entries inside the
// federation's width, columns that never decrease.
func indexChain(c Chain, width int, buf []colChange) (chainIndex, error) {
	if len(c.Anchor) != width {
		return chainIndex{}, fmt.Errorf("core: chain anchor has %d entries in a %d-cluster federation", len(c.Anchor), width)
	}
	for r := 1; r < len(c.Recs); r++ {
		for _, p := range c.Recs[r].Pairs {
			if p.Idx < 0 || int(p.Idx) >= width {
				return chainIndex{}, fmt.Errorf("core: chain record %d changes entry %d of a %d-cluster vector", c.Recs[r].SN, p.Idx, width)
			}
			buf = append(buf, colChange{col: p.Idx, rec: int32(r), sn: p.SN})
		}
	}
	slices.SortFunc(buf, func(a, b colChange) int {
		if a.col != b.col {
			return cmp.Compare(a.col, b.col)
		}
		return cmp.Compare(a.rec, b.rec)
	})
	for i, ch := range buf {
		prev := c.Anchor[ch.col]
		if i > 0 && buf[i-1].col == ch.col {
			if buf[i-1].rec == ch.rec {
				return chainIndex{}, fmt.Errorf("core: chain record %d changes entry %d twice", c.Recs[ch.rec].SN, ch.col)
			}
			prev = buf[i-1].sn
		}
		if ch.sn < prev {
			return chainIndex{}, fmt.Errorf("core: chain record %d lowers entry %d from %d to %d", c.Recs[ch.rec].SN, ch.col, prev, ch.sn)
		}
	}
	return chainIndex{c: c, cols: buf}, nil
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
	return x.c.Anchor[col]
}

// oldestWith is Chain.OldestWith by binary search over the column.
func (x *chainIndex) oldestWith(col topology.ClusterID, s SN) int {
	if x.c.Len() > 0 && x.c.Anchor[col] >= s {
		return 0
	}
	k := x.search(int32(col), 0, s, true)
	if k < len(x.cols) && x.cols[k].col == int32(col) {
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

// lineAnalysis is the recovery-line computation over a federation's
// stored chains: the column indexes are built once and every simulated
// failure reuses them and the scratch. reset rebuilds it in place, so
// one lineAnalysis kept across calls (LineAnalyzer) allocates nothing
// once its buffers have grown to the federation's size.
type lineAnalysis struct {
	idx      []chainIndex
	currents []DDV
	queue    []rbAlert
	cols     []colChange // backing store of every idx[j].cols
	rl       RecoveryLine
}

// reset indexes chains and currents, reusing a's memory.
func (a *lineAnalysis) reset(chains []Chain, currents []DDV) error {
	n := len(chains)
	if len(currents) != n {
		return fmt.Errorf("core: %d checkpoint chains but %d current DDVs", n, len(currents))
	}
	pairs := 0
	for _, c := range chains {
		for r := 1; r < len(c.Recs); r++ {
			pairs += len(c.Recs[r].Pairs)
		}
	}
	a.idx = slices.Grow(a.idx[:0], n)[:n]
	a.cols = slices.Grow(a.cols[:0], pairs)
	a.currents = currents
	buf := a.cols
	for j, c := range chains {
		if len(currents[j]) != n {
			return fmt.Errorf("core: cluster %d reports a %d-entry DDV in a %d-cluster federation", j, len(currents[j]), n)
		}
		x, err := indexChain(c, n, buf[len(buf):])
		if err != nil {
			return fmt.Errorf("cluster %d: %w", j, err)
		}
		a.idx[j] = x
		buf = buf[:len(buf)+len(x.cols)]
	}
	return nil
}

// release drops the references a kept analysis holds to its last
// input, so the chains it indexed can be collected.
func (a *lineAnalysis) release() {
	clear(a.idx)
	a.currents = nil
}

// line sizes a's scratch recovery line for the analysis.
func (a *lineAnalysis) line() *RecoveryLine {
	n := len(a.idx)
	a.rl.Index = slices.Grow(a.rl.Index[:0], n)[:n]
	a.rl.SN = slices.Grow(a.rl.SN[:0], n)[:n]
	a.rl.RolledBack = slices.Grow(a.rl.RolledBack[:0], n)[:n]
	return &a.rl
}

// simulate computes into rl the recovery line for a failure in cluster
// f: the faulty cluster restores its newest stored checkpoint, then
// alerts cascade to a fixpoint. A cluster's effective DDV is its
// current vector until it rolls back, its restored record's afterwards.
func (a *lineAnalysis) simulate(f topology.ClusterID, rl *RecoveryLine) error {
	n := len(a.idx)
	for j := 0; j < n; j++ {
		rl.Index[j] = a.idx[j].c.Len()
		rl.SN[j] = a.currents[j][j]
		rl.RolledBack[j] = false
	}
	rl.Alerts = 0
	a.queue = a.queue[:0]
	rollTo := func(j topology.ClusterID, idx int) {
		sn := a.idx[j].c.Recs[idx].SN
		rl.Index[j] = idx
		rl.SN[j] = sn
		rl.RolledBack[j] = true
		a.queue = append(a.queue, rbAlert{j, sn})
		rl.Alerts += n - 1
	}

	if a.idx[f].c.Len() == 0 {
		return fmt.Errorf("core: faulty cluster %d has no stored checkpoint", f)
	}
	rollTo(f, a.idx[f].c.Len()-1)

	for head := 0; head < len(a.queue); head++ {
		al := a.queue[head]
		for j := topology.ClusterID(0); int(j) < n; j++ {
			if j == al.c {
				continue
			}
			x := &a.idx[j]
			var eff SN
			if rl.RolledBack[j] {
				eff = x.entry(rl.Index[j], al.c)
			} else {
				eff = a.currents[j][al.c]
			}
			if eff < al.s {
				continue
			}
			idx := x.oldestWith(al.c, al.s)
			if idx == -1 {
				return fmt.Errorf("core: cluster %d depends on cluster %d SN>=%d but stores no qualifying checkpoint", j, al.c, al.s)
			}
			if idx < rl.Index[j] {
				rollTo(j, idx)
			}
		}
	}
	return nil
}

// SimulateFailure computes the recovery line for a failure in cluster
// f. chains[j] is cluster j's stored checkpoints; currents[j] is cluster
// j's present DDV (so currents[j][j] is its present SN).
//
// It returns an error if a chain is malformed or if the cascade needs a
// checkpoint that does not exist — which the garbage collector's safety
// rule must make impossible; the error path exists so tests can prove
// it never fires.
func SimulateFailure(chains []Chain, currents []DDV, f topology.ClusterID) (RecoveryLine, error) {
	var a lineAnalysis
	if err := a.reset(chains, currents); err != nil {
		return RecoveryLine{}, err
	}
	rl := a.line()
	return *rl, a.simulate(f, rl)
}

// SmallestSNs implements the garbage collector's analysis (§3.5): it
// simulates a failure in every cluster and returns, per cluster, the
// smallest SN that cluster might ever have to roll back to. Checkpoints
// strictly older than this threshold can never be a rollback target and
// may be discarded.
func SmallestSNs(chains []Chain, currents []DDV) ([]SN, error) {
	var z LineAnalyzer
	return z.SmallestSNs(chains, currents)
}

// LineAnalyzer runs the §3.5 analysis on memory it keeps between calls:
// the column indexes, the alert queue and the recovery line are reused,
// so a caller that analyses once per GC round allocates only the
// thresholds each call returns. The zero value is ready to use; it is
// not safe for concurrent use.
type LineAnalyzer struct{ a lineAnalysis }

// SmallestSNs is the package-level SmallestSNs on z's memory. The
// returned slice is freshly allocated: thresholds travel in messages.
func (z *LineAnalyzer) SmallestSNs(chains []Chain, currents []DDV) ([]SN, error) {
	a := &z.a
	defer a.release()
	if err := a.reset(chains, currents); err != nil {
		return nil, err
	}
	n := len(chains)
	min := make([]SN, n)
	for j := 0; j < n; j++ {
		min[j] = currents[j][j]
	}
	rl := a.line()
	for f := 0; f < n; f++ {
		if err := a.simulate(topology.ClusterID(f), rl); err != nil {
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
