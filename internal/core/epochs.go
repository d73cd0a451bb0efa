package core

import "repro/internal/topology"

// epochTable is a node's knowledge of other clusters' rollbacks (§3.4):
// per cluster, the latest known epoch and the most recent rollback
// alert (its epoch and restored SN). Only clusters that rolled back
// ever leave epoch 0, so the table holds just those, sorted by cluster;
// a cluster without an entry reads as all zeros. A lookup is a binary
// search over the few clusters that failed.
type epochTable struct {
	entries []epochEntry
}

// epochEntry is one cluster's row of an epochTable.
type epochEntry struct {
	cluster    topology.ClusterID
	known      Epoch // latest known epoch
	alertEpoch Epoch // epoch of the most recent rollback alert
	alertSN    SN    // SN that alert restored
}

// find returns the index of c's entry, or where it would be inserted
// and false.
func (t *epochTable) find(c topology.ClusterID) (int, bool) {
	lo, hi := 0, len(t.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.entries[mid].cluster < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.entries) && t.entries[lo].cluster == c
}

// entry returns c's entry, inserting a zero one when absent. The
// pointer is valid until the next insertion.
func (t *epochTable) entry(c topology.ClusterID) *epochEntry {
	i, ok := t.find(c)
	if !ok {
		t.entries = append(t.entries, epochEntry{})
		copy(t.entries[i+1:], t.entries[i:])
		t.entries[i] = epochEntry{cluster: c}
	}
	return &t.entries[i]
}

// known returns the latest known epoch of cluster c.
func (t *epochTable) known(c topology.ClusterID) Epoch {
	if i, ok := t.find(c); ok {
		return t.entries[i].known
	}
	return 0
}

// setKnown records e as cluster c's latest known epoch.
func (t *epochTable) setKnown(c topology.ClusterID, e Epoch) {
	if e != 0 || t.known(c) != 0 {
		t.entry(c).known = e
	}
}

// raiseKnown records e as cluster c's latest known epoch if it is newer
// than the one known.
func (t *epochTable) raiseKnown(c topology.ClusterID, e Epoch) {
	if e > t.known(c) {
		t.entry(c).known = e
	}
}

// alert returns the epoch and restored SN of cluster c's most recent
// rollback alert.
func (t *epochTable) alert(c topology.ClusterID) (Epoch, SN) {
	if i, ok := t.find(c); ok {
		return t.entries[i].alertEpoch, t.entries[i].alertSN
	}
	return 0, 0
}

// raiseAlert records an alert of cluster c entering epoch e at SN sn if
// it is newer than the last one recorded.
func (t *epochTable) raiseAlert(c topology.ClusterID, e Epoch, sn SN) {
	if prev, _ := t.alert(c); e > prev {
		en := t.entry(c)
		en.alertEpoch, en.alertSN = e, sn
	}
}

// reset forgets every cluster, keeping the storage.
func (t *epochTable) reset() { t.entries = t.entries[:0] }
