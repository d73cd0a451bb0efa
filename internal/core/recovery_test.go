package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestOldestWith(t *testing.T) {
	list := []Meta{
		{SN: 1, DDV: DDV{1, 0, 0}},
		{SN: 2, DDV: DDV{2, 3, 0}},
		{SN: 3, DDV: DDV{3, 5, 0}},
	}
	if i := oldestWith(t, list, 1, 3); i != 1 {
		t.Fatalf("OldestWith(c1,3) = %d, want 1", i)
	}
	if i := oldestWith(t, list, 1, 4); i != 2 {
		t.Fatalf("OldestWith(c1,4) = %d, want 2", i)
	}
	if i := oldestWith(t, list, 1, 6); i != -1 {
		t.Fatalf("OldestWith(c1,6) = %d, want -1", i)
	}
	if i := oldestWith(t, list, 2, 1); i != -1 {
		t.Fatalf("OldestWith(c2,1) = %d, want -1", i)
	}
}

func TestNeedsRollback(t *testing.T) {
	ddv := DDV{3, 0, 4}
	if !NeedsRollback(ddv, 2, 4) || !NeedsRollback(ddv, 2, 3) {
		t.Fatal("should need rollback when entry >= alerted SN")
	}
	if NeedsRollback(ddv, 1, 1) || NeedsRollback(ddv, 2, 5) {
		t.Fatal("should not need rollback when entry < alerted SN")
	}
}

// TestSimulateFailurePaperExample mirrors the structure of the paper's
// §4 sample execution on three clusters: a failure in cluster 1 (the
// paper's "cluster 2") rolls it back to its last CLC; cluster 2 (the
// paper's "cluster 3") depends on it and rolls back; cluster 0 (the
// paper's "cluster 1") survives the first alert but is dragged back by
// cluster 2's alert because of a DDV entry of 4 for cluster 2; no
// further rollbacks occur after the third alert.
func TestSimulateFailurePaperExample(t *testing.T) {
	lists := [][]Meta{
		{ // cluster 0: forced CLC 3 records the m5 dependency on cluster 2
			{SN: 1, DDV: DDV{1, 0, 0}},
			{SN: 2, DDV: DDV{2, 0, 0}},
			{SN: 3, DDV: DDV{3, 0, 4}},
		},
		{ // cluster 1 (faulty): three CLCs, last has SN 3
			{SN: 1, DDV: DDV{1, 1, 0}},
			{SN: 2, DDV: DDV{1, 2, 0}},
			{SN: 3, DDV: DDV{1, 3, 0}},
		},
		{ // cluster 2: forced CLC 3 depends on cluster 1's SN 3
			{SN: 1, DDV: DDV{0, 0, 1}},
			{SN: 2, DDV: DDV{0, 2, 2}},
			{SN: 3, DDV: DDV{0, 3, 3}},
		},
	}
	currents := []DDV{
		{3, 0, 4},
		{1, 3, 0},
		{0, 4, 4}, // received one more message from cluster 1 since CLC 3
	}
	rl, err := simulateFailure(t, lists, currents, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Faulty cluster 1 restores its last CLC (SN 3).
	if !rl.RolledBack[1] || rl.SN[1] != 3 || rl.Index[1] != 2 {
		t.Fatalf("faulty cluster: %+v", rl)
	}
	// Cluster 2 had DDV entry 4 >= 3 for cluster 1: rolls back to its
	// oldest CLC with entry >= 3, which is CLC 3.
	if !rl.RolledBack[2] || rl.SN[2] != 3 || rl.Index[2] != 2 {
		t.Fatalf("cluster 2: %+v", rl)
	}
	// Cluster 0 does not depend on cluster 1 (entry 0), but its entry 4
	// for cluster 2 >= 3 drags it to CLC 3.
	if !rl.RolledBack[0] || rl.SN[0] != 3 || rl.Index[0] != 2 {
		t.Fatalf("cluster 0: %+v", rl)
	}
	// The paper's cascade: faulty alert + cluster 2's alert + cluster
	// 0's alert, each to 2 clusters.
	if rl.Alerts != 6 {
		t.Fatalf("alerts = %d, want 6", rl.Alerts)
	}
	if rl.Depth() != 3 {
		t.Fatalf("depth = %d", rl.Depth())
	}
}

func TestSimulateFailureNoDependencies(t *testing.T) {
	// Two clusters that never communicated: a failure rolls back only
	// the faulty one ("independent checkpointing if there are no
	// inter-cluster messages", §6).
	lists := [][]Meta{
		{{SN: 1, DDV: DDV{1, 0}}, {SN: 2, DDV: DDV{2, 0}}},
		{{SN: 1, DDV: DDV{0, 1}}},
	}
	currents := []DDV{{2, 0}, {0, 1}}
	rl, err := simulateFailure(t, lists, currents, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.RolledBack[0] || rl.RolledBack[1] {
		t.Fatalf("rollback set = %v", rl.RolledBack)
	}
	if rl.SN[0] != 2 || rl.SN[1] != 1 {
		t.Fatalf("SNs = %v", rl.SN)
	}
}

func TestSimulateFailureErrors(t *testing.T) {
	if _, err := simulateFailure(t, [][]Meta{{}}, []DDV{{0}}, 0); err == nil {
		t.Fatal("empty checkpoint list should error")
	}
	if _, err := simulateFailure(t, [][]Meta{{}}, []DDV{{0}, {0}}, 0); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// abstractFederation evolves n clusters under the protocol's abstract
// semantics (unforced CLCs, message receipt forcing CLCs) and yields
// valid checkpoint histories for property testing. Every history is
// kept twice, through the same operations: dense (lists, one vector per
// checkpoint — the reference) and as the chains the protocol stores.
type abstractFederation struct {
	n        int
	sn       []SN
	ddv      []DDV
	lists    [][]Meta
	chains   []Chain
	rng      *rand.Rand
	received int
	// transitive makes a receipt depend on everything the sender
	// depended on (whole-DDV piggyback, §7), so commits change many
	// entries at once.
	transitive bool
	// lazy[j] lists the entries cluster j raised without checkpointing
	// (roughStep); its next commit records them.
	lazy [][]int32
}

func newAbstractFederation(n int, seed int64) *abstractFederation {
	f := &abstractFederation{n: n, rng: rand.New(rand.NewSource(seed))}
	f.sn = make([]SN, n)
	f.ddv = make([]DDV, n)
	f.lists = make([][]Meta, n)
	f.chains = make([]Chain, n)
	f.lazy = make([][]int32, n)
	for i := 0; i < n; i++ {
		// Mirror the protocol: the initial "beginning of the
		// application" checkpoint carries SN 1.
		f.sn[i] = 1
		f.ddv[i] = NewDDV(n)
		f.ddv[i][i] = 1
		f.lists[i] = []Meta{{SN: 1, DDV: f.ddv[i].Clone()}}
		f.chains[i].Init(1, f.ddv[i])
	}
	return f
}

func (f *abstractFederation) commit(j int, forcedEntries DDV) {
	f.sn[j]++
	var pairs []DDVPair
	for i, v := range forcedEntries {
		if i != j && v > f.ddv[j][i] {
			f.ddv[j][i] = v
			pairs = append(pairs, DDVPair{Idx: int32(i), SN: v})
		}
	}
	for _, i := range f.lazy[j] {
		if !slices.ContainsFunc(pairs, func(p DDVPair) bool { return p.Idx == i }) {
			pairs = append(pairs, DDVPair{Idx: i, SN: f.ddv[j][i]})
		}
	}
	f.lazy[j] = f.lazy[j][:0]
	f.ddv[j][j] = f.sn[j]
	pairs = append(pairs, DDVPair{Idx: int32(j), SN: f.sn[j]})
	f.lists[j] = append(f.lists[j], Meta{SN: f.sn[j], DDV: f.ddv[j].Clone()})
	f.chains[j].Append(f.sn[j], pairs)
}

// rollback makes cluster j restore its stored checkpoint idx: the
// suffix goes, and the cluster runs on from that checkpoint's vector.
func (f *abstractFederation) rollback(j, idx int) {
	m := f.lists[j][idx]
	f.lists[j] = f.lists[j][:idx+1]
	f.chains[j].TruncateAfter(m.SN)
	f.sn[j] = m.SN
	f.ddv[j].CopyFrom(m.DDV)
	f.lazy[j] = f.lazy[j][:0]
}

// dropPrefix makes cluster j discard its k oldest checkpoints, as a
// collection would — whether or not a recovery could still need them.
func (f *abstractFederation) dropPrefix(j, k int) {
	f.lists[j] = f.lists[j][k:]
	f.chains[j].DropBelow(f.lists[j][0].SN, nil)
}

func (f *abstractFederation) step() {
	switch f.rng.Intn(3) {
	case 0: // unforced CLC somewhere
		f.commit(f.rng.Intn(f.n), nil)
	default: // inter-cluster message
		src := f.rng.Intn(f.n)
		dst := f.rng.Intn(f.n)
		if src == dst {
			return
		}
		f.received++
		piggy := f.sn[src]
		if piggy > f.ddv[dst][src] {
			forced := NewDDV(f.n)
			if f.transitive {
				forced.CopyFrom(f.ddv[src])
			}
			forced[src] = piggy
			f.commit(dst, forced) // forced CLC before delivery
		}
	}
}

// Property: on any protocol-consistent history, SimulateFailure
// terminates without errors, never rolls a cluster forward, and the
// faulty cluster restores exactly its newest stored checkpoint.
func TestSimulateFailureOnRandomHistories(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		for _, n := range []int{2, 3, 5} {
			f := newAbstractFederation(n, seed)
			steps := 5 + f.rng.Intn(60)
			for s := 0; s < steps; s++ {
				f.step()
			}
			for faulty := 0; faulty < n; faulty++ {
				rl, err := simulateFailure(t, f.lists, f.ddv, topology.ClusterID(faulty))
				if err != nil {
					t.Fatalf("seed=%d n=%d faulty=%d: %v", seed, n, faulty, err)
				}
				for j := 0; j < n; j++ {
					if rl.SN[j] > f.sn[j] {
						t.Fatalf("cluster %d rolled forward: %d > %d", j, rl.SN[j], f.sn[j])
					}
					if rl.RolledBack[j] && rl.Index[j] >= len(f.lists[j]) {
						t.Fatalf("cluster %d bogus index", j)
					}
				}
				last := f.lists[faulty][len(f.lists[faulty])-1]
				if rl.SN[faulty] > last.SN {
					t.Fatalf("faulty cluster above its last checkpoint")
				}
			}
		}
	}
}

// Property (GC safety): after dropping checkpoints below SmallestSNs,
// every single-cluster failure still finds all its rollback targets,
// and the recovery line is unchanged.
func TestGarbageCollectionSafetyProperty(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		n := 2 + int(seed%3)
		f := newAbstractFederation(n, seed*7+1)
		steps := 10 + f.rng.Intn(80)
		for s := 0; s < steps; s++ {
			f.step()
		}
		min, err := smallestSNs(t, f.lists, f.ddv)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		before := make([][]SN, n)
		for faulty := 0; faulty < n; faulty++ {
			rl, err := simulateFailure(t, f.lists, f.ddv, topology.ClusterID(faulty))
			if err != nil {
				t.Fatal(err)
			}
			before[faulty] = rl.SN
		}
		// Apply the GC drop rule.
		pruned := make([][]Meta, n)
		for j := 0; j < n; j++ {
			if min[j] > f.sn[j] {
				t.Fatalf("threshold above current SN")
			}
			for _, m := range f.lists[j] {
				if m.SN >= min[j] {
					pruned[j] = append(pruned[j], m)
				}
			}
			if len(pruned[j]) == 0 {
				t.Fatalf("seed=%d: GC emptied cluster %d's store", seed, j)
			}
		}
		for faulty := 0; faulty < n; faulty++ {
			rl, err := simulateFailure(t, pruned, f.ddv, topology.ClusterID(faulty))
			if err != nil {
				t.Fatalf("seed=%d faulty=%d after GC: %v", seed, faulty, err)
			}
			for j := 0; j < n; j++ {
				if rl.SN[j] != before[faulty][j] {
					t.Fatalf("seed=%d: GC changed recovery line (faulty=%d cluster=%d %d != %d)",
						seed, faulty, j, rl.SN[j], before[faulty][j])
				}
			}
		}
	}
}

// Property: rollback targets are always forced checkpoints whose state
// precedes the dangerous delivery — i.e. the restored SN of any
// non-faulty rolled-back cluster equals the SN of a stored checkpoint.
func TestRecoveryLinePointsAtStoredCheckpoints(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		f := newAbstractFederation(3, seed)
		for s := 0; s < 70; s++ {
			f.step()
		}
		for faulty := 0; faulty < 3; faulty++ {
			rl, err := simulateFailure(t, f.lists, f.ddv, topology.ClusterID(faulty))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 3; j++ {
				if !rl.RolledBack[j] {
					continue
				}
				m := f.lists[j][rl.Index[j]]
				if m.SN != rl.SN[j] {
					t.Fatalf("restored SN %d != checkpoint SN %d", rl.SN[j], m.SN)
				}
			}
		}
	}
}

// roughStep is step on a federation that also rolls back, collects and
// tracks lazily: now and then a cluster restores one of its stored
// checkpoints (truncating its history), drops a prefix of them (safely
// or not), or takes a dependency without checkpointing first — its
// current DDV then names a dependency none of its stored checkpoints
// does, and a failure that alerts on it finds no checkpoint to restore.
func (f *abstractFederation) roughStep() {
	j := f.rng.Intn(f.n)
	switch stored, dice := len(f.lists[j]), f.rng.Intn(36); {
	case dice == 0:
		if src := f.rng.Intn(f.n); src != j && f.sn[src] > f.ddv[j][src] {
			f.ddv[j][src] = f.sn[src]
			f.lazy[j] = append(f.lazy[j], int32(src))
		}
	case dice < 4 && stored >= 2:
		f.rollback(j, f.rng.Intn(stored-1))
	case dice < 7 && stored >= 2:
		f.dropPrefix(j, 1+f.rng.Intn(stored-1))
	default:
		f.step()
	}
}

// checkChainAnalysis holds f's chains against its dense lists: each
// chain materialises to its list (so the anchor is the oldest stored
// vector after every prefix drop), and the recovery-line analysis on the
// chains gives what the dense reference gives on the lists — the same
// thresholds, and for a failure in each cluster of faults the same
// recovery line and alert count, or the same error when a collection
// dropped a checkpoint the cascade needs.
func checkChainAnalysis(t testing.TB, f *abstractFederation, faults []int) {
	t.Helper()
	for j := range f.chains {
		got := f.chains[j].metas()
		if len(got) != len(f.lists[j]) {
			t.Fatalf("cluster %d: chain stores %d checkpoints, dense list %d", j, len(got), len(f.lists[j]))
		}
		for i, m := range f.lists[j] {
			if got[i].SN != m.SN {
				t.Fatalf("cluster %d record %d: chain gives CLC %d, dense list CLC %d", j, i, got[i].SN, m.SN)
			}
			for k, v := range m.DDV {
				if got[i].DDV[k] != v {
					t.Fatalf("cluster %d CLC %d entry %d: chain gives %d, dense list %d", j, m.SN, k, got[i].DDV[k], v)
				}
			}
		}
	}
	mins, err := SmallestSNs(f.chains, f.ddv)
	wantMins, wantErr := denseSmallestSNs(f.lists, f.ddv)
	if d := sameErr(err, wantErr); d != "" {
		t.Fatalf("SmallestSNs: %s", d)
	}
	for j := range wantMins {
		if mins[j] != wantMins[j] {
			t.Fatalf("threshold of cluster %d: chain analysis %d, dense reference %d", j, mins[j], wantMins[j])
		}
	}
	for _, faulty := range faults {
		rl, err := SimulateFailure(f.chains, f.ddv, topology.ClusterID(faulty))
		want, wantErr := denseSimulateFailure(f.lists, f.ddv, topology.ClusterID(faulty))
		if d := sameErr(err, wantErr); d != "" {
			t.Fatalf("failure in cluster %d: %s", faulty, d)
		}
		if d := sameLine(rl, want); err == nil && d != "" {
			t.Fatalf("failure in cluster %d: %s", faulty, d)
		}
	}
}

// roughHistory runs a width-cluster federation for steps rough steps.
func roughHistory(seed int64, width, steps int) *abstractFederation {
	f := newAbstractFederation(width, seed)
	f.transitive = seed%2 == 0
	for s := 0; s < steps; s++ {
		f.roughStep()
	}
	return f
}

// Property: on histories that include rollback truncation and prefix
// drops, the recovery-line analysis on the stored chains equals the
// dense reference. Widths 3 and 64 under testing/quick; the width the
// chain exists for, 1024, once (FuzzChainAnalysis seeds it too).
func TestChainAnalysisMatchesDenseProperty(t *testing.T) {
	errorsSeen := 0
	prop := func(width int) func(seed int64, stepsRaw uint16) bool {
		return func(seed int64, stepsRaw uint16) bool {
			f := roughHistory(seed, width, 10+int(stepsRaw)%(40*width))
			faults := make([]int, 0, 8)
			for len(faults) < cap(faults) && len(faults) < width {
				faults = append(faults, (int(stepsRaw)+len(faults)*7)%width)
			}
			checkChainAnalysis(t, f, faults)
			if _, err := SmallestSNs(f.chains, f.ddv); err != nil {
				errorsSeen++
			}
			return true
		}
	}
	if err := quick.Check(prop(3), &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(prop(64), &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
	if errorsSeen == 0 {
		t.Fatal("no history reached the missing-checkpoint error")
	}
	if testing.Short() {
		return
	}
	checkChainAnalysis(t, roughHistory(20, 1024, 6000), []int{0, 511, 1023})
}

// FuzzChainAnalysis is the same differential with the fuzzer choosing
// the seed, the width and the length of the history.
func FuzzChainAnalysis(f *testing.F) {
	f.Add(int64(1), 3, 200)
	f.Add(int64(2), 3, 60)
	f.Add(int64(7), 64, 1500)
	f.Add(int64(12), 1024, 4000)
	f.Fuzz(func(t *testing.T, seed int64, width, steps int) {
		if width < 2 || width > 1024 || steps < 0 || steps > 8000 {
			t.Skip()
		}
		fed := roughHistory(seed, width, steps)
		checkChainAnalysis(t, fed, []int{0, width / 2, width - 1})
	})
}
