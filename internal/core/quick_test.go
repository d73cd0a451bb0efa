package core

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// Property-based tests (testing/quick) over the pure helpers.

// randomMetaList builds a protocol-plausible checkpoint list from raw
// fuzz input: SNs ascend from 1, DDV entries are monotone per column.
func randomMetaList(raw []uint8, clusters int) []Meta {
	list := []Meta{{SN: 1, DDV: NewDDV(clusters)}}
	list[0].DDV[0] = 1
	for i, b := range raw {
		prev := list[len(list)-1]
		m := Meta{SN: prev.SN + 1, DDV: prev.DDV.Clone()}
		m.DDV[0] = m.SN
		col := 1 + i%(clusters-1)
		m.DDV[col] += SN(b % 4)
		list = append(list, m)
		if len(list) > 48 {
			break
		}
	}
	return list
}

// Property: OldestWith and NewestBelow partition the list — everything
// before the oldest qualifying index is below the threshold and
// everything from it onwards is at or above it (per-column
// monotonicity), so the two searches always return adjacent indices.
func TestOldestNewestPartitionProperty(t *testing.T) {
	f := func(raw []uint8, sRaw uint8) bool {
		const clusters = 3
		list := randomMetaList(raw, clusters)
		c := topology.ClusterID(1)
		s := SN(sRaw % 12)
		if s == 0 {
			s = 1
		}
		oldest := oldestWith(t, list, c, s)
		newest := newestBelow(t, list, c, s)
		switch {
		case oldest == -1:
			return newest == len(list)-1
		case newest == -1:
			return oldest == 0
		default:
			return newest == oldest-1
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: every rollback test result is consistent with the chosen
// target — the target's entry satisfies the alert and any earlier
// checkpoint's does not.
func TestOldestWithIsMinimalProperty(t *testing.T) {
	f := func(raw []uint8, sRaw uint8) bool {
		list := randomMetaList(raw, 4)
		c := topology.ClusterID(2)
		s := SN(sRaw%10) + 1
		idx := oldestWith(t, list, c, s)
		if idx == -1 {
			for _, m := range list {
				if m.DDV[c] >= s {
					return false
				}
			}
			return true
		}
		if list[idx].DDV[c] < s {
			return false
		}
		for i := 0; i < idx; i++ {
			if list[i].DDV[c] >= s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: control messages always have a positive wire size, and
// state-bearing ones are priced at least at their state size.
func TestControlSizePositiveProperty(t *testing.T) {
	f := func(sz uint16, nClusters uint8) bool {
		n := int(nClusters%8) + 1
		msgs := []Msg{
			AppAck{}, CLCAck{}, CLCRequest{UpdateWidth: n},
			CLCCommit{Width: n}, ForceCLC{Width: n},
			RollbackAlert{}, RollbackCmd{}, RollbackAck{}, RollbackResume{},
			GCRequest{}, GCCollect{MinSNs: make([]SN, n)},
			GCDrop{MinSNs: make([]SN, n)}, GCDemand{},
			Replica{Size: int(sz)}, RecoverStateResp{Size: int(sz)},
			LogMirror{}, LogTrim{}, ReReplicateReq{},
		}
		for _, m := range msgs {
			s := controlSize(m)
			if s <= 0 {
				return false
			}
		}
		if controlSize(Replica{Size: int(sz)}) < int(sz) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SmallestSNs never exceeds any cluster's current SN and is
// monotone under appending a fresh checkpoint to any cluster (new
// checkpoints can only move the collectable frontier forward).
func TestSmallestSNsBoundedProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		f := newAbstractFederation(3, seed)
		for s := 0; s < 50; s++ {
			f.step()
		}
		min, err := smallestSNs(t, f.lists, f.ddv)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if min[j] > f.sn[j] {
				t.Fatalf("seed=%d: min %d > current %d", seed, min[j], f.sn[j])
			}
			if min[j] < 1 {
				t.Fatalf("seed=%d: min below the initial checkpoint", seed)
			}
		}
		// Commit one more checkpoint somewhere and recompute.
		f.commit(seed2cluster(seed), nil)
		min2, err := smallestSNs(t, f.lists, f.ddv)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if min2[j] < min[j] {
				t.Fatalf("seed=%d: frontier moved backwards (%d -> %d)", seed, min[j], min2[j])
			}
		}
	}
}

func seed2cluster(seed int64) int { return int(seed) % 3 }
