package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func node(c, i int) topology.NodeID {
	return topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
}

// drive feeds a fixed message sequence and records every decision.
func drive(seed uint64, crashLog *[]topology.NodeID) []netsim.Perturbation {
	var now sim.Time
	s := New(Config{Seed: seed}, sim.NewRNG(seed).Stream("chaos"), Hooks{
		Now: func() sim.Time { return now },
		CrashAt: func(at sim.Time, id topology.NodeID) {
			if crashLog != nil {
				*crashLog = append(*crashLog, id)
			}
		},
	})
	var out []netsim.Perturbation
	msgs := []netsim.Message{
		{Src: node(0, 1), Dst: node(1, 0), Kind: netsim.KindApp, Payload: core.AppMsg{MsgID: 1}},
		{Src: node(0, 0), Dst: node(0, 1), Kind: netsim.KindProto, Payload: core.CLCRequest{Seq: 2}},
		{Src: node(1, 0), Dst: node(0, 0), Kind: netsim.KindProto, Payload: core.RollbackAlert{Cluster: 1}},
		{Src: node(1, 0), Dst: node(1, 1), Kind: netsim.KindProto, Payload: core.RollbackCmd{ToSN: 2}},
		{Src: node(0, 0), Dst: node(1, 0), Kind: netsim.KindProto, Payload: core.GCRequest{Round: 1}},
	}
	for round := 0; round < 200; round++ {
		for _, m := range msgs {
			intra := m.Src.Cluster == m.Dst.Cluster
			p, ok := s.Perturb(m, intra, 30*sim.Millisecond)
			if !ok {
				p = netsim.Perturbation{}
			}
			p.DupPayload = nil // pointers differ across runs; compare decisions
			out = append(out, p)
			now = now.Add(200 * sim.Millisecond)
		}
	}
	return out
}

// TestDeterministicReplay: the whole adversarial schedule is a pure
// function of the seed and the observed message sequence.
func TestDeterministicReplay(t *testing.T) {
	var c1, c2 []topology.NodeID
	a := drive(42, &c1)
	b := drive(42, &c2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different perturbation sequences")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed produced different crash schedules")
	}
	d := drive(43, nil)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical schedules (stream not seeded?)")
	}
}

// TestIntraClusterUntouched: SAN traffic is never reordered or
// duplicated — the 2PC and replica transfer rely on its FIFO contract.
func TestIntraClusterUntouched(t *testing.T) {
	s := New(Config{Seed: 7}, sim.NewRNG(7).Stream("chaos"), Hooks{
		Now: func() sim.Time { return 0 },
	})
	for i := 0; i < 1000; i++ {
		m := netsim.Message{Src: node(0, 0), Dst: node(0, 1), Payload: core.AppMsg{}}
		if p, ok := s.Perturb(m, true, 30*sim.Millisecond); ok {
			t.Fatalf("intra-cluster message perturbed: %+v", p)
		}
	}
}

// TestCrashBudgetAndCooldown: crashes stop at MaxCrashes and are
// spaced at least CrashCooldown apart.
func TestCrashBudgetAndCooldown(t *testing.T) {
	var now sim.Time
	var times []sim.Time
	cfg := Config{Seed: 3, CrashProb: 1.0, MaxCrashes: 4, CrashCooldown: sim.Minute}
	s := New(cfg, sim.NewRNG(3).Stream("chaos"), Hooks{
		Now: func() sim.Time { return now },
		CrashAt: func(at sim.Time, id topology.NodeID) {
			times = append(times, at)
		},
	})
	m := netsim.Message{Src: node(0, 0), Dst: node(0, 1), Payload: core.CLCRequest{Seq: 2}}
	for i := 0; i < 10000; i++ {
		s.Perturb(m, true, 0)
		now = now.Add(time100ms)
	}
	if len(times) != 4 {
		t.Fatalf("got %d crashes, budget is 4", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i].Sub(times[i-1]) < sim.Minute {
			t.Fatalf("crashes %v and %v closer than the cooldown", times[i-1], times[i])
		}
	}
	if s.Crashes() != 4 {
		t.Fatalf("Crashes() = %d, want 4", s.Crashes())
	}
}

const time100ms = 100 * sim.Millisecond

// actions replays the fixed message sequence under cfg and flattens
// every applied perturbation action — crash fuses, reorder releases,
// duplicate deliveries — into one ordered list, the op order spend()
// charges (crash first: Perturb arms fuses before drawing the rest).
func actions(cfg Config, rounds int) (out []string, ops int) {
	var now sim.Time
	var s *Scheduler
	s = New(cfg, sim.NewRNG(cfg.Seed).Stream("chaos"), Hooks{
		Now: func() sim.Time { return now },
		CrashAt: func(at sim.Time, id topology.NodeID) {
			out = append(out, fmt.Sprintf("crash %v %v", at, id))
		},
	})
	msgs := []netsim.Message{
		{Src: node(0, 1), Dst: node(1, 0), Kind: netsim.KindApp, Payload: core.AppMsg{MsgID: 1}},
		{Src: node(0, 0), Dst: node(1, 1), Kind: netsim.KindProto, Payload: core.CLCRequest{Seq: 2}},
		{Src: node(1, 0), Dst: node(0, 0), Kind: netsim.KindProto, Payload: core.RollbackAlert{Cluster: 1}},
		{Src: node(1, 0), Dst: node(0, 1), Kind: netsim.KindProto, Payload: core.RollbackCmd{ToSN: 2}},
		{Src: node(0, 0), Dst: node(1, 0), Kind: netsim.KindProto, Payload: core.GCRequest{Round: 1}},
	}
	for round := 0; round < rounds; round++ {
		for _, m := range msgs {
			p, ok := s.Perturb(m, false, 30*sim.Millisecond)
			if ok && p.Unclamped {
				out = append(out, fmt.Sprintf("reorder %v", p.Extra))
			}
			if ok && p.Duplicate > 0 {
				out = append(out, fmt.Sprintf("dup %v", p.Duplicate))
			}
			now = now.Add(200 * sim.Millisecond)
		}
	}
	return out, s.Ops()
}

// TestOpBudgetPrefix: a run at budget B applies exactly the first B
// actions of the unlimited schedule and nothing after them — the
// property the failure minimizer's binary search stands on. Every
// random draw must survive budget exhaustion (only the application is
// suppressed), or the budgeted stream would drift off the unlimited
// one before the budget is even reached.
func TestOpBudgetPrefix(t *testing.T) {
	for _, seed := range []uint64{3, 17, 92} {
		cfg := Config{Seed: seed, CrashProb: 0.2, CrashCooldown: sim.Second}
		full, ops := actions(cfg, 200)
		if ops != len(full) {
			t.Fatalf("seed %d: Ops() = %d but %d actions recorded", seed, ops, len(full))
		}
		if len(full) < 10 {
			t.Fatalf("seed %d: only %d actions; schedule not adversarial enough to test", seed, len(full))
		}
		for _, b := range []int{1, 2, 3, len(full) / 2, len(full) - 1, len(full), len(full) + 7} {
			cfg.OpBudget = b
			got, gotOps := actions(cfg, 200)
			want := full
			if b < len(full) {
				want = full[:b]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d budget %d: applied actions are not the unlimited schedule's prefix:\n got %v\nwant %v",
					seed, b, got, want)
			}
			if gotOps != len(want) {
				t.Fatalf("seed %d budget %d: Ops() = %d, want %d", seed, b, gotOps, len(want))
			}
		}
	}
}

// boxedRows pairs every control message a node sends in a recycled
// core.Box with that boxed form, and says whether it opens a crash
// window.
func boxedRows() []struct {
	name         string
	value, boxed any
	arms         bool
} {
	return []struct {
		name         string
		value, boxed any
		arms         bool
	}{
		{"CLCRequest", core.CLCRequest{Seq: 2}, new(core.Boxes[core.CLCRequest]).Wrap(core.CLCRequest{Seq: 2}), true},
		{"CLCAck", core.CLCAck{Seq: 2}, new(core.Boxes[core.CLCAck]).Wrap(core.CLCAck{Seq: 2}), false},
		{"CLCCommit", core.CLCCommit{Seq: 2}, new(core.Boxes[core.CLCCommit]).Wrap(core.CLCCommit{Seq: 2}), false},
		{"ForceCLC", core.ForceCLC{Always: true}, new(core.Boxes[core.ForceCLC]).Wrap(core.ForceCLC{Always: true}), false},
		{"Replica", core.Replica{Seq: 2}, new(core.Boxes[core.Replica]).Wrap(core.Replica{Seq: 2}), false},
		{"ReplicaAck", core.ReplicaAck{Seq: 2}, new(core.Boxes[core.ReplicaAck]).Wrap(core.ReplicaAck{Seq: 2}), false},
		{"LogMirror", core.LogMirror{MsgID: 2}, new(core.Boxes[core.LogMirror]).Wrap(core.LogMirror{MsgID: 2}), false},
	}
}

// TestCrashFuseBoxParity: a control message arms the same crash fuses,
// drawing the same random numbers, whether it travels as a value or in
// a recycled box — the form a harness that reclaims boxes sends.
// Otherwise mid-2PC crash fuses would silently stop arming.
func TestCrashFuseBoxParity(t *testing.T) {
	run := func(payload any) ([]string, uint64) {
		var now sim.Time
		var fuses []string
		s := New(Config{Seed: 5, CrashProb: 0.5, CrashCooldown: sim.Second}, sim.NewRNG(5).Stream("chaos"), Hooks{
			Now: func() sim.Time { return now },
			CrashAt: func(at sim.Time, id topology.NodeID) {
				fuses = append(fuses, fmt.Sprintf("%v %v", at, id))
			},
		})
		for i := 0; i < 200; i++ {
			s.maybeArmCrash(netsim.Message{Src: node(0, 0), Dst: node(0, 1), Kind: netsim.KindProto, Payload: payload})
			now = now.Add(time100ms)
		}
		return fuses, s.rng.Uint64()
	}
	for _, r := range boxedRows() {
		vFuses, vNext := run(r.value)
		bFuses, bNext := run(r.boxed)
		if !reflect.DeepEqual(vFuses, bFuses) || vNext != bNext {
			t.Errorf("%s: value armed %v, box armed %v (next draws %d, %d)", r.name, vFuses, bFuses, vNext, bNext)
		}
		if armed := len(vFuses) > 0; armed != r.arms {
			t.Errorf("%s: armed a fuse = %v, want %v", r.name, armed, r.arms)
		}
	}
}

// TestDuplicateRefusesBoxes: no boxed control message is ever
// duplicated — a box belongs to exactly one delivery.
func TestDuplicateRefusesBoxes(t *testing.T) {
	for _, r := range boxedRows() {
		if dupSafe(r.boxed) {
			t.Errorf("%s: boxed form accepted for duplication", r.name)
		}
	}
}

// TestDuplicatePayloadRules: pooled boxes are deep-copied but for the
// immutable whole piggyback, value messages shared, and everything else
// is never duplicated.
func TestDuplicatePayloadRules(t *testing.T) {
	box := &core.AppMsg{MsgID: 9, PiggyPairs: []core.DDVPair{{Idx: 1, SN: 2}},
		Piggy: core.SparseDDV{Width: 2, Pairs: []core.DDVPair{{Idx: 0, SN: 4}}}}
	if !dupSafe(box) {
		t.Fatal("*AppMsg must be duplicate-safe")
	}
	cp := dupCopy(box).(*core.AppMsg)
	if cp == box {
		t.Fatal("pooled box duplicated without a deep copy")
	}
	if cp.MsgID != 9 || len(cp.PiggyPairs) != 1 || &cp.PiggyPairs[0] == &box.PiggyPairs[0] {
		t.Fatal("deep copy lost fields or shares the delta pairs")
	}
	if cp.Piggy.Width != 2 || &cp.Piggy.Pairs[0] != &box.Piggy.Pairs[0] {
		t.Fatal("deep copy lost or cloned the immutable whole piggyback")
	}
	if !dupSafe(core.RollbackAlert{}) || dupCopy(core.RollbackAlert{}) != nil {
		t.Fatal("RollbackAlert must be duplicate-safe and shared")
	}
	if dupSafe(core.CLCCommit{}) {
		t.Fatal("CLCCommit must never be duplicated")
	}
	if dupSafe(core.Replica{}) {
		t.Fatal("Replica must never be duplicated")
	}
}
