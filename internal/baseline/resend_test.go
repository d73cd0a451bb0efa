package baseline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// recEnv is a core.Env that records the application messages a node
// transmits, in transmission order.
type recEnv struct{ appSends []wire }

func (e *recEnv) Now() sim.Time                         { return 0 }
func (e *recEnv) Send(topology.NodeID, int, core.Msg)   {}
func (e *recEnv) SetTimer(core.TimerKind, sim.Duration) {}
func (e *recEnv) SendApp(_ topology.NodeID, _ int, msg core.Msg) {
	w, _ := unwrap(msg)
	e.appSends = append(e.appSends, w)
}

type nopApp struct{}

func (nopApp) Snapshot() (any, int)                     { return struct{}{}, 8 }
func (nopApp) Restore(any)                              {}
func (nopApp) Deliver(topology.NodeID, core.AppPayload) {}

// TestResendOrderIsSendOrder: unacknowledged sends that survive a
// rollback (or, for message logging, a peer's failure) are retransmitted
// in ascending MsgID order on every run — the send logs are Go maps, and
// ranging over one put retransmissions into the FIFO pipe in a different
// order from run to run of the same seed.
func TestResendOrderIsSendOrder(t *testing.T) {
	const unacked = 12 // enough map entries that iteration order scatters
	self := topology.NodeID{Cluster: 0, Index: 1}
	dst := topology.NodeID{Cluster: 1, Index: 0}
	leader := topology.NodeID{Cluster: 0, Index: 0}
	cfg := core.Config{ID: self, Clusters: 2, ClusterSizes: []int{3, 3}, CLCPeriod: sim.Hour}

	type node interface {
		Send(topology.NodeID, core.AppPayload)
		OnMessage(topology.NodeID, core.Msg)
	}
	// commit2 commits checkpoint 2 after the sends, so their SendSeq (1)
	// is part of the state a rollback to 2 restores.
	commit2 := func(n node) {
		n.OnMessage(leader, wire{Kind: "prep", Seq: 2})
		n.OnMessage(leader, wire{Kind: "commit", Seq: 2})
	}
	cases := []struct {
		name    string
		build   func(*recEnv) node
		recover func(node)
	}{
		{"global-coordinated",
			func(e *recEnv) node { return NewGlobalCoordinated(cfg, e, nopApp{}, sim.NewStats()) },
			func(n node) {
				commit2(n)
				n.OnMessage(leader, wire{Kind: "rollback", Seq: 2, Epoch: 1})
				n.OnMessage(leader, wire{Kind: "resume", Epoch: 1})
			}},
		{"hier-coordinated",
			func(e *recEnv) node { return NewHierCoord(cfg, e, nopApp{}, sim.NewStats()) },
			func(n node) {
				commit2(n)
				n.OnMessage(leader, wire{Kind: "rollback", Seq: 2, Epoch: 1})
			}},
		{"pessimistic-log",
			func(e *recEnv) node { return NewPessimisticLog(cfg, e, nopApp{}, sim.NewStats()) },
			func(n node) { n.OnMessage(leader, wire{Kind: "alert", From: dst}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 20; rep++ {
				env := &recEnv{}
				n := tc.build(env)
				for i := 0; i < unacked; i++ {
					n.Send(dst, core.AppPayload{Size: 64})
				}
				env.appSends = nil
				tc.recover(n)
				if len(env.appSends) != unacked {
					t.Fatalf("rep %d: %d retransmissions, want %d", rep, len(env.appSends), unacked)
				}
				for i, w := range env.appSends {
					if w.MsgID != uint64(i+1) {
						ids := make([]uint64, len(env.appSends))
						for j, s := range env.appSends {
							ids[j] = s.MsgID
						}
						t.Fatalf("rep %d: retransmitted MsgIDs %v, want ascending 1..%d", rep, ids, unacked)
					}
				}
			}
		})
	}
}
