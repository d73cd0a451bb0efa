package app

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// sendEvent is one scheduled application send on a node's private
// application-time axis.
type sendEvent struct {
	At   sim.Duration // application time since the node's logical start
	Dst  topology.NodeID
	Size int
}

// State is a NodeApp snapshot handed to the checkpointing protocol. It
// is intentionally tiny: the simulated application's "virtual memory"
// is priced separately through Workload.StateSize. Delivery state is
// captured as a prefix of the node's append-only delivery journal, cut
// without copying, so snapshotting is O(1). Snapshot hands out a
// *State cut from the application's slab; a snapshot is immutable once
// cut (Restore never lets an append write into a prefix a snapshot
// holds), so replicas shipped to neighbours share nothing mutable.
type State struct {
	NextSend int
	AppClock sim.Duration
	// Journal is the delivery journal at snapshot time; Restore rewinds
	// the application's journal to it.
	Journal []core.LogicalID
}

// NodeApp is the simulated application process on one node: it draws a
// Poisson send schedule from the workload's rate matrix and records
// every delivery in its journal, the only delivery record it keeps:
// per-message counts are derived from the journal when asked for. It
// implements core.AppHooks so the protocol can snapshot and restore it
// transparently.
type NodeApp struct {
	id  topology.NodeID
	wl  *Workload
	fed *topology.Federation
	rng *sim.RNG

	// schedule is the lazily generated, cached send timeline. With
	// Deterministic replay the cache makes re-execution after a
	// rollback reproduce exactly the same sends.
	schedule []sendEvent
	genState genCursor

	next      int // index of the next send in schedule
	appStart  sim.Duration
	clockBase sim.Time // sim time corresponding to appStart of current incarnation
	// journal records every delivery in order, duplicates included. A
	// snapshot is a journal prefix; a restore truncates the journal to
	// it (or adopts it, in a fresh process).
	journal []core.LogicalID
	epoch   uint64
	// states backs the snapshots: one chunk per many checkpoints instead
	// of one State boxed into an interface per checkpoint.
	states core.Slab[State]

	// Stable-delivery tracking (open-loop workloads only): stableAt is
	// parallel to journal and holds, for every entry below stableMark,
	// the simulation time at which the delivery became covered by a
	// committed checkpoint. A rollback truncates both with the journal,
	// so an entry that survives to the end of the run keeps the time of
	// the first covering commit that was itself never rolled back behind
	// — exactly when the delivery became permanent in this execution.
	trackStable bool
	stableAt    []sim.Time
	stableMark  int

	// Now supplies the current simulation time; the harness must set it
	// before the first snapshot so application clocks survive restores.
	Now func() sim.Time
	// Restored is invoked after every Restore so the harness can
	// re-schedule the node's pending send timer.
	Restored func()
	// OnLost, when set, receives the application progress a restore
	// discarded (the work to re-execute).
	OnLost func(sim.Duration)

	// TotalDeliveries counts every Deliver call, duplicates included.
	TotalDeliveries uint64
}

// genCursor tracks the per-destination Poisson streams used to extend
// the schedule. Only destinations with a nonzero rate get a slot: on
// wide federations the rate matrix is sparse (a 1024-cluster ring row
// has 3 live entries), and building 1024 RNGs per node — then scanning
// all 1024 cursors per generated event — dominated the simulator's
// setup profile. The three slices are parallel, indexed by slot;
// active lists the live destination clusters in ascending order, so
// the earliest-event argmin (first slot wins ties, i.e. the lowest
// cluster index, unchanged from the full-width cursor) touches only
// live streams and the per-node footprint is O(live), not O(width).
type genCursor struct {
	active []int32        // live destination clusters, ascending
	nextAt []sim.Duration // next event time, parallel to active
	rngs   []*sim.RNG     // Poisson stream, parallel to active
}

// NewNodeApp builds the application of one node. rng must be a private
// stream for this node. The send schedule is sized from the node's
// outbound rate; the delivery journal starts empty and grows by append.
func NewNodeApp(id topology.NodeID, wl *Workload, fed *topology.Federation, rng *sim.RNG) *NodeApp {
	row := wl.rateSums()
	a := &NodeApp{
		id:          id,
		wl:          wl,
		fed:         fed,
		rng:         rng,
		schedule:    make([]sendEvent, 0, sizeHint(row[id.Cluster], id, wl, fed)),
		trackStable: wl.OpenLoop != nil,
	}
	a.initCursor(rng)
	return a
}

// sizeHint bounds how many of perHour's cluster-aggregate messages one
// node of id's cluster handles over the run, so a buffer is sized once
// instead of regrowing. The count is Poisson: the mean plus three
// standard deviations covers all but about one node in a thousand. An
// open-ended workload (the live runtime's) has no total to size for.
func sizeHint(perHour float64, id topology.NodeID, wl *Workload, fed *topology.Federation) int {
	if wl.TotalTime >= sim.Forever {
		return 0
	}
	mean := perHour * wl.TotalTime.Seconds() / 3600 / float64(fed.Clusters[id.Cluster].Nodes)
	const maxHint = 1 << 16 // hint only: never pre-reserve absurd amounts
	return int(min(mean+3*math.Sqrt(mean), maxHint))
}

func (a *NodeApp) initCursor(rng *sim.RNG) {
	n := a.fed.NumClusters()
	row := a.wl.RatesPerHour[a.id.Cluster]
	live := 0
	for d := 0; d < n; d++ {
		if row[d] > 0 {
			live++
		}
	}
	a.genState = genCursor{
		active: make([]int32, 0, live),
		nextAt: make([]sim.Duration, 0, live),
		rngs:   make([]*sim.RNG, 0, live),
	}
	for d := 0; d < n; d++ {
		if row[d] <= 0 {
			// Dead pipe: consume the parent draw StreamN would have
			// taken — live destinations then derive byte-identical
			// streams — but skip the stream object itself (drawGap
			// never touches the RNG of a zero-rate destination).
			rng.Uint64()
			continue
		}
		k := len(a.genState.active)
		a.genState.active = append(a.genState.active, int32(d))
		a.genState.rngs = append(a.genState.rngs, rng.StreamN("dst", d))
		a.genState.nextAt = append(a.genState.nextAt, a.nextEvent(k, 0))
	}
}

// drawGap draws the next inter-send gap towards the destination in
// cursor slot k. With a burst envelope the gap lives on the on-time
// axis (and is scaled by the duty cycle so the long-run average rate
// is preserved); nextEvent maps it back to absolute application time.
func (a *NodeApp) drawGap(k int) sim.Duration {
	d := a.genState.active[k]
	rate := a.wl.RatesPerHour[a.id.Cluster][d] // cluster-aggregate msgs/hour
	size := float64(a.fed.Clusters[a.id.Cluster].Nodes)
	perNode := rate / size
	if perNode <= 0 {
		return sim.Forever
	}
	mean := sim.Duration(float64(sim.Hour) / perNode)
	if a.wl.Burst != nil {
		mean = sim.Duration(float64(mean) * a.wl.Burst.Duty)
	}
	return a.genState.rngs[k].Exp(mean)
}

// nextEvent returns the absolute application time of the next send
// towards the destination in cursor slot k, given the previous one at
// from.
func (a *NodeApp) nextEvent(k int, from sim.Duration) sim.Duration {
	g := a.drawGap(k)
	if g >= sim.Forever {
		return sim.Forever
	}
	if b := a.wl.Burst; b != nil {
		return b.Unwarp(b.Warp(from) + g)
	}
	return from + g
}

// extendTo grows the cached schedule until it covers index i or the
// workload's end.
func (a *NodeApp) extendTo(i int) {
	for len(a.schedule) <= i {
		// Pick the cursor slot with the earliest next event; slots are
		// in ascending cluster order, so the first-wins tie-break keeps
		// the lowest destination cluster, as the full-width scan did.
		best := -1
		at := sim.Duration(math.MaxInt64)
		for k, t := range a.genState.nextAt {
			if t < at {
				best, at = k, t
			}
		}
		if best == -1 || at > a.wl.TotalTime {
			return // workload finished
		}
		dst := a.pickNode(best)
		a.schedule = append(a.schedule, sendEvent{At: at, Dst: dst, Size: a.wl.MsgSize})
		a.genState.nextAt[best] = a.nextEvent(best, at)
	}
}

// pickNode selects a uniform destination node in the cluster of cursor
// slot k (never the sender itself).
func (a *NodeApp) pickNode(k int) topology.NodeID {
	c := topology.ClusterID(a.genState.active[k])
	size := a.fed.Clusters[c].Nodes
	r := a.genState.rngs[k]
	if c == a.id.Cluster {
		if size == 1 {
			panic(fmt.Sprintf("app: node %v has intra-cluster traffic but no peer", a.id))
		}
		idx := r.Intn(size - 1)
		if idx >= a.id.Index {
			idx++
		}
		return topology.NodeID{Cluster: c, Index: idx}
	}
	return topology.NodeID{Cluster: c, Index: r.Intn(size)}
}

// ID returns the node this application instance belongs to.
func (a *NodeApp) ID() topology.NodeID { return a.id }

// NextSend returns the application time of the next send and whether
// one remains.
func (a *NodeApp) NextSend() (sim.Duration, bool) {
	a.extendTo(a.next)
	if a.next >= len(a.schedule) {
		return 0, false
	}
	return a.schedule[a.next].At, true
}

// TakeSend consumes the next scheduled send, returning its destination
// and payload. The logical ID embeds the schedule index and the replay
// epoch: with deterministic replay the epoch stays 0 and re-executions
// regenerate identical IDs.
func (a *NodeApp) TakeSend() (topology.NodeID, core.AppPayload, bool) {
	a.extendTo(a.next)
	if a.next >= len(a.schedule) {
		return topology.NodeID{}, core.AppPayload{}, false
	}
	ev := a.schedule[a.next]
	seq := uint64(a.next + 1)
	if !a.wl.Deterministic {
		seq += a.epoch << 32 // distinct identity per incarnation
	}
	a.next++
	return ev.Dst, core.AppPayload{
		ID:   core.LogicalID{Src: a.id, Seq: seq},
		Size: ev.Size,
	}, true
}

// SimTimeOf maps an application time to the current simulation time
// axis (it shifts at every restore).
func (a *NodeApp) SimTimeOf(appAt sim.Duration) sim.Time {
	return a.clockBase.Add(appAt - a.appStart)
}

// AppClock returns the node's application progress at sim time now.
func (a *NodeApp) AppClock(now sim.Time) sim.Duration {
	return a.appStart + now.Sub(a.clockBase)
}

// SyncClock records that application time appAt corresponds to sim time
// now (called at start and at every restore).
func (a *NodeApp) SyncClock(now sim.Time, appAt sim.Duration) {
	a.clockBase = now
	a.appStart = appAt
}

// LostWork returns how much application progress a restore to snapshot
// clock c discards, given progress p at the failure.
func LostWork(p, c sim.Duration) sim.Duration {
	if p < c {
		return 0
	}
	return p - c
}

// ---- core.AppHooks ----

// Snapshot captures the application state; its reported size is the
// workload's StateSize (the simulated process image).
func (a *NodeApp) Snapshot() (any, int) {
	var clock sim.Duration
	if a.Now != nil {
		clock = a.AppClock(a.Now())
	}
	s := a.states.New()
	*s = State{
		NextSend: a.next,
		AppClock: clock,
		Journal:  a.journal[:len(a.journal):len(a.journal)],
	}
	return s, a.wl.StateSize
}

// Restore reinstalls a snapshot, rewinding the application clock; the
// harness re-schedules the send timer through Restored.
func (a *NodeApp) Restore(state any) {
	s := state.(*State)
	a.next = s.NextSend
	if a.Now != nil {
		now := a.Now()
		if a.OnLost != nil {
			a.OnLost(LostWork(a.AppClock(now), s.AppClock))
		}
		a.SyncClock(now, s.AppClock)
	}
	// Rewind the delivery journal to the snapshot's prefix, forgetting
	// (exactly) the deliveries that happened after it — or, in a fresh
	// process restored from a replica that holds less history than the
	// snapshot, adopt the snapshot's journal. Clipped: the next append
	// reallocates instead of writing into a prefix some snapshot still
	// shares.
	n := len(s.Journal)
	if a.trackStable && n > len(a.stableAt) {
		a.stableAt = append(a.stableAt, make([]sim.Time, n-len(a.stableAt))...)
	}
	a.journal = s.Journal[:n:n]
	if a.trackStable {
		// Stability marks past the restore point were premature — the
		// covering commit is being rolled back behind; re-delivery will
		// re-mark them at their next permanent coverage.
		a.stableAt = a.stableAt[:n]
		if a.stableMark > n {
			a.stableMark = n
		}
	}
	a.epoch++
	if !a.wl.Deterministic {
		// Forget the cached future: re-execution draws a fresh
		// schedule beyond the restore point.
		a.schedule = a.schedule[:a.next]
		fresh := a.rng.StreamN("replay", int(a.epoch))
		a.initCursor(fresh)
		// Future events must not precede the restore point.
		var base sim.Duration
		if a.next > 0 {
			base = a.schedule[a.next-1].At
		}
		for d := range a.genState.nextAt {
			if a.genState.nextAt[d] != sim.Forever {
				a.genState.nextAt[d] += base
			}
		}
	}
	if a.Restored != nil {
		a.Restored()
	}
}

// Deliver records a payload receipt.
func (a *NodeApp) Deliver(from topology.NodeID, p core.AppPayload) {
	a.journal = append(a.journal, p.ID)
	if a.trackStable {
		a.stableAt = append(a.stableAt, 0) // unstable until a commit covers it
	}
	a.TotalDeliveries++
}

// Stabilized implements core.Stabilizer: the protocol committed a
// checkpoint whose snapshot is state, so every journal entry the
// snapshot covers is now backed by stable storage. Entries between the
// previous mark and the end of the snapshot's journal get the current
// time as their (provisional — see Restore) stability time.
func (a *NodeApp) Stabilized(state any) {
	if !a.trackStable {
		return
	}
	n := len(state.(*State).Journal)
	if n > len(a.stableAt) {
		panic(fmt.Sprintf("app: commit covers %d journal entries, only %d delivered", n, len(a.stableAt)))
	}
	var now sim.Time
	if a.Now != nil {
		now = a.Now()
	}
	for j := a.stableMark; j < n; j++ {
		a.stableAt[j] = now
	}
	if n > a.stableMark {
		a.stableMark = n
	}
}

// StableCount returns how many leading journal entries are covered by
// a committed checkpoint (0 unless the workload is open-loop).
func (a *NodeApp) StableCount() int { return a.stableMark }

// JournalEntry returns the logical ID of the j-th delivery in the
// node's current journal.
func (a *NodeApp) JournalEntry(j int) core.LogicalID { return a.journal[j] }

// JournalLen returns how many deliveries the node's current journal
// holds, duplicates included.
func (a *NodeApp) JournalLen() int { return len(a.journal) }

// StableTime returns when the j-th delivery became stable; valid for
// j < StableCount().
func (a *NodeApp) StableTime(j int) sim.Time { return a.stableAt[j] }

// ArrivalTime returns when the i-th scheduled request (0-based) entered
// the system: open-loop arrivals are fixed by the users' schedule on
// the original time axis, so rollbacks delay service, never arrival.
func (a *NodeApp) ArrivalTime(i int) sim.Time {
	a.extendTo(i)
	return sim.Time(0).Add(a.schedule[i].At)
}

// DeliveredCount returns how many distinct logical messages this node
// has received in its current state. It groups the journal's sequence
// numbers by sender and sorts each group: plain integers sort several
// times faster than logical IDs under a comparator. Meant for
// end-of-run checks, not hot paths; a node hears from few senders, so
// the sender lookup is a scan.
func (a *NodeApp) DeliveredCount() int {
	var senders []topology.NodeID
	var seqs [][]uint64
	g := -1
	for _, id := range a.journal {
		if g < 0 || senders[g] != id.Src {
			if g = slices.Index(senders, id.Src); g < 0 {
				g = len(senders)
				senders = append(senders, id.Src)
				seqs = append(seqs, nil)
			}
		}
		seqs[g] = append(seqs[g], id.Seq)
	}
	n := 0
	for _, s := range seqs {
		slices.Sort(s)
		n += len(slices.Compact(s))
	}
	return n
}

// DeliveredTimes returns the delivery count of one logical message: one
// scan of the journal per call.
func (a *NodeApp) DeliveredTimes(id core.LogicalID) int {
	times := 0
	for _, j := range a.journal {
		if j == id {
			times++
		}
	}
	return times
}

// SentCount returns how many sends this node has performed in its
// current incarnation's history.
func (a *NodeApp) SentCount() int { return a.next }

// DestinationOf returns the destination of the i-th scheduled send
// (0-based), which is stable under deterministic replay.
func (a *NodeApp) DestinationOf(i int) topology.NodeID {
	a.extendTo(i)
	return a.schedule[i].Dst
}
