package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/oracle"
	hcrt "repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/soak"
	"repro/internal/topology"
)

// The layer drivers time one layer's public API in isolation. They do
// not depend on the workload; every traced run repeats them so that it
// reports every per-layer metric. Each time-sliced driver runs for d.

// runDrivers returns the driver figures by metric name.
func runDrivers(d time.Duration, seed uint64, dir string, recoveries int) (map[string]float64, error) {
	out := map[string]float64{}
	for _, drv := range []func(time.Duration, map[string]float64){
		driveEngine, driveHistogram, driveNetsim,
		driveOnMessage, driveCLCDeep, drivePiggybackWide, driveCLCWide,
		driveOpenLoopCompile, driveArrivals, driveSnapshots,
	} {
		drv(d, out)
	}
	for _, drv := range []func(time.Duration, string, map[string]float64) error{
		driveTransports, driveJournal, driveLineJournal,
	} {
		if err := drv(d, dir, out); err != nil {
			return out, err
		}
	}
	if err := driveRecover(recoveries, out); err != nil {
		return out, err
	}
	return out, driveProtocols(seed, out)
}

// perOp runs batch (which performs n operations) until d has passed and
// returns the mean nanoseconds per operation.
func perOp(d time.Duration, batch func() (n int)) float64 {
	var ops int
	t0 := time.Now()
	for time.Since(t0) < d || ops == 0 {
		ops += batch()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// ---- sim ----

// driveEngine: schedule and fire events in front of a standing queue
// of 4096 far timers, the steady-state shape of a big federation.
func driveEngine(d time.Duration, out map[string]float64) {
	e := sim.NewEngine()
	for i := 0; i < 4096; i++ {
		e.Schedule(24*sim.Hour+sim.Duration(i)*sim.Second, func(*sim.Engine) {})
	}
	fired := 0
	fn := func(any) { fired++ }
	out["sim.engine_ns_per_event"] = perOp(d, func() int {
		const batch = 1024
		for k := 0; k < batch; k++ {
			e.ScheduleCall(sim.Duration(k+1)*sim.Microsecond, fn, nil)
		}
		_, _ = e.Run(e.Now().Add(2 * sim.Millisecond)) // no MaxEvents, no interrupt: cannot fail
		return batch
	})
}

func driveHistogram(d time.Duration, out map[string]float64) {
	var h sim.Histogram
	rng := sim.NewRNG(1)
	out["sim.histogram_ns_per_observe"] = perOp(d, func() int {
		const batch = 4096
		for k := 0; k < batch; k++ {
			// Shaped like a stable-delivery wait: a phase of the
			// commit period plus a link-scale tail.
			h.Observe(float64(k%300) + rng.Float64())
		}
		return batch
	})
}

// ---- netsim ----

// driveNetsim: Network.Send to handler, inside one cluster and across
// two, on an otherwise empty engine.
func driveNetsim(d time.Duration, out map[string]float64) {
	fed := uniformClusters(nil, 2, 2)
	fed.SetAllInterLinks(topology.EthernetLike())
	e := sim.NewEngine()
	net := netsim.New(e, fed, sim.NewStats(), nil)
	got := 0
	for _, id := range fed.AllNodes() {
		net.Register(id, func(netsim.Message) { got++ })
	}
	src := topology.NodeID{Cluster: 0, Index: 0}
	for name, dst := range map[string]topology.NodeID{
		"netsim.ns_per_msg_intra": {Cluster: 0, Index: 1},
		"netsim.ns_per_msg_inter": {Cluster: 1, Index: 0},
	} {
		out[name] = perOp(d, func() int {
			const batch = 256
			for k := 0; k < batch; k++ {
				net.Send(src, dst, netsim.KindApp, 4096, nil)
			}
			_, _ = e.RunAll()
			return batch
		})
	}
}

// ---- core: a benchmark-owned Env ----

// bed wires core.Nodes through a synchronous zero-latency FIFO, the
// smallest core.Env there is, so the figures are protocol cost alone.
// It offers the delta piggyback codecs a transitive federation has.
type bed struct {
	width  int
	nodes  map[topology.NodeID]*core.Node
	queue  []bedMsg
	codecs map[[2]topology.ClusterID]*core.DeltaCodec
	now    sim.Time
	// Recycled message boxes (core.BoxPool), as the federation has.
	appBoxes []*core.AppMsg
	ackBoxes []*core.AppAck
}

type bedMsg struct {
	src, dst topology.NodeID
	msg      core.Msg
}

type bedEnv struct {
	b  *bed
	id topology.NodeID
}

func (e bedEnv) Now() sim.Time { return e.b.now }
func (e bedEnv) Send(dst topology.NodeID, _ int, msg core.Msg) {
	e.b.queue = append(e.b.queue, bedMsg{e.id, dst, msg})
}
func (e bedEnv) SendApp(dst topology.NodeID, size int, msg core.Msg) { e.Send(dst, size, msg) }
func (bedEnv) SetTimer(core.TimerKind, sim.Duration)                 {}
func (bedEnv) Trace(sim.TraceLevel, string, ...any)                  {}
func (bedEnv) Stat(string, uint64)                                   {}
func (bedEnv) StatSeries(string, float64)                            {}

func (e bedEnv) PiggyCodec(src, dst topology.ClusterID) *core.DeltaCodec {
	k := [2]topology.ClusterID{src, dst}
	cd := e.b.codecs[k]
	if cd == nil {
		cd = new(core.DeltaCodec)
		cd.Init(e.b.width)
		e.b.codecs[k] = cd
	}
	return cd
}

func (e bedEnv) ResetPiggyExam(dst topology.ClusterID) {
	for k, cd := range e.b.codecs {
		if k[1] == dst {
			cd.ResetSeen()
		}
	}
}

func (e bedEnv) AppMsgBox() *core.AppMsg {
	if last := len(e.b.appBoxes) - 1; last >= 0 {
		m := e.b.appBoxes[last]
		e.b.appBoxes = e.b.appBoxes[:last]
		return m
	}
	return new(core.AppMsg)
}

func (e bedEnv) AppAckBox() *core.AppAck {
	if last := len(e.b.ackBoxes) - 1; last >= 0 {
		m := e.b.ackBoxes[last]
		e.b.ackBoxes = e.b.ackBoxes[:last]
		return m
	}
	return new(core.AppAck)
}

// reclaim takes a box back once its receiver has returned.
func (b *bed) reclaim(msg core.Msg) {
	switch m := msg.(type) {
	case *core.AppMsg:
		*m = core.AppMsg{}
		b.appBoxes = append(b.appBoxes, m)
	case *core.AppAck:
		*m = core.AppAck{}
		b.ackBoxes = append(b.ackBoxes, m)
	}
}

// nullApp is an application with no state.
type nullApp struct{}

func (nullApp) Snapshot() (any, int)                     { return nil, 1024 }
func (nullApp) Restore(any)                              {}
func (nullApp) Deliver(topology.NodeID, core.AppPayload) {}

// newBed declares a federation of the given cluster sizes and builds
// the nodes of the first `built` clusters only: a width-1024 vector
// does not need 1024 clusters of nodes to be exercised.
func newBed(sizes []int, built int, transitive bool) *bed {
	b := &bed{width: len(sizes), nodes: map[topology.NodeID]*core.Node{},
		codecs: map[[2]topology.ClusterID]*core.DeltaCodec{}}
	for c := 0; c < built; c++ {
		for i := 0; i < sizes[c]; i++ {
			id := topology.NodeID{Cluster: topology.ClusterID(c), Index: i}
			repl := 1
			if sizes[c] == 1 {
				repl = 0
			}
			b.nodes[id] = core.NewNode(core.Config{
				ID: id, Clusters: len(sizes), ClusterSizes: sizes,
				CLCPeriod: sim.Forever, GCPeriod: sim.Forever,
				Replicas: repl, Transitive: transitive,
			}, bedEnv{b, id}, nullApp{})
			b.nodes[id].Start()
		}
	}
	for _, n := range b.nodes {
		for _, tgt := range n.ReplicaTargets() {
			b.nodes[tgt].SeedReplica(n.InitialReplica())
		}
	}
	return b
}

func (b *bed) node(c, i int) *core.Node {
	return b.nodes[topology.NodeID{Cluster: topology.ClusterID(c), Index: i}]
}

// pump delivers queued messages FIFO until none is left, decoding
// delta piggybacks where an inter-cluster pipe would.
func (b *bed) pump() {
	for len(b.queue) > 0 {
		m := b.queue[0]
		b.queue = b.queue[1:]
		if am, ok := m.msg.(*core.AppMsg); ok && m.src.Cluster != m.dst.Cluster && len(am.PiggyPairs) > 0 {
			b.codecs[[2]topology.ClusterID{m.src.Cluster, m.dst.Cluster}].Decode(am.PiggyPairs)
		}
		b.now++
		b.nodes[m.dst].OnMessage(m.src, m.msg)
		b.reclaim(m.msg)
	}
}

func sizesOf(width, first int) []int {
	sizes := make([]int, width)
	for i := range sizes {
		sizes[i] = 1
	}
	sizes[0] = first
	return sizes
}

// driveOnMessage: an inter-cluster application message whose dependency
// is already covered, into Node.OnMessage — the path every message
// takes between checkpoints.
func driveOnMessage(d time.Duration, out map[string]float64) {
	b := newBed([]int{2, 2}, 2, false)
	dst, src := b.node(0, 0), topology.NodeID{Cluster: 1, Index: 0}
	m := &core.AppMsg{SrcCluster: 1, Payload: core.AppPayload{ID: core.LogicalID{Src: src}, Size: 4096}}
	out["core.ns_per_onmessage"] = perOp(d, func() int {
		const batch = 1024
		for k := 0; k < batch; k++ {
			m.MsgID++
			m.Payload.ID.Seq = m.MsgID
			dst.OnMessage(src, m)
		}
		for _, ack := range b.queue {
			b.reclaim(ack.msg)
		}
		b.queue = b.queue[:0]
		return batch
	})
}

// driveCLC: one unforced cluster checkpoint, timer to last commit.
func driveCLC(d time.Duration, b *bed) float64 {
	leader := b.node(0, 0)
	return perOp(d, func() int {
		leader.OnTimer(core.TimerCLC)
		b.pump()
		return 1
	}) / 1e3
}

func driveCLCDeep(d time.Duration, out map[string]float64) {
	out["core.us_per_clc_n100"] = driveCLC(d, newBed([]int{100, 1}, 1, false))
}

func driveCLCWide(d time.Duration, out map[string]float64) {
	out["core.us_per_clc_w1024"] = driveCLC(d, newBed(sizesOf(1024, 2), 1, true))
}

// drivePiggybackWide: one transitive inter-cluster message (send, pipe
// decode, receive-side examination, ack) in a 1024-wide federation,
// dependency already covered. A sender scans its log for every ack, so
// each batch starts on a fresh pair of nodes; building them and the
// first message (which forces the receiver's checkpoint) are not timed.
func drivePiggybackWide(d time.Duration, out map[string]float64) {
	const batch = 64
	var busy time.Duration
	ops := 0
	for t0 := time.Now(); time.Since(t0) < d || ops == 0; {
		b := newBed(sizesOf(1024, 1), 2, true)
		sender, dst := b.node(1, 0), topology.NodeID{Cluster: 0, Index: 0}
		send := func(seq uint64) {
			sender.Send(dst, core.AppPayload{ID: core.LogicalID{Src: sender.ID(), Seq: seq}, Size: 4096})
			b.pump()
		}
		send(1)
		t1 := time.Now()
		for k := 0; k < batch; k++ {
			send(uint64(k + 2))
		}
		busy += time.Since(t1)
		ops += batch
	}
	out["core.ns_per_piggyback_w1024"] = float64(busy.Nanoseconds()) / float64(ops)
}

// ---- app ----

func driveOpenLoopCompile(d time.Duration, out map[string]float64) {
	fed := uniformClusters(nil, openLoopClusters, openLoopNodes)
	out["app.openloop_compile_s"] = perOp(d/4, func() int {
		wl := openLoopWorkload(openLoopUsers)
		if err := wl.Validate(fed); err != nil {
			panic(err) // the constants above are valid
		}
		wl.Freeze()
		return 1
	}) / 1e9
}

// driveArrivals: draw one node's open-loop schedule, NextSend and
// TakeSend per request, as the federation's send loop does.
func driveArrivals(d time.Duration, out map[string]float64) {
	wl, fed := openLoopWorkload(openLoopUsers), uniformClusters(nil, openLoopClusters, openLoopNodes)
	id := topology.NodeID{Cluster: 0, Index: 0}
	stream := 0
	out["app.ns_per_arrival"] = perOp(d, func() int {
		stream++
		a := app.NewNodeApp(id, wl, fed, sim.NewRNG(1).StreamN("app", stream))
		n := 0
		for {
			if _, ok := a.NextSend(); !ok {
				return n
			}
			a.TakeSend()
			n++
		}
	})
}

// driveSnapshots: what a node's application does per committed
// checkpoint on openloop_heavy — about two deliveries, then Snapshot
// and the Stabilized mark over them.
func driveSnapshots(d time.Duration, out map[string]float64) {
	wl, fed := openLoopWorkload(openLoopUsers), uniformClusters(nil, openLoopClusters, openLoopNodes)
	id, from := topology.NodeID{Cluster: 0, Index: 0}, topology.NodeID{Cluster: 1, Index: 0}
	out["app.ns_per_snapshot"] = perOp(d, func() int {
		const batch = 4096
		a := app.NewNodeApp(id, wl, fed, sim.NewRNG(1))
		for k := 0; k < batch; k++ {
			for j := 0; j < 2; j++ {
				a.Deliver(from, core.AppPayload{ID: core.LogicalID{Src: from, Seq: uint64(2*k + j + 1)}, Size: 4096})
			}
			state, _ := a.Snapshot()
			a.Stabilized(state)
		}
		return batch
	})
}

// ---- baseline: the same scenario under each protocol ----

// driveProtocols runs the full-scale 4c/uniform/crash/wan scenario once
// under HC3I and each baseline protocol.
func driveProtocols(seed uint64, out map[string]float64) error {
	sc := experiments.Scenario{Topology: "4c", Workload: "uniform", Failure: "crash", Network: "wan"}
	for name, proto := range map[string]string{
		"core.hc3i_ms":        "hc3i",
		"baseline.global_ms":  "global-coordinated",
		"baseline.hier_ms":    "hier-coordinated",
		"baseline.pesslog_ms": "pessimistic-log",
	} {
		t0 := time.Now()
		if _, err := experiments.RunScenario(experiments.Config{Seed: seed}, sc, proto); err != nil {
			return fmt.Errorf("driver %s: %w", name, err)
		}
		out[name] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return nil
}

// ---- runtime and soak ----

// driveTransport sends 256-byte application messages from one node to
// another over t, at most liveWindow in flight, and returns messages
// per second and the send-to-deliver latencies in microseconds.
func driveTransport(d time.Duration, t hcrt.Transport) (rate float64, lat []float64, err error) {
	defer t.Close()
	a, b := topology.NodeID{Cluster: 0, Index: 0}, topology.NodeID{Cluster: 1, Index: 0}
	got := make(chan time.Duration, liveWindow)
	if err := t.Register(a, func(hcrt.Envelope) {}); err != nil {
		return 0, nil, err
	}
	err = t.Register(b, func(env hcrt.Envelope) {
		// The logical sequence number carries the send instant.
		got <- time.Duration(time.Now().UnixNano() - int64(env.Msg.(core.AppMsg).Payload.ID.Seq))
	})
	if err != nil {
		return 0, nil, err
	}
	sent, done := 0, 0
	t0 := time.Now()
	for time.Since(t0) < d || done < sent {
		if sent-done < liveWindow && time.Since(t0) < d {
			sent++
			msg := core.AppMsg{MsgID: uint64(sent), SrcCluster: 0,
				Payload: core.AppPayload{ID: core.LogicalID{Src: a, Seq: uint64(time.Now().UnixNano())}, Size: 256}}
			if err := t.Send(hcrt.Envelope{Src: a, Dst: b, Msg: msg}); err != nil {
				return 0, nil, err
			}
			continue
		}
		select {
		case l := <-got:
			lat = append(lat, float64(l.Nanoseconds())/1e3)
			done++
		case <-time.After(5 * time.Second):
			return 0, nil, fmt.Errorf("transport driver: %d of %d messages never arrived", sent-done, sent)
		}
	}
	return float64(done) / time.Since(t0).Seconds(), lat, nil
}

func driveTransports(d time.Duration, _ string, out map[string]float64) error {
	rate, lat, err := driveTransport(d, hcrt.NewTCPTransport())
	if err != nil {
		return err
	}
	sort.Float64s(lat)
	out["runtime.tcp_msgs_per_s"] = rate
	out["runtime.tcp_p50_us"] = lat[len(lat)/2]
	out["runtime.tcp_p99_us"] = lat[len(lat)*99/100]
	if rate, _, err = driveTransport(d, hcrt.NewChanTransport()); err != nil {
		return err
	}
	out["runtime.chan_msgs_per_s"] = rate
	return nil
}

// driveJournal appends delivery events, the journal's bulk, through
// the runtime's Journal (JSON encoding, monotone stamps, one write per
// event).
func driveJournal(d time.Duration, dir string, out map[string]float64) error {
	path := filepath.Join(dir, "driver_journal.jsonl")
	j, err := hcrt.OpenJournal(path)
	if err != nil {
		return err
	}
	n := 0
	ns := perOp(d, func() int {
		const batch = 256
		for k := 0; k < batch; k++ {
			n++
			j.Event(oracle.Event{Node: "c1n0", Kind: "deliver", Src: "c0n1",
				SrcEpoch: 1, SendSN: uint64(n / 100), RecvEpoch: 1, RecvSN: uint64(n / 90)})
		}
		return batch
	})
	if err := j.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["runtime.journal_events_per_s"] = 1e9 / ns
	out["runtime.journal_bytes_per_event"] = float64(st.Size()) / float64(n)
	return os.Remove(path)
}

// driveLineJournal appends the same size of line straight to soak's
// LineJournal: the journal's cost without JSON and stamping.
func driveLineJournal(d time.Duration, dir string, out map[string]float64) error {
	path := filepath.Join(dir, "driver_lines.jsonl")
	lj, err := soak.OpenLineJournal(path)
	if err != nil {
		return err
	}
	line := make([]byte, 120)
	for i := range line {
		line[i] = 'x'
	}
	var werr error
	ns := perOp(d, func() int {
		const batch = 256
		for k := 0; k < batch && werr == nil; k++ {
			werr = lj.AppendLine(line)
		}
		return batch
	})
	if err := lj.Close(); werr == nil {
		werr = err
	}
	if werr != nil {
		return werr
	}
	out["soak.linejournal_appends_per_s"] = 1e9 / ns
	return os.Remove(path)
}

// driveRecover: crash a node of an idle live federation, recover it,
// and time Recover to the cluster's next commit; the median of that
// many cycles.
func driveRecover(cycles int, out map[string]float64) error {
	live, err := hcrt.Start(hcrt.Config{
		Clusters:   []int{2, 2},
		CLCPeriods: []time.Duration{liveCLC, liveCLC},
		Transport:  hcrt.NewTCPTransport(),
	})
	if err != nil {
		return err
	}
	defer live.Stop()
	victim := topology.NodeID{Cluster: 0, Index: 1}
	var ms []float64
	for cycle := 0; cycle < cycles; cycle++ {
		time.Sleep(20 * time.Millisecond)
		live.Crash(victim)
		time.Sleep(20 * time.Millisecond)
		before := live.Stat("clc.committed.c0")
		t0 := time.Now()
		if err := live.Recover(victim); err != nil {
			return err
		}
		for live.Stat("clc.committed.c0") == before {
			if time.Since(t0) > 5*time.Second {
				return fmt.Errorf("recover driver: cluster 0 did not commit within 5 s of Recover")
			}
			time.Sleep(200 * time.Microsecond)
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(ms)
	out["runtime.recover_ms"] = median(ms)
	return nil
}
