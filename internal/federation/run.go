package federation

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ClusterResult aggregates the per-cluster quantities the paper's
// figures and tables report.
type ClusterResult struct {
	Cluster   topology.ClusterID
	Forced    uint64 // committed forced CLCs
	Unforced  uint64 // committed unforced CLCs
	Committed uint64 // total committed CLCs
	Stored    int    // CLCs stored at the end of the run (leader view)
	Rollbacks uint64
}

// Total returns forced + unforced committed CLCs ("number of CLCs realy
// committed", Figures 6-9).
func (c ClusterResult) Total() uint64 { return c.Committed }

// GCRound is one garbage collection's before/after pair per cluster
// (the rows of Tables 2 and 3).
type GCRound struct {
	At     sim.Time
	Before []int // stored CLCs just before, per cluster
	After  []int // stored CLCs just after, per cluster
}

// Result is everything a finished run reports.
type Result struct {
	Stats    *sim.Stats
	Clusters []ClusterResult
	// AppMsgs[i][j] is the number of application messages sent from
	// cluster i to cluster j (Table 1).
	AppMsgs [][]uint64
	// GCRounds lists each garbage collection's effect (Tables 2, 3).
	GCRounds []GCRound
	// MaxLoggedMessages is the high-water mark of any node's volatile
	// message log (§5.4 reports it for the sample).
	MaxLoggedMessages int
	EndTime           sim.Time
	Events            uint64
	Failures          uint64
}

// Run executes the simulation: the application generates traffic until
// its total time elapses (re-executing lost work after rollbacks), then
// the run drains to quiescence. It verifies the protocol's global
// invariants before returning.
func (f *Fed) Run() (*Result, error) {
	// The wall-clock watchdog: a wedged simulation (however unlikely)
	// must become an error its sweep harness can record, not a stalled
	// worker. Interrupt is sticky, so a timer firing between horizon
	// slices still kills the run.
	if d := f.opts.Watchdog; d > 0 {
		defer armWatchdog(d, f.engine.Interrupt)()
	}
	for ord, n := range f.nodes {
		n.Start()
		f.scheduleNextSend(ord)
	}

	// Run in slices until every application finished its schedule (a
	// rollback can push application progress past the nominal end).
	horizon := sim.Time(0).Add(f.opts.Workload.TotalTime)
	const slice = 10 * sim.Minute
	for {
		if _, err := f.engine.Run(horizon); err != nil {
			if oerr := f.oracleErr(); oerr != nil {
				return nil, oerr
			}
			return nil, watchdogErr(err, f.opts.Watchdog)
		}
		// A violation stops the engine mid-slice (fail fast): report it
		// instead of spinning on an aborted simulation.
		if oerr := f.oracleErr(); oerr != nil {
			return nil, oerr
		}
		if f.appsDone() {
			break
		}
		horizon = horizon.Add(slice)
	}
	// Settle in-flight protocol activity (alerts, 2PCs, acks): two more
	// slices with no application traffic left.
	if _, err := f.engine.Run(horizon.Add(2 * slice)); err != nil {
		return nil, watchdogErr(err, f.opts.Watchdog)
	}

	if f.oracle != nil {
		f.oracle.Finish()
	}
	if err := f.oracleErr(); err != nil {
		return nil, err
	}
	if err := f.checkInvariants(); err != nil {
		return nil, err
	}
	return f.collect(), nil
}

// armWatchdog starts a wall-clock watchdog that calls kill after d and
// returns the disarm function. Disarming is synchronous — it waits out
// an in-flight kill — so a pooled engine can never be interrupted by a
// stale timer after its run returned and the engine went back to the
// arena (Engine.Reset clears the interrupt flag, but only a kill that
// happens-before the reset is guaranteed harmless).
func armWatchdog(d time.Duration, kill func()) (disarm func()) {
	tm := time.NewTimer(d)
	cancel := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		select {
		case <-tm.C:
			kill()
		case <-cancel:
		}
	}()
	return func() {
		close(cancel)
		<-finished
		tm.Stop()
	}
}

// watchdogErr dresses an engine interrupt as the watchdog diagnostic
// (sim.ErrInterrupted stays in the chain for errors.Is); other engine
// errors pass through untouched.
func watchdogErr(err error, d time.Duration) error {
	if err == nil || !errors.Is(err, sim.ErrInterrupted) {
		return err
	}
	return fmt.Errorf("federation: watchdog: run exceeded %v wall clock: %w", d, err)
}

// oracleErr folds the oracle's violations into one run error (nil when
// no oracle is attached or the run is clean).
func (f *Fed) oracleErr() error {
	if f.oracle == nil {
		return nil
	}
	err := f.oracle.Err()
	if err == nil {
		return nil
	}
	if n := len(f.oracle.Violations()); n > 1 {
		return fmt.Errorf("%w (+%d more violations)", err, n-1)
	}
	return err
}

// appsDone reports whether every application finished its schedule.
func (f *Fed) appsDone() bool {
	for ord, a := range f.apps {
		if f.nodes[ord].Failed() {
			return false
		}
		if _, ok := a.NextSend(); ok {
			return false
		}
	}
	return true
}

// checkInvariants verifies the end-of-run safety properties of
// DESIGN.md §5 that are visible from the harness.
func (f *Fed) checkInvariants() error {
	st, topo := f.stats, f.opts.Topology
	if n := st.CounterValue("invariant.rollback_target_missing"); n != 0 {
		return fmt.Errorf("federation: %d rollback targets missing (GC unsafe)", n)
	}
	if n := st.CounterValue("failures.unrecoverable"); n != 0 {
		return fmt.Errorf("federation: %d failures had no surviving coordinator", n)
	}
	// A node that never finished recovering would leave its cluster's
	// rollback incomplete: surface it as a frozen/lost node.
	for _, n := range f.nodes {
		if hn, ok := n.(*core.Node); ok && !hn.Failed() && hn.LostState() {
			return fmt.Errorf("federation: node %v never recovered its state", hn.ID())
		}
	}
	// SN and DDV agreement inside each cluster (HC3I only).
	for c, cl := range topo.Clusters {
		var first *core.Node
		for i := 0; i < cl.Nodes; i++ {
			hn, ok := f.Node(topology.NodeID{Cluster: topology.ClusterID(c), Index: i}).(*core.Node)
			if !ok {
				break
			}
			if hn.Failed() {
				continue
			}
			if first == nil {
				first = hn
				continue
			}
			if hn.SN() != first.SN() {
				return fmt.Errorf("federation: cluster %d SN disagreement: %v=%d %v=%d",
					c, first.ID(), first.SN(), hn.ID(), hn.SN())
			}
			if !hn.SameDDV(first) {
				return fmt.Errorf("federation: cluster %d DDV disagreement: %v vs %v",
					c, first.DDVSnapshot(), hn.DDVSnapshot())
			}
		}
	}
	// Message completeness under deterministic replay: every send a
	// node performed (in its final history) was delivered at its
	// destination at least once. One pass over the journals marks the
	// sends each destination holds; a second finds any unmarked one.
	if f.opts.Workload.Deterministic {
		sends := f.sendSet()
		for _, a := range f.apps {
			id := a.ID()
			for j := 0; j < a.JournalLen(); j++ {
				lid := a.JournalEntry(j)
				src := f.ix.Ord(lid.Src)
				if k := lid.Seq - 1; k < uint64(f.apps[src].SentCount()) && f.apps[src].DestinationOf(int(k)) == id {
					sends.mark(src, k)
				}
			}
		}
		for src, a := range f.apps {
			if k, ok := sends.firstUnmarked(src); ok {
				lid := core.LogicalID{Src: a.ID(), Seq: uint64(k + 1)}
				return fmt.Errorf("federation: message %v to %v lost", lid, a.DestinationOf(k))
			}
		}
	}
	return nil
}

// sendSet is a flat bitset over every node's sends in its current
// history, indexed by (sender ordinal, Seq-1): under deterministic
// replay a node's sends are numbered 1..SentCount with no gaps, so the
// index is dense. The end-of-run passes that need to know which sends
// a journal holds share it instead of hashing logical IDs.
type sendSet struct {
	start []int // node ord's sends are bits [start[ord], start[ord+1])
	bits  []uint64
}

// sendSet returns the run's send bitset, laid out for the nodes'
// current send counts and cleared. The backing slices are allocated by
// the first call and reused by later ones.
func (f *Fed) sendSet() *sendSet {
	s := &f.sends
	if s.start == nil {
		s.start = make([]int, len(f.apps)+1)
	}
	total := 0
	for ord, a := range f.apps {
		s.start[ord] = total
		total += a.SentCount()
	}
	s.start[len(f.apps)] = total
	words := (total + 63) / 64
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	} else {
		s.bits = s.bits[:words]
		clear(s.bits)
	}
	return s
}

// mark sets the bit of node ord's send k (0-based) and reports whether
// it was set already. A k past the node's send count marks nothing and
// reports false.
func (s *sendSet) mark(ord int, k uint64) (seen bool) {
	if k >= uint64(s.start[ord+1]-s.start[ord]) {
		return false
	}
	b := s.start[ord] + int(k)
	w, m := b/64, uint64(1)<<(b%64)
	seen = s.bits[w]&m != 0
	s.bits[w] |= m
	return seen
}

// firstUnmarked returns node ord's lowest unmarked send, if any.
func (s *sendSet) firstUnmarked(ord int) (k int, ok bool) {
	for b := s.start[ord]; b < s.start[ord+1]; b++ {
		if s.bits[b/64]&(1<<(b%64)) == 0 {
			return b - s.start[ord], true
		}
	}
	return 0, false
}

// collect builds the Result from the statistics registry.
func (f *Fed) collect() *Result {
	st, topo := f.stats, f.opts.Topology
	n := topo.NumClusters()
	res := &Result{
		Stats:    st,
		EndTime:  f.engine.Now(),
		Events:   f.engine.Executed,
		Failures: st.CounterValue("failures.injected"),
	}
	var kb keyBuf
	for c := 0; c < n; c++ {
		cc := kb.key("clc.committed", c)
		cr := ClusterResult{
			Cluster:   topology.ClusterID(c),
			Forced:    st.CounterValue(cc + ".forced"),
			Unforced:  st.CounterValue(cc + ".unforced"),
			Committed: st.CounterValue(cc),
			Rollbacks: st.CounterValue(kb.key("rollback.count", c)),
			Stored:    f.Node(topology.NodeID{Cluster: topology.ClusterID(c)}).StoredCount(),
		}
		res.Clusters = append(res.Clusters, cr)
	}
	// The per-pair app matrix is sparse relative to n² (pairs register
	// lazily on first traffic), so walk the registered counters once and
	// parse the pair out of the name instead of probing all n² keys.
	res.AppMsgs = make([][]uint64, n)
	for i := 0; i < n; i++ {
		res.AppMsgs[i] = make([]uint64, n)
	}
	st.ForEachCounter(func(name string, val uint64) {
		rest, ok := strings.CutPrefix(name, "net.sent.app.c")
		if !ok {
			return
		}
		dot := strings.IndexByte(rest, '.')
		if dot < 0 || dot+1 >= len(rest) || rest[dot+1] != 'c' {
			return
		}
		i, err1 := strconv.Atoi(rest[:dot])
		j, err2 := strconv.Atoi(rest[dot+2:])
		if err1 != nil || err2 != nil || i < 0 || i >= n || j < 0 || j >= n {
			return
		}
		res.AppMsgs[i][j] = val
	})
	res.GCRounds = f.gcRounds(n)
	f.collectStableLatency()
	// Every protocol with a volatile message log reports its running
	// high-water mark; core.Node and all three baselines track it at
	// their log-append sites, so log-truncating protocols (the
	// pessimistic-log baseline trims at every snapshot) report their
	// true mid-run peak, not the deflated end-of-run length. Protocols
	// without a peak tracker fall back to the end-of-run sample.
	for _, pn := range f.nodes {
		if ln, ok := pn.(interface{ LogPeak() int }); ok {
			if l := ln.LogPeak(); l > res.MaxLoggedMessages {
				res.MaxLoggedMessages = l
			}
		} else if ln, ok := pn.(interface{ LogLen() int }); ok {
			if l := ln.LogLen(); l > res.MaxLoggedMessages {
				res.MaxLoggedMessages = l
			}
		}
	}
	return res
}

// keyBuf renders per-cluster stat names through one reused buffer.
type keyBuf []byte

// key returns the stat name base + ".c" + c.
func (kb *keyBuf) key(base string, c int) string {
	*kb = strconv.AppendInt(append(append((*kb)[:0], base...), ".c"...), int64(c), 10)
	return string(*kb)
}

// StableLatencyMetric names the histogram of user-perceived
// stable-delivery latencies (seconds) that open-loop runs record.
const StableLatencyMetric = "app.stable_latency_seconds"

// collectStableLatency fills the app.stable_latency_seconds histogram
// for open-loop workloads: one sample per distinct request that
// reached stable delivery — the span from the request's scheduled
// arrival (fixed by the user, on the original time axis) to the first
// checkpoint commit that covered its delivery and was never rolled
// back behind. The journal truncation in NodeApp.Restore guarantees
// the surviving marks are exactly those commits; requests still
// uncovered at the end of the run are right-censored (not observed).
// Collection runs on the final application states, in topology order,
// so batched, unbatched and oracle-attached runs fill byte-identical
// histograms.
func (f *Fed) collectStableLatency() {
	if f.opts.Workload.OpenLoop == nil {
		return
	}
	h := f.stats.Histogram(StableLatencyMetric)
	sends := f.sendSet()
	for _, a := range f.apps {
		stable := a.StableCount()
		for j := 0; j < stable; j++ {
			lid := a.JournalEntry(j)
			// Open-loop workloads are deterministic, so Seq is the
			// 1-based schedule index with no epoch salt.
			src := f.ix.Ord(lid.Src)
			if sends.mark(src, lid.Seq-1) {
				// Duplicate delivery (replayed send): the first journal
				// occurrence stabilized no later, so it is the sample.
				continue
			}
			arrival := f.apps[src].ArrivalTime(int(lid.Seq - 1))
			h.Observe(a.StableTime(j).Sub(arrival).Seconds())
		}
	}
}

// gcRounds reassembles per-round before/after pairs from the
// gc.before/gc.after series of each cluster leader. A round is complete
// when every cluster recorded it, so the complete rounds are the first
// min-over-series-lengths ones. Each cluster's series are looked up
// once, and only while some round can still be complete — the lookup
// registers a series, and the registry's contents are part of a run's
// reported statistics.
func (f *Fed) gcRounds(n int) []GCRound {
	ref := f.stats.Series("gc.before.c0")
	complete := ref.Len()
	before := make([]*sim.Series, 0, n)
	after := make([]*sim.Series, 0, n)
	var kb keyBuf
	for c := 0; c < n && complete > 0; c++ {
		b, a := f.stats.Series(kb.key("gc.before", c)), f.stats.Series(kb.key("gc.after", c))
		before, after = append(before, b), append(after, a)
		complete = min(complete, b.Len(), a.Len())
	}
	if complete == 0 {
		return nil
	}
	rounds := make([]GCRound, complete)
	vals := make([]int, 2*n*complete)
	for k := range rounds {
		r := &rounds[k]
		r.At, _ = ref.Point(k)
		r.Before = vals[2*n*k : 2*n*k+n : 2*n*k+n]
		r.After = vals[2*n*k+n : 2*n*(k+1) : 2*n*(k+1)]
		for c := 0; c < n; c++ {
			_, b := before[c].Point(k)
			_, a := after[c].Point(k)
			r.Before[c], r.After[c] = int(b), int(a)
		}
	}
	return rounds
}
