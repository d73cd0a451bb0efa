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
	for _, id := range f.opts.Topology.AllNodes() {
		ord := f.ix.Ord(id)
		f.nodes[ord].Start()
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
	for _, id := range topo.AllNodes() {
		if hn, ok := f.Node(id).(*core.Node); ok && !hn.Failed() {
			if hn.LostState() {
				return fmt.Errorf("federation: node %v never recovered its state", id)
			}
		}
	}
	// SN and DDV agreement inside each cluster (HC3I only).
	for c := 0; c < topo.NumClusters(); c++ {
		var first *core.Node
		for _, id := range topo.Nodes(topology.ClusterID(c)) {
			hn, ok := f.Node(id).(*core.Node)
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
	// destination at least once.
	if f.opts.Workload.Deterministic {
		for _, id := range topo.AllNodes() {
			a := f.App(id)
			for i := 0; i < a.SentCount(); i++ {
				dst := a.DestinationOf(i)
				lid := core.LogicalID{Src: id, Seq: uint64(i + 1)}
				if f.App(dst).DeliveredTimes(lid) == 0 {
					return fmt.Errorf("federation: message %v to %v lost", lid, dst)
				}
			}
		}
	}
	return nil
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
	var kb []byte
	key := func(base string, c int) string {
		kb = append(append(kb[:0], base...), ".c"...)
		kb = strconv.AppendInt(kb, int64(c), 10)
		return string(kb)
	}
	for c := 0; c < n; c++ {
		cc := key("clc.committed", c)
		cr := ClusterResult{
			Cluster:   topology.ClusterID(c),
			Forced:    st.CounterValue(cc + ".forced"),
			Unforced:  st.CounterValue(cc + ".unforced"),
			Committed: st.CounterValue(cc),
			Rollbacks: st.CounterValue(key("rollback.count", c)),
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
	for _, id := range topo.AllNodes() {
		pn := f.Node(id)
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
	for _, id := range f.opts.Topology.AllNodes() {
		a := f.App(id)
		stable := a.StableCount()
		seen := make(map[core.LogicalID]struct{}, stable)
		for j := 0; j < stable; j++ {
			lid := a.JournalEntry(j)
			if _, dup := seen[lid]; dup {
				// Duplicate delivery (replayed send): the first journal
				// occurrence stabilized no later, so it is the sample.
				continue
			}
			seen[lid] = struct{}{}
			src := f.App(lid.Src)
			// Open-loop workloads are deterministic, so Seq is the
			// 1-based schedule index with no epoch salt.
			arrival := src.ArrivalTime(int(lid.Seq - 1))
			h.Observe(a.StableTime(j).Sub(arrival).Seconds())
		}
	}
}

// gcRounds reassembles per-round before/after pairs from the
// gc.before/gc.after series of each cluster leader.
func (f *Fed) gcRounds(n int) []GCRound {
	var rounds []GCRound
	ref := f.stats.Series("gc.before.c0")
	for k := 0; k < ref.Len(); k++ {
		r := GCRound{At: ref.Times[k], Before: make([]int, n), After: make([]int, n)}
		complete := true
		for c := 0; c < n; c++ {
			b := f.stats.Series(fmt.Sprintf("gc.before.c%d", c))
			a := f.stats.Series(fmt.Sprintf("gc.after.c%d", c))
			if k >= b.Len() || k >= a.Len() {
				complete = false
				break
			}
			r.Before[c] = int(b.Values[k])
			r.After[c] = int(a.Values[k])
		}
		if complete {
			rounds = append(rounds, r)
		}
	}
	return rounds
}
