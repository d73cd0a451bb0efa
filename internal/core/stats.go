package core

import (
	"strconv"
	"strings"

	"repro/internal/topology"
)

// StatForm is how an event feeds its kind's statistic. The protocol
// reports every statistic as an Event, and the env's sink counts it.
type StatForm uint8

const (
	NoStat    StatForm = iota // the event counts nothing
	StatCount                 // it adds one to a counter
	StatAdd                   // it adds its Value (zero too) to a counter
	StatPoint                 // it records its Value as a series point
)

// statDefs is the protocol's one table of statistic names. A cluster
// statistic is named "<name>.c<N>" after the observing node's cluster.
// Two kinds feed one statistic where one happening has two sites: a
// message held by the §3.2 rule or to force a CLC first, and a GC round
// abandoned on a failed analysis or on a mid-round rollback.
var statDefs = [NumEventKinds]struct {
	name    string
	form    StatForm
	cluster bool
}{
	EventCLCRequest:       {"clc.requested", StatCount, true},
	EventCLCCommitted:     {"clc.committed", StatCount, true},
	EventHoldMsg:          {"cic.held", StatCount, false},
	EventResend:           {"log.resent", StatCount, false},
	EventGCStart:          {"gc.rounds_started", StatCount, false},
	EventGCFailed:         {"gc.rounds_aborted", StatCount, false},
	EventRollback:         {"rollback.count", StatCount, true},
	EventReplicaMiss:      {"storage.replica_miss_queries", StatCount, false},
	EventRollbackDone:     {"rollback.duration_seconds", StatPoint, true},
	EventNoRollbackTarget: {"invariant.rollback_target_missing", StatCount, false},
	EventDeliver:          {"app.delivered.inter", StatCount, false},

	EventForceRequested:    {"cic.force_requested", StatCount, false},
	EventSendFrozen:        {"app.sends_frozen", StatCount, false},
	EventLogAppended:       {"log.appended", StatCount, false},
	EventDropStale:         {"app.dropped_stale", StatCount, false},
	EventRefuseWidth:       {"app.refused_width", StatCount, false},
	EventAcceptPriorEpoch:  {"app.accepted_prior_epoch", StatCount, false},
	EventDeferEpoch:        {"app.deferred_epoch", StatCount, false},
	EventDeferFrozen:       {"app.deferred_frozen", StatCount, false},
	EventLateLogged:        {"app.late_logged", StatCount, false},
	EventDeliverIntra:      {"app.delivered.intra", StatCount, false},
	EventHoldForced:        {"cic.held", StatCount, false},
	EventPostRestoreAnchor: {"cic.post_restore_anchor", StatCount, false},
	EventDropStaleHeld:     {"app.dropped_stale_held", StatCount, false},
	EventDeliverResent:     {"app.delivered.resent", StatCount, false},
	EventAckOrphan:         {"log.ack_orphan", StatCount, false},
	EventGCDemand:          {"gc.demands", StatCount, false},
	EventGCDemandCoalesced: {"gc.demands_coalesced", StatCount, false},
	EventGCDemandRound:     {"gc.demand_rounds", StatCount, false},
	EventGCUnsupported:     {"gc.unsupported_mode", StatCount, false},
	EventGCSkipBusy:        {"gc.skipped_busy", StatCount, false},
	EventGCMessage:         {"gc.messages", StatCount, false},
	EventGCAbort:           {"gc.rounds_aborted", StatCount, false},
	EventGCComplete:        {"gc.rounds_completed", StatCount, false},
	EventGCCLCsRemoved:     {"gc.clcs_removed", StatAdd, false},
	EventGCLogRemoved:      {"gc.log_entries_removed", StatAdd, false},
	EventFailureDetected:   {"failure.detected", StatCount, false},
	EventAlertSent:         {"rollback.alerts_sent", StatCount, false},
	EventRedeliverLate:     {"app.redelivered_late", StatCount, false},
	EventRecoverState:      {"storage.recovered_states", StatCount, false},
	EventRecoverLogEntry:   {"log.recovered_entries", StatCount, false},
	EventRereplicate:       {"storage.rereplicated", StatCount, false},
	EventMirrorRefuseWidth: {"log.mirror_refused_width", StatCount, false},
	EventRefuseControl:     {"ctl.refused_width", StatCount, false},
	EventRefuseRollback:    {"ctl.refused_rollback", StatCount, false},
	EventResendRecovered:   {"log.resent_after_recovery", StatCount, false},
	EventCascadeSuppressed: {"rollback.cascade_suppressed", StatCount, false},
	EventCascade:           {"rollback.cascaded", StatCount, false},
	EventRollbackRestart:   {"rollback.restarted", StatCount, true},
	EventCLCAbort:          {"clc.aborted", StatCount, true},
	EventCLCFreeze:         {"clc.freeze_seconds", StatPoint, true},
	EventStorageBytes:      {"storage.bytes", StatPoint, true},
	EventCLCStored:         {"clc.stored", StatPoint, true},
	EventLogSize:           {"log.size", StatPoint, true},
	EventGCBefore:          {"gc.before", StatPoint, true},
	EventGCAfter:           {"gc.after", StatPoint, true},
}

// NumClusterStats is the number of a cluster's statistics: its cluster
// kinds', then the forced and unforced forms of the commit count.
const NumClusterStats = 14

// CommitForced and CommitUnforced index the commit count's two forms
// among a cluster's statistics.
const (
	CommitForced   = NumClusterStats - 2
	CommitUnforced = NumClusterStats - 1
)

// clusterSlot indexes each cluster kind's statistic among a cluster's
// (-1 for the other kinds), and clusterName gives each one's name as a
// base and a tail: the cluster kinds' in kind order, then the commit
// count's two forms.
var clusterSlot, clusterName = func() (slot [NumEventKinds]int8, name [NumClusterStats][2]string) {
	n := int8(0)
	for k := range statDefs {
		slot[k] = -1
		if statDefs[k].cluster {
			slot[k], name[n][0] = n, statDefs[k].name
			n++
		}
	}
	if n != CommitForced {
		panic("core: NumClusterStats does not match statDefs")
	}
	committed := statDefs[EventCLCCommitted].name
	name[CommitForced] = [2]string{committed, ".forced"}
	name[CommitUnforced] = [2]string{committed, ".unforced"}
	return slot, name
}()

// StatForm returns how an event of kind k feeds its statistic when node
// at observes it. Every node installs a commit; its leader alone counts
// it. (These helpers take the kind: a method on the large Event value
// would copy it per event.)
func (k EventKind) StatForm(at topology.NodeID) StatForm {
	if k == EventCLCCommitted && at.Index != 0 {
		return NoStat
	}
	return statDefs[k].form
}

// Delta returns what a counter event of form f with Value v adds.
func (f StatForm) Delta(v float64) uint64 {
	if f == StatAdd {
		return uint64(v)
	}
	return 1
}

// AlsoStat returns the cluster statistic a counted event of kind k adds
// one to besides its kind's: a commit's CommitForced or CommitUnforced.
func (k EventKind) AlsoStat(forced bool) (int, bool) {
	if k != EventCLCCommitted {
		return 0, false
	}
	if forced {
		return CommitForced, true
	}
	return CommitUnforced, true
}

// ClusterStat returns the index of kind k's statistic among a
// cluster's, or false when it is a federation-wide one or none.
func (k EventKind) ClusterStat() (int, bool) {
	return int(clusterSlot[k]), clusterSlot[k] >= 0
}

// StatName returns the name of kind k's statistic, without a cluster
// suffix ("" when k counts nothing).
func (k EventKind) StatName() string { return statDefs[k].name }

// StatNames is the names of one cluster's statistics: substrings of one
// string, so rendering them costs one allocation.
type StatNames struct {
	all  string
	ends [NumClusterStats]uint16
}

// NewStatNames renders the names of cluster c's statistics.
func NewStatNames(c topology.ClusterID) StatNames {
	var num [24]byte
	suffix := strconv.AppendInt(append(num[:0], ".c"...), int64(c), 10)
	size := 0
	for _, nm := range clusterName {
		size += len(nm[0]) + len(suffix) + len(nm[1])
	}
	var b strings.Builder
	b.Grow(size)
	var s StatNames
	for i, nm := range clusterName {
		b.WriteString(nm[0])
		b.Write(suffix)
		b.WriteString(nm[1])
		s.ends[i] = uint16(b.Len())
	}
	s.all = b.String()
	return s
}

// Cluster returns the name of the cluster's statistic i.
func (s *StatNames) Cluster(i int) string {
	start := uint16(0)
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.all[start:s.ends[i]]
}

// Of returns the name of kind k's statistic, in this cluster's form
// for a cluster statistic.
func (s *StatNames) Of(k EventKind) string {
	if i, ok := k.ClusterStat(); ok {
		return s.Cluster(i)
	}
	return k.StatName()
}
