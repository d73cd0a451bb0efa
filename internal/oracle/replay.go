// Offline oracle replay: the six invariant families of this package,
// re-asserted after the fact on the merged per-node journals of a real
// multi-process run (cmd/hc3id). Each daemon journals its protocol
// events (node starts, commits, restores, deliveries, GC drops) as
// JSONL with same-machine wall-clock timestamps, each mapped by Record;
// Replay merges the files in timestamp order, maps every record back
// with Event.Observation and drives a regular Oracle with the result.
//
// Why a timestamp merge is a valid event order here: every journal
// line is written synchronously inside the protocol event that
// produced it, before the node sends any message that depends on it.
// Cluster-wide, all applications of commit k really do precede all
// applications of commit k+1 (the 2PC needs every node's ack to k
// before the coordinator starts k+1), rollbacks are barriered by
// RollbackResume, and a delivery follows the sender-side events it
// depends on by at least a network round trip. On one machine — the
// harness and CI smoke setup — CLOCK_REALTIME skew is far below those
// gaps; across machines the merge is only as good as the clock sync,
// which the report states rather than hides. The merge sort is stable,
// so each journal's own order (which is exact) is never reshuffled.
package oracle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Event is one line of a live-run journal. Kind selects which fields
// are meaningful; everything else stays at its zero value and is
// elided from the JSON.
type Event struct {
	// T is the event's CLOCK_REALTIME timestamp in nanoseconds,
	// strictly increasing within one journal file.
	T int64 `json:"t"`
	// Node is the journaling node in cXnY form.
	Node string `json:"node"`
	// Kind is one of start, commit, rollback, deliver, gcdrop (the
	// protocol events Record maps), send, hello, suspect, drop, stop
	// (the live runtime's own records).
	Kind string `json:"kind"`

	// start: the federation shape and protocol mode; recovering marks
	// a crash-recovery incarnation.
	Clusters   []int  `json:"clusters,omitempty"`
	Mode       string `json:"mode,omitempty"`
	Recovering bool   `json:"recovering,omitempty"`

	// commit (seq, epoch, ddv, forced) and rollback (seq = restored
	// SN, epoch = new epoch, ddv = restored vector).
	Seq    uint64   `json:"seq,omitempty"`
	Epoch  uint64   `json:"epoch,omitempty"`
	DDV    []uint64 `json:"ddv,omitempty"`
	Forced bool     `json:"forced,omitempty"`

	// deliver: Node is the receiver; Src/SrcEpoch/SendSN identify the
	// send, RecvEpoch/RecvSN the receiver's position.
	Src       string `json:"src,omitempty"`
	SrcEpoch  uint64 `json:"src_epoch,omitempty"`
	SendSN    uint64 `json:"send_sn,omitempty"`
	RecvEpoch uint64 `json:"recv_epoch,omitempty"`
	RecvSN    uint64 `json:"recv_sn,omitempty"`

	// gcdrop: the GC round and its applied threshold vector (journals
	// written before the round was recorded carry none).
	Round  uint64   `json:"round,omitempty"`
	MinSNs []uint64 `json:"min_sns,omitempty"`

	// send / suspect / drop: the control message type or suspected
	// peer; stop: the final stat counters.
	Msg   string            `json:"msg,omitempty"`
	Dst   string            `json:"dst,omitempty"`
	Stats map[string]uint64 `json:"stats,omitempty"`
}

// NodeID parses the event's journaling node.
func (e Event) NodeID() (topology.NodeID, error) { return topology.ParseNodeID(e.Node) }

// Record maps node id's protocol event to its journal record — the one
// mapping between the two, which Observation inverts. names names the
// node and a delivery's sender (a nil table names them through
// NodeID.String, in one allocation each). ok is false for
// the kinds the journal does not carry: the trace points and the
// counting kinds. A start record names no federation shape;
// the journaling runtime adds Clusters and Recovering. A commit is
// journaled as its dense vector: Pairs is a wire shortcut.
func Record(names topology.NameTable, id topology.NodeID, ev core.Event) (Event, bool) {
	switch ev.Kind {
	case core.EventNodeStart:
		return Event{Node: names.Name(id), Kind: "start", Mode: ev.Mode.String()}, true
	case core.EventCLCCommitted:
		return Event{Node: names.Name(id), Kind: "commit", Seq: uint64(ev.Seq), Epoch: uint64(ev.Epoch),
			DDV: fromSNs(ev.DDV), Forced: ev.Forced}, true
	case core.EventRestore:
		return Event{Node: names.Name(id), Kind: "rollback", Seq: uint64(ev.Seq), Epoch: uint64(ev.Epoch),
			DDV: fromSNs(ev.DDV)}, true
	case core.EventDeliver:
		return Event{Node: names.Name(id), Kind: "deliver", Src: names.Name(ev.Peer),
			SrcEpoch: uint64(ev.PeerEpoch), SendSN: uint64(ev.Seq),
			RecvEpoch: uint64(ev.Epoch), RecvSN: uint64(ev.SN)}, true
	case core.EventGCDrop:
		return Event{Node: names.Name(id), Kind: "gcdrop", Round: ev.Round, MinSNs: fromSNs(ev.DDV)}, true
	}
	return Event{}, false
}

// AppendJSON appends the record's JSON encoding to b and returns the
// extended buffer. The bytes are exactly what json.Marshal writes for
// the record (FuzzEventAppendJSON holds the two equal): fields in
// declaration order, omitempty fields left out at their zero value,
// Stats keys sorted. Apart from sorting a stop record's Stats keys, it
// allocates only for a string that needs escaping, which json.Marshal
// of that one string then does.
func (e *Event) AppendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"t":`...), e.T, 10)
	b = appendString(append(b, `,"node":`...), e.Node)
	b = appendString(append(b, `,"kind":`...), e.Kind)
	if len(e.Clusters) > 0 {
		b = append(b, `,"clusters":[`...)
		for i, v := range e.Clusters {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = appendStringField(b, `,"mode":`, e.Mode)
	b = appendTrueField(b, `,"recovering":true`, e.Recovering)
	b = appendUintField(b, `,"seq":`, e.Seq)
	b = appendUintField(b, `,"epoch":`, e.Epoch)
	b = appendUintsField(b, `,"ddv":[`, e.DDV)
	b = appendTrueField(b, `,"forced":true`, e.Forced)
	b = appendStringField(b, `,"src":`, e.Src)
	b = appendUintField(b, `,"src_epoch":`, e.SrcEpoch)
	b = appendUintField(b, `,"send_sn":`, e.SendSN)
	b = appendUintField(b, `,"recv_epoch":`, e.RecvEpoch)
	b = appendUintField(b, `,"recv_sn":`, e.RecvSN)
	b = appendUintField(b, `,"round":`, e.Round)
	b = appendUintsField(b, `,"min_sns":[`, e.MinSNs)
	b = appendStringField(b, `,"msg":`, e.Msg)
	b = appendStringField(b, `,"dst":`, e.Dst)
	if len(e.Stats) > 0 {
		keys := make([]string, 0, len(e.Stats))
		for k := range e.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, `,"stats":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(appendString(b, k), ':'), e.Stats[k], 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func appendTrueField(b []byte, field string, v bool) []byte {
	if !v {
		return b
	}
	return append(b, field...)
}

func appendUintField(b []byte, key string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, key...), v, 10)
}

func appendUintsField(b []byte, key string, vs []uint64) []byte {
	if len(vs) == 0 {
		return b
	}
	b = append(b, key...)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, ']')
}

// appendString quotes s the way encoding/json does. Every byte that
// json.Marshal escapes (control bytes, '"', '\\', the HTML-sensitive
// '<', '>' and '&', and all of non-ASCII, where invalid UTF-8 and
// U+2028/U+2029 are rewritten) sends the whole string to json.Marshal,
// so the escaping cannot drift from the standard library's.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= 0x80 {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Observation maps a journal record back to the protocol event Record
// made it from. ok is false for the runtime's own records and for a
// delivery whose sender does not parse. An unknown start mode maps to
// ModeHC3I, which scopes no claim.
func (e Event) Observation() (core.Event, bool) {
	switch e.Kind {
	case "start":
		ev := core.Event{Kind: core.EventNodeStart}
		for _, m := range []core.ProtocolMode{core.ModeForceAll, core.ModeIndependent} {
			if e.Mode == m.String() {
				ev.Mode = m
			}
		}
		return ev, true
	case "commit":
		return core.Event{Kind: core.EventCLCCommitted, Seq: core.SN(e.Seq), Epoch: core.Epoch(e.Epoch),
			DDV: toSNs(e.DDV), Forced: e.Forced}, true
	case "rollback":
		return core.Event{Kind: core.EventRestore, Seq: core.SN(e.Seq), Epoch: core.Epoch(e.Epoch),
			DDV: toSNs(e.DDV)}, true
	case "deliver":
		src, err := topology.ParseNodeID(e.Src)
		return core.Event{Kind: core.EventDeliver, Peer: src,
			PeerEpoch: core.Epoch(e.SrcEpoch), Seq: core.SN(e.SendSN),
			Epoch: core.Epoch(e.RecvEpoch), SN: core.SN(e.RecvSN)}, err == nil
	case "gcdrop":
		return core.Event{Kind: core.EventGCDrop, Round: e.Round, DDV: toSNs(e.MinSNs)}, true
	}
	return core.Event{}, false
}

// ReadJournalFile loads one per-node journal. A torn final line (the
// daemon was SIGKILLed mid-write) is tolerated and skipped; garbage
// anywhere else is an error, because it means the file is not a
// journal.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			// Only the very last line may be torn.
			if sc.Scan() {
				return nil, fmt.Errorf("oracle: %s:%d: bad journal line: %v", path, line, err)
			}
			break
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("oracle: %s: %v", path, err)
	}
	return events, nil
}

// MergeEvents interleaves per-node journals into one global order by
// timestamp. The sort is stable over the concatenation, so each
// journal's internal order — which is exact — survives ties.
func MergeEvents(perNode ...[]Event) []Event {
	total := 0
	for _, evs := range perNode {
		total += len(evs)
	}
	merged := make([]Event, 0, total)
	for _, evs := range perNode {
		merged = append(merged, evs...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].T < merged[j].T })
	return merged
}

// ClusterReport summarizes one cluster's replayed history.
type ClusterReport struct {
	Commits   int
	Forced    int
	Rollbacks int
	MaxSN     uint64
	MaxEpoch  uint64
}

// Report is the outcome of one offline replay.
type Report struct {
	Events     int
	Width      int
	Starts     int
	Recoveries int // crash-recovery boots (start events with recovering)
	Commits    int
	Rollbacks  int
	Deliveries int
	GCDrops    int
	Sends      int
	Suspects   int
	Drops      int
	Stops      int
	Span       time.Duration
	PerCluster []ClusterReport
	// Violations are the oracle's findings plus any structural
	// problems of the journal itself (unknown nodes, missing start).
	Violations []error
}

// Clean reports a violation-free replay.
func (r *Report) Clean() bool { return len(r.Violations) == 0 }

// Summary renders the report as a short human-readable block (the CI
// smoke artifact).
func (r *Report) Summary() string {
	s := fmt.Sprintf("replayed %d events over %v: %d clusters, %d commits, %d rollbacks, %d deliveries, %d gc drops\n",
		r.Events, r.Span.Truncate(time.Millisecond), r.Width, r.Commits, r.Rollbacks, r.Deliveries, r.GCDrops)
	for c, cr := range r.PerCluster {
		s += fmt.Sprintf("  cluster %d: %d commits (%d forced), %d rollbacks, line at SN %d epoch %d\n",
			c, cr.Commits, cr.Forced, cr.Rollbacks, cr.MaxSN, cr.MaxEpoch)
	}
	if r.Recoveries > 0 {
		s += fmt.Sprintf("  %d crash-recovery boot(s), %d transport suspicion(s), %d dropped send(s)\n",
			r.Recoveries, r.Suspects, r.Drops)
	}
	if r.Clean() {
		s += "  oracle replay: CLEAN"
	} else {
		s += fmt.Sprintf("  oracle replay: %d VIOLATION(S)\n", len(r.Violations))
		for _, v := range r.Violations {
			s += "    " + v.Error() + "\n"
		}
	}
	return s
}

// Replay drives a fresh Oracle with a merged journal and returns the
// report. It never panics on malformed events — structural problems
// become violations.
func Replay(events []Event) *Report {
	r := &Report{Events: len(events)}
	width := 0
	for _, ev := range events {
		if ev.Kind == "start" && len(ev.Clusters) > 0 {
			width = len(ev.Clusters)
			break
		}
	}
	if width == 0 {
		r.Violations = append(r.Violations,
			fmt.Errorf("oracle: journal has no start event naming the federation shape"))
		return r
	}
	r.Width = width
	r.PerCluster = make([]ClusterReport, width)

	o := New(width)
	var firstT, curT int64
	o.Clock = func() sim.Time {
		if firstT == 0 {
			return 0
		}
		return sim.Time(curT - firstT)
	}

	structural := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Errorf("oracle: journal: "+format, args...))
	}
	for _, ev := range events {
		if firstT == 0 {
			firstT = ev.T
		}
		curT = ev.T
		id, err := ev.NodeID()
		if err != nil {
			structural("event %q from unparseable node %q", ev.Kind, ev.Node)
			continue
		}
		if int(id.Cluster) >= width {
			structural("event %q from %v outside the %d-cluster federation", ev.Kind, id, width)
			continue
		}
		obs, ok := ev.Observation()
		switch ev.Kind {
		case "start":
			r.Starts++
			if ev.Recovering {
				r.Recoveries++
			}
			if len(ev.Clusters) > 0 && len(ev.Clusters) != width {
				structural("start event of %v names %d clusters, federation has %d", id, len(ev.Clusters), width)
			}
		case "commit":
			r.Commits++
			cr := &r.PerCluster[id.Cluster]
			cr.Commits++
			if ev.Forced {
				cr.Forced++
			}
			if ev.Seq > cr.MaxSN {
				cr.MaxSN = ev.Seq
			}
			if len(ev.DDV) != width {
				structural("commit CLC %d of %v carries a %d-entry DDV in a %d-cluster federation",
					ev.Seq, id, len(ev.DDV), width)
				continue
			}
		case "rollback":
			r.Rollbacks++
			cr := &r.PerCluster[id.Cluster]
			cr.Rollbacks++
			if ev.Epoch > cr.MaxEpoch {
				cr.MaxEpoch = ev.Epoch
			}
			if len(ev.DDV) != width {
				structural("rollback to CLC %d of %v carries a %d-entry DDV in a %d-cluster federation",
					ev.Seq, id, len(ev.DDV), width)
				continue
			}
		case "deliver":
			r.Deliveries++
			if !ok || int(obs.Peer.Cluster) >= width {
				structural("delivery at %v from unparseable or foreign sender %q", id, ev.Src)
				continue
			}
		case "gcdrop":
			r.GCDrops++
		case "send":
			r.Sends++
		case "suspect":
			r.Suspects++
		case "drop":
			r.Drops++
		case "stop":
			r.Stops++
		case "hello":
			// liveness announcements carry no protocol claim
		default:
			structural("unknown event kind %q from %v", ev.Kind, id)
		}
		if ok {
			o.Observe(id, obs)
		}
	}
	o.Finish()
	r.Violations = append(r.Violations, o.Violations()...)
	if firstT != 0 {
		r.Span = time.Duration(curT - firstT)
	}
	return r
}

// ReplayFiles loads, merges and replays a set of per-node journals.
func ReplayFiles(paths ...string) (*Report, error) {
	perNode := make([][]Event, 0, len(paths))
	for _, p := range paths {
		evs, err := ReadJournalFile(p)
		if err != nil {
			return nil, err
		}
		perNode = append(perNode, evs)
	}
	return Replay(MergeEvents(perNode...)), nil
}

func toSNs(vals []uint64) core.DDV {
	d := make(core.DDV, len(vals))
	for i, v := range vals {
		d[i] = core.SN(v)
	}
	return d
}

func fromSNs(d []core.SN) []uint64 {
	out := make([]uint64, len(d))
	for i, v := range d {
		out[i] = uint64(v)
	}
	return out
}
