package runtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The TCP transport's wire format. Every dialled connection opens with
// wirePreamble (a 4-byte magic and a version byte); a listener drops a
// connection that opens with anything else, so a peer speaking another
// format is refused rather than misread. Then each envelope is one
// frame: its body length as a uvarint (at most maxFrame), then the body
// — Src and Dst as (cluster, index) uvarints, one tag byte naming the
// message type, and the message's fields in declaration order:
//
//   - SN, Epoch, uint64 and NodeID parts: uvarint;
//   - signed integers (int, int32, ClusterID): zigzag varint;
//   - bool: one byte, 0 or 1;
//   - slices ([]SN, []DDVPair, []uint64, []OlderState, []LogMirror,
//     []GCReport): an element count, then the elements;
//   - SparseDDV (a Chain's anchor, an AppMsg's or a LogMirror's
//     piggyback): its width, then its non-zero entries as a count of
//     ascending (index, SN) pairs;
//   - Chain: its anchor, then its records;
//   - state (Replica.State, RecoverStateResp.State, OlderState.State):
//     one kind byte (nil or *app.State), then the app.State's fields,
//     its delivery journal as a count plus LogicalIDs;
//   - AppPayload: its ID and Size; Data must be nil.
//
// An AppMsg's delta piggyback (PiggyPairs, PiggyWidth) has no encoding:
// a live node has no pipe codecs, so it always sends the whole vector.
//
// The codec is stateless: a frame decodes on its own, whatever came
// before it on the connection. Decoding never trusts a count: a count
// larger than the rest of the body could hold is an error before
// anything is allocated, and an unknown tag, an out-of-range value or
// trailing bytes are errors too. A sparse vector whose width exceeds
// maxWidth, that holds more pairs than its width, or whose pairs are
// out of range, zero, repeated or descending is refused, and so is a
// chain whose records are not strictly increasing in SN. An empty slice
// or map decodes as nil.
// Decoded messages never alias the frame they were read from.
const (
	// wireVersion 2: LogMirror gained Epoch and lost SendSN.
	// wireVersion 3: connections carry numbered, acknowledged streams
	// (StreamOpen first, StreamAck back).
	// wireVersion 4: checkpoint state is an *app.State (journal prefix)
	// instead of a delivery map.
	// wireVersion 5: a chain's anchor is its width and its non-zero
	// entries, not a dense vector.
	// wireVersion 6: a LogMirror's piggyback is a sparse vector too.
	// wireVersion 7: the pooled forms of AppMsg and AppAck have tags of
	// their own, so each decodes in the form it was sent.
	// wireVersion 8: the checkpoint round's control messages (CLCRequest,
	// CLCAck, CLCCommit, ForceCLC) carry dependency pairs only: their
	// dense vectors and the request's update pairs are gone.
	// wireVersion 9: the pooled form of LogMirror has a tag of its own,
	// as AppMsg and AppAck have since version 7.
	// wireVersion 10: an AppMsg's piggyback is a sparse vector, and its
	// delta fields are gone.
	wireVersion = 10
	// maxFrame caps one frame's body.
	maxFrame = 64 << 20
	// maxWidth caps a decoded sparse vector's width: a width costs no
	// frame bytes, and whoever reads the vector sizes dense ones by it.
	maxWidth = 1 << 20
)

var wirePreamble = [5]byte{'H', 'C', '3', 'I', wireVersion}

// Message tags, one per wire type.
const (
	tagAppMsg byte = iota + 1
	tagAppAck
	tagCLCRequest
	tagCLCAck
	tagCLCCommit
	tagForceCLC
	tagReplica
	tagReplicaAck
	tagRollbackAlert
	tagRollbackCmd
	tagRollbackAck
	tagRecoverStateReq
	tagRecoverStateResp
	tagLogMirror
	tagLogTrim
	tagReReplicateReq
	tagRollbackResume
	tagGCRequest
	tagGCReport
	tagGCCollect
	tagGCDrop
	tagGCDemand
	tagGCToken
	tagHello
	tagStreamOpen
	tagStreamAck
	// The pooled forms, *core.AppMsg, *core.AppAck and *core.LogMirror:
	// the fields are those of the value forms, and the decoder hands them
	// back in boxes from the live runtime's pools (see boxes.go). A live
	// node sends these; the value forms stay for whoever sends values.
	tagAppMsgBox
	tagAppAckBox
	tagLogMirrorBox
	numTags
)

// msgNames names every tag's message type as the journal spells it.
var msgNames = [numTags]string{
	tagAppMsg: "AppMsg", tagAppAck: "AppAck", tagCLCRequest: "CLCRequest",
	tagCLCAck: "CLCAck", tagCLCCommit: "CLCCommit", tagForceCLC: "ForceCLC",
	tagReplica: "Replica", tagReplicaAck: "ReplicaAck",
	tagRollbackAlert: "RollbackAlert", tagRollbackCmd: "RollbackCmd",
	tagRollbackAck: "RollbackAck", tagRecoverStateReq: "RecoverStateReq",
	tagRecoverStateResp: "RecoverStateResp", tagLogMirror: "LogMirror",
	tagLogTrim: "LogTrim", tagReReplicateReq: "ReReplicateReq",
	tagRollbackResume: "RollbackResume", tagGCRequest: "GCRequest",
	tagGCReport: "GCReport", tagGCCollect: "GCCollect", tagGCDrop: "GCDrop",
	tagGCDemand: "GCDemand", tagGCToken: "GCToken", tagHello: "Hello",
	tagStreamOpen: "StreamOpen", tagStreamAck: "StreamAck",
	tagAppMsgBox: "AppMsg", tagAppAckBox: "AppAck", tagLogMirrorBox: "LogMirror",
}

// msgTag returns the wire tag of a message, 0 for a type the codec
// does not carry.
func msgTag(m core.Msg) byte {
	switch m := m.(type) {
	case *core.AppMsg:
		if m != nil {
			return tagAppMsgBox
		}
	case *core.AppAck:
		if m != nil {
			return tagAppAckBox
		}
	case *core.LogMirror:
		if m != nil {
			return tagLogMirrorBox
		}
	case core.AppMsg:
		return tagAppMsg
	case core.AppAck:
		return tagAppAck
	case core.CLCRequest:
		return tagCLCRequest
	case core.CLCAck:
		return tagCLCAck
	case core.CLCCommit:
		return tagCLCCommit
	case core.ForceCLC:
		return tagForceCLC
	case core.Replica:
		return tagReplica
	case core.ReplicaAck:
		return tagReplicaAck
	case core.RollbackAlert:
		return tagRollbackAlert
	case core.RollbackCmd:
		return tagRollbackCmd
	case core.RollbackAck:
		return tagRollbackAck
	case core.RecoverStateReq:
		return tagRecoverStateReq
	case core.RecoverStateResp:
		return tagRecoverStateResp
	case core.LogMirror:
		return tagLogMirror
	case core.LogTrim:
		return tagLogTrim
	case core.ReReplicateReq:
		return tagReReplicateReq
	case core.RollbackResume:
		return tagRollbackResume
	case core.GCRequest:
		return tagGCRequest
	case core.GCReport:
		return tagGCReport
	case core.GCCollect:
		return tagGCCollect
	case core.GCDrop:
		return tagGCDrop
	case core.GCDemand:
		return tagGCDemand
	case core.GCToken:
		return tagGCToken
	case Hello:
		return tagHello
	case StreamOpen:
		return tagStreamOpen
	case StreamAck:
		return tagStreamAck
	}
	return 0
}

// msgName names a message's type ("CLCRequest", ...) for the journal;
// empty for a type the codec does not carry.
func msgName(m core.Msg) string { return msgNames[msgTag(m)] }

// State kinds.
const (
	stateNil byte = iota
	stateApp
)

var (
	errTruncated = errors.New("runtime: truncated envelope")
	errCount     = errors.New("runtime: envelope count exceeds its body")
	errTag       = errors.New("runtime: unknown envelope tag")
	errRange     = errors.New("runtime: envelope value out of range")
	errTrailing  = errors.New("runtime: trailing bytes after envelope")
	errFrameSize = errors.New("runtime: frame exceeds the size cap")
)

// ---- encoding ----

// appendEnvelope appends env's frame body to b. An envelope the codec
// cannot carry (an unknown message or state type, non-nil payload Data)
// is an error, and b comes back as it was.
func appendEnvelope(b []byte, env Envelope) ([]byte, error) {
	w := encoder{b: b}
	w.node(env.Src)
	w.node(env.Dst)
	tag := msgTag(env.Msg)
	w.b = append(w.b, tag)
	switch tag {
	case tagAppMsgBox:
		w.appMsg(*env.Msg.(*core.AppMsg))
	case tagAppMsg:
		w.appMsg(env.Msg.(core.AppMsg))
	case tagAppAckBox:
		w.appAck(*env.Msg.(*core.AppAck))
	case tagAppAck:
		w.appAck(env.Msg.(core.AppAck))
	case tagCLCRequest:
		m := env.Msg.(core.CLCRequest)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.bool(m.Forced)
		w.int(int64(m.UpdateWidth))
	case tagCLCAck:
		m := env.Msg.(core.CLCAck)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.pairs(m.NodePairs)
	case tagCLCCommit:
		m := env.Msg.(core.CLCCommit)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.pairs(m.Pairs)
		w.int(int64(m.Width))
	case tagForceCLC:
		m := env.Msg.(core.ForceCLC)
		w.uint(uint64(m.Epoch))
		w.pairs(m.Pairs)
		w.int(int64(m.Width))
		w.bool(m.Always)
	case tagReplica:
		m := env.Msg.(core.Replica)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.node(m.Owner)
		w.state(m.State)
		w.int(int64(m.Size))
	case tagReplicaAck:
		m := env.Msg.(core.ReplicaAck)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.node(m.From)
	case tagRollbackAlert:
		m := env.Msg.(core.RollbackAlert)
		w.int(int64(m.Cluster))
		w.uint(uint64(m.NewSN))
		w.uint(uint64(m.NewEpoch))
	case tagRollbackCmd:
		m := env.Msg.(core.RollbackCmd)
		w.uint(uint64(m.ToSN))
		w.uint(uint64(m.NewEpoch))
	case tagRollbackAck:
		m := env.Msg.(core.RollbackAck)
		w.uint(uint64(m.ToSN))
		w.uint(uint64(m.Epoch))
		w.node(m.From)
	case tagRecoverStateReq:
		m := env.Msg.(core.RecoverStateReq)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.node(m.Owner)
	case tagRecoverStateResp:
		m := env.Msg.(core.RecoverStateResp)
		w.uint(uint64(m.Seq))
		w.uint(uint64(m.Epoch))
		w.node(m.Owner)
		w.state(m.State)
		w.int(int64(m.Size))
		w.chain(m.Chain)
		w.uint(uint64(len(m.Older)))
		for _, o := range m.Older {
			w.uint(uint64(o.SN))
			w.state(o.State)
			w.int(int64(o.Size))
		}
		w.uint(uint64(len(m.Log)))
		for _, l := range m.Log {
			w.logMirror(l)
		}
	case tagLogMirrorBox:
		w.logMirror(*env.Msg.(*core.LogMirror))
	case tagLogMirror:
		w.logMirror(env.Msg.(core.LogMirror))
	case tagLogTrim:
		m := env.Msg.(core.LogTrim)
		w.uint(uint64(len(m.Kept)))
		for _, k := range m.Kept {
			w.uint(k)
		}
	case tagReReplicateReq:
		w.uint(uint64(env.Msg.(core.ReReplicateReq).Epoch))
	case tagRollbackResume:
		w.uint(uint64(env.Msg.(core.RollbackResume).Epoch))
	case tagGCRequest:
		w.uint(env.Msg.(core.GCRequest).Round)
	case tagGCReport:
		w.gcReport(env.Msg.(core.GCReport))
	case tagGCCollect:
		m := env.Msg.(core.GCCollect)
		w.uint(m.Round)
		w.sns(m.MinSNs)
	case tagGCDrop:
		m := env.Msg.(core.GCDrop)
		w.uint(m.Round)
		w.uint(uint64(m.Epoch))
		w.sns(m.MinSNs)
	case tagGCDemand:
		m := env.Msg.(core.GCDemand)
		w.node(m.From)
		w.uint(m.Bytes)
	case tagGCToken:
		m := env.Msg.(core.GCToken)
		w.uint(m.Round)
		w.int(int64(m.Phase))
		w.uint(uint64(len(m.Reports)))
		for _, r := range m.Reports {
			w.gcReport(r)
		}
		w.sns(m.MinSNs)
	case tagHello:
		m := env.Msg.(Hello)
		w.node(m.From)
		w.bool(m.LostState)
	case tagStreamOpen:
		m := env.Msg.(StreamOpen)
		w.uint(m.Stream)
		w.uint(m.Next)
	case tagStreamAck:
		w.streamAck(env.Msg.(StreamAck))
	default:
		w.err = fmt.Errorf("runtime: no wire encoding for %T", env.Msg)
	}
	if w.err != nil {
		return b, w.err
	}
	return w.b, nil
}

// appendFrame appends env to b as one frame: the body length as a
// uvarint, then the body. An envelope the codec cannot carry, or one
// over maxFrame, is an error, and b comes back as it was.
func appendFrame(b []byte, env Envelope) ([]byte, error) {
	start := len(b)
	out, err := appendEnvelope(openFrame(b), env)
	if err != nil {
		return b, err
	}
	return closeFrame(b, out, start)
}

// appendAckFrame appends a StreamAck from src to dst as one frame, the
// same bytes appendFrame writes for it, without boxing the ack into an
// Envelope.
func appendAckFrame(b []byte, src, dst topology.NodeID, a StreamAck) []byte {
	start := len(b)
	w := encoder{b: openFrame(b)}
	w.node(src)
	w.node(dst)
	w.b = append(w.b, tagStreamAck)
	w.streamAck(a)
	out, _ := closeFrame(b, w.b, start) // an ack is far below maxFrame
	return out
}

// frameRoom is the room openFrame leaves for the longest length prefix
// a capped frame needs: the uvarint bytes of maxFrame.
const frameRoom = 4

// openFrame appends the room a frame's length prefix may need; the
// body is encoded behind it.
func openFrame(b []byte) []byte { return append(b, make([]byte, frameRoom)...) }

// closeFrame writes the length prefix of the body encoded into out
// behind openFrame's room at start, and slides the body down to close
// the gap. A body over maxFrame is an error, and b comes back as it was.
func closeFrame(b, out []byte, start int) ([]byte, error) {
	n := len(out) - start - frameRoom
	if n > maxFrame {
		return b, errFrameSize
	}
	head := binary.AppendUvarint(out[:start], uint64(n))
	return append(head, out[start+frameRoom:]...), nil
}

// encoder appends wire fields to b; the first failure sticks in err.
type encoder struct {
	b   []byte
	err error
}

func (w *encoder) uint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *encoder) int(v int64)   { w.b = binary.AppendVarint(w.b, v) }

func (w *encoder) bool(v bool) {
	var c byte
	if v {
		c = 1
	}
	w.b = append(w.b, c)
}

func (w *encoder) node(id topology.NodeID) {
	w.uint(uint64(id.Cluster))
	w.uint(uint64(id.Index))
}

func (w *encoder) sns(s []core.SN) {
	w.uint(uint64(len(s)))
	for _, v := range s {
		w.uint(uint64(v))
	}
}

func (w *encoder) pairs(ps []core.DDVPair) {
	w.uint(uint64(len(ps)))
	for _, p := range ps {
		w.int(int64(p.Idx))
		w.uint(uint64(p.SN))
	}
}

func (w *encoder) sparse(s core.SparseDDV) {
	w.uint(uint64(s.Width))
	w.pairs(s.Pairs)
}

func (w *encoder) chain(c core.Chain) {
	w.sparse(c.Anchor)
	w.uint(uint64(len(c.Recs)))
	for _, r := range c.Recs {
		w.uint(uint64(r.SN))
		w.pairs(r.Pairs)
	}
}

func (w *encoder) payload(p core.AppPayload) {
	if p.Data != nil && w.err == nil {
		w.err = fmt.Errorf("runtime: no wire encoding for payload data %T", p.Data)
	}
	w.node(p.ID.Src)
	w.uint(p.ID.Seq)
	w.int(int64(p.Size))
}

func (w *encoder) state(s any) {
	switch s := s.(type) {
	case nil:
		w.b = append(w.b, stateNil)
	case *app.State:
		w.b = append(w.b, stateApp)
		w.int(int64(s.NextSend))
		w.int(int64(s.AppClock))
		w.uint(uint64(len(s.Journal)))
		for _, id := range s.Journal {
			w.node(id.Src)
			w.uint(id.Seq)
		}
	default:
		if w.err == nil {
			w.err = fmt.Errorf("runtime: no wire encoding for state %T", s)
		}
	}
}

func (w *encoder) appMsg(m core.AppMsg) {
	w.uint(m.MsgID)
	w.payload(m.Payload)
	w.int(int64(m.SrcCluster))
	w.uint(uint64(m.SrcEpoch))
	w.uint(uint64(m.SendSN))
	w.sparse(m.Piggy)
	if (len(m.PiggyPairs) != 0 || m.PiggyWidth != 0) && w.err == nil {
		w.err = errors.New("runtime: no wire encoding for a delta-encoded piggyback")
	}
	w.bool(m.Resend)
	w.uint(uint64(m.DstEpoch))
}

func (w *encoder) appAck(m core.AppAck) {
	w.uint(m.MsgID)
	w.int(int64(m.SrcCluster))
	w.uint(uint64(m.SrcEpoch))
	w.uint(uint64(m.ReceiverSN))
}

func (w *encoder) logMirror(l core.LogMirror) {
	w.node(l.Owner)
	w.uint(l.MsgID)
	w.node(l.Dst)
	w.payload(l.Payload)
	w.uint(uint64(l.PiggySN))
	w.sparse(l.Piggy)
	w.uint(uint64(l.Epoch))
}

func (w *encoder) streamAck(a StreamAck) {
	w.uint(a.Stream)
	w.uint(a.Seq)
	w.bool(a.Fresh)
}

func (w *encoder) gcReport(r core.GCReport) {
	w.uint(r.Round)
	w.int(int64(r.Cluster))
	w.uint(uint64(r.Epoch))
	w.chain(r.Chain)
	w.pairs(r.CurPairs)
}

// ---- decoding ----

// Minimum wire bytes of one element, per counted kind: a count is
// refused when the rest of the body could not hold that many.
const (
	minSN         = 1
	minPair       = 2  // Idx, SN
	minChainRec   = 2  // SN, pair count
	minOlder      = 3  // SN, state kind, Size
	minLogMirror  = 13 // two nodes, MsgID, payload (node, Seq, Size), PiggySN, piggy width, pair count, Epoch
	minGCReport   = 7  // Round, Cluster, Epoch, anchor width, anchor pair count, record count, pair count
	minJournalRec = 3  // LogicalID (node, Seq)
)

// decodeEnvelope decodes one frame body. Everything the result holds
// is freshly allocated: body may be reused as soon as it returns.
func decodeEnvelope(body []byte) (Envelope, error) {
	r := decoder{b: body}
	env := Envelope{Src: r.node(), Dst: r.node()}
	env.Msg = r.msg(r.byte())
	if err := r.end(); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// decodeAck decodes a frame body that must hold a StreamAck, as
// decodeEnvelope would but without boxing the ack into an Envelope:
// any other tag is errTag.
func decodeAck(body []byte) (StreamAck, error) {
	r := decoder{b: body}
	r.node()
	r.node()
	if r.byte() != tagStreamAck {
		r.fail(errTag)
	}
	a := r.streamAck()
	if err := r.end(); err != nil {
		return StreamAck{}, err
	}
	return a, nil
}

// decoder consumes wire fields from b; the first failure sticks in err
// and every later read returns a zero value.
type decoder struct {
	b   []byte
	err error
}

// end reports the first failure, or errTrailing when bytes are left.
func (r *decoder) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = errTrailing
	}
	return r.err
}

func (r *decoder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *decoder) byte() byte {
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *decoder) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *decoder) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zigzag varint into a Go int.
func (r *decoder) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

func (r *decoder) int32() int32 {
	v := r.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(errRange)
		return 0
	}
	return int32(v)
}

func (r *decoder) bool() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errRange)
	return false
}

// count reads an element count and refuses one the rest of the body
// cannot hold at size bytes per element.
func (r *decoder) count(size int) int {
	n := r.uint()
	if n > uint64(len(r.b)/size) {
		r.fail(errCount)
		return 0
	}
	return int(n)
}

func (r *decoder) uintAsInt() int {
	v := r.uint()
	if uint64(int(v)) != v {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

func (r *decoder) node() topology.NodeID {
	return topology.NodeID{Cluster: topology.ClusterID(r.uintAsInt()), Index: r.uintAsInt()}
}

func (r *decoder) cluster() topology.ClusterID { return topology.ClusterID(r.int()) }
func (r *decoder) sn() core.SN                 { return core.SN(r.uint()) }
func (r *decoder) epoch() core.Epoch           { return core.Epoch(r.uint()) }

func (r *decoder) sns() []core.SN {
	n := r.count(minSN)
	if n == 0 {
		return nil
	}
	s := make([]core.SN, n)
	for i := range s {
		s[i] = r.sn()
	}
	return s
}

func (r *decoder) pairs() []core.DDVPair {
	n := r.count(minPair)
	if n == 0 {
		return nil
	}
	ps := make([]core.DDVPair, n)
	for i := range ps {
		ps[i] = core.DDVPair{Idx: r.int32(), SN: r.sn()}
	}
	return ps
}

func (r *decoder) u64s() []uint64 {
	n := r.count(minSN)
	if n == 0 {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.uint()
	}
	return s
}

// chain reads a chain and refuses one whose records are not strictly
// increasing in SN (core.Chain's invariant, which its lookups rely on).
func (r *decoder) chain() core.Chain {
	c := core.Chain{Anchor: r.sparse()}
	if n := r.count(minChainRec); n > 0 {
		c.Recs = make([]core.ChainRec, n)
		for i := range c.Recs {
			c.Recs[i] = core.ChainRec{SN: r.sn(), Pairs: r.pairs()}
			if i > 0 && c.Recs[i].SN <= c.Recs[i-1].SN {
				r.fail(errRange)
			}
		}
	}
	return c
}

// sparse reads a sparse vector and refuses one wider than maxWidth or
// not in sparse form (core.SparseDDV.Valid).
func (r *decoder) sparse() core.SparseDDV {
	width := r.uint()
	if width > maxWidth {
		r.fail(errRange)
		return core.SparseDDV{}
	}
	a := core.SparseDDV{Width: int(width), Pairs: r.pairs()}
	if !a.Valid() {
		r.fail(errRange)
	}
	return a
}

func (r *decoder) payload() core.AppPayload {
	return core.AppPayload{ID: core.LogicalID{Src: r.node(), Seq: r.uint()}, Size: r.int()}
}

func (r *decoder) state() any {
	switch r.byte() {
	case stateNil:
		return nil
	case stateApp:
		s := &app.State{NextSend: r.int(), AppClock: sim.Duration(r.varint())}
		if n := r.count(minJournalRec); n > 0 {
			s.Journal = make([]core.LogicalID, n)
			for i := range s.Journal {
				s.Journal[i] = core.LogicalID{Src: r.node(), Seq: r.uint()}
			}
		}
		return s
	}
	r.fail(errTag)
	return nil
}

func (r *decoder) appMsg() core.AppMsg {
	return core.AppMsg{MsgID: r.uint(), Payload: r.payload(), SrcCluster: r.cluster(),
		SrcEpoch: r.epoch(), SendSN: r.sn(), Piggy: r.sparse(), Resend: r.bool(), DstEpoch: r.epoch()}
}

func (r *decoder) appAck() core.AppAck {
	return core.AppAck{MsgID: r.uint(), SrcCluster: r.cluster(), SrcEpoch: r.epoch(), ReceiverSN: r.sn()}
}

func (r *decoder) logMirror() core.LogMirror {
	return core.LogMirror{Owner: r.node(), MsgID: r.uint(), Dst: r.node(), Payload: r.payload(),
		PiggySN: r.sn(), Piggy: r.sparse(), Epoch: r.epoch()}
}

func (r *decoder) streamAck() StreamAck {
	return StreamAck{Stream: r.uint(), Seq: r.uint(), Fresh: r.bool()}
}

func (r *decoder) gcReport() core.GCReport {
	return core.GCReport{Round: r.uint(), Cluster: r.cluster(), Epoch: r.epoch(),
		Chain: r.chain(), CurPairs: r.pairs()}
}

// msg decodes the message a tag announces. Function calls in a
// composite literal run left to right, so every literal below reads its
// fields in wire order.
func (r *decoder) msg(tag byte) core.Msg {
	switch tag {
	case tagAppMsgBox:
		m := appMsgBoxes.Get().(*core.AppMsg)
		*m = r.appMsg()
		return m
	case tagAppMsg:
		return r.appMsg()
	case tagAppAckBox:
		m := appAckBoxes.Get().(*core.AppAck)
		*m = r.appAck()
		return m
	case tagAppAck:
		return r.appAck()
	case tagCLCRequest:
		return core.CLCRequest{Seq: r.sn(), Epoch: r.epoch(), Forced: r.bool(), UpdateWidth: r.int()}
	case tagCLCAck:
		return core.CLCAck{Seq: r.sn(), Epoch: r.epoch(), NodePairs: r.pairs()}
	case tagCLCCommit:
		return core.CLCCommit{Seq: r.sn(), Epoch: r.epoch(), Pairs: r.pairs(), Width: r.int()}
	case tagForceCLC:
		return core.ForceCLC{Epoch: r.epoch(), Pairs: r.pairs(), Width: r.int(), Always: r.bool()}
	case tagReplica:
		return core.Replica{Seq: r.sn(), Epoch: r.epoch(), Owner: r.node(), State: r.state(), Size: r.int()}
	case tagReplicaAck:
		return core.ReplicaAck{Seq: r.sn(), Epoch: r.epoch(), From: r.node()}
	case tagRollbackAlert:
		return core.RollbackAlert{Cluster: r.cluster(), NewSN: r.sn(), NewEpoch: r.epoch()}
	case tagRollbackCmd:
		return core.RollbackCmd{ToSN: r.sn(), NewEpoch: r.epoch()}
	case tagRollbackAck:
		return core.RollbackAck{ToSN: r.sn(), Epoch: r.epoch(), From: r.node()}
	case tagRecoverStateReq:
		return core.RecoverStateReq{Seq: r.sn(), Epoch: r.epoch(), Owner: r.node()}
	case tagRecoverStateResp:
		m := core.RecoverStateResp{Seq: r.sn(), Epoch: r.epoch(), Owner: r.node(),
			State: r.state(), Size: r.int(), Chain: r.chain()}
		if n := r.count(minOlder); n > 0 {
			m.Older = make([]core.OlderState, n)
			for i := range m.Older {
				m.Older[i] = core.OlderState{SN: r.sn(), State: r.state(), Size: r.int()}
			}
		}
		if n := r.count(minLogMirror); n > 0 {
			m.Log = make([]core.LogMirror, n)
			for i := range m.Log {
				m.Log[i] = r.logMirror()
			}
		}
		return m
	case tagLogMirrorBox:
		m := logMirrorBoxes.Get().(*core.LogMirror)
		*m = r.logMirror()
		return m
	case tagLogMirror:
		return r.logMirror()
	case tagLogTrim:
		return core.LogTrim{Kept: r.u64s()}
	case tagReReplicateReq:
		return core.ReReplicateReq{Epoch: r.epoch()}
	case tagRollbackResume:
		return core.RollbackResume{Epoch: r.epoch()}
	case tagGCRequest:
		return core.GCRequest{Round: r.uint()}
	case tagGCReport:
		return r.gcReport()
	case tagGCCollect:
		return core.GCCollect{Round: r.uint(), MinSNs: r.sns()}
	case tagGCDrop:
		return core.GCDrop{Round: r.uint(), Epoch: r.epoch(), MinSNs: r.sns()}
	case tagGCDemand:
		return core.GCDemand{From: r.node(), Bytes: r.uint()}
	case tagGCToken:
		m := core.GCToken{Round: r.uint(), Phase: r.int()}
		if n := r.count(minGCReport); n > 0 {
			m.Reports = make([]core.GCReport, n)
			for i := range m.Reports {
				m.Reports[i] = r.gcReport()
			}
		}
		m.MinSNs = r.sns()
		return m
	case tagHello:
		return Hello{From: r.node(), LostState: r.bool()}
	case tagStreamOpen:
		return StreamOpen{Stream: r.uint(), Next: r.uint()}
	case tagStreamAck:
		return r.streamAck()
	}
	r.fail(errTag)
	return nil
}

// readPreamble consumes a connection's opening bytes and reports
// whether they are this codec's preamble.
func readPreamble(br *bufio.Reader) bool {
	var got [len(wirePreamble)]byte
	_, err := io.ReadFull(br, got[:])
	return err == nil && got == wirePreamble
}

// readFrame reads one frame's body into buf (reused across frames) and
// returns it. The buffer grows with the bytes that actually arrive, not
// with what the length prefix claims, so a hostile prefix costs at most
// twice what its sender really wrote.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return buf, err
	}
	if n > maxFrame {
		return buf, errFrameSize
	}
	buf = buf[:0]
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 4096))
		}
		end := min(cap(buf), int(n))
		got, err := io.ReadFull(br, buf[len(buf):end])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
