package runtime

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

func nid(c, i int) topology.NodeID { return topology.NodeID{Cluster: topology.ClusterID(c), Index: i} }

// appState builds an application snapshot whose journal holds n
// deliveries.
func appState(next, n int) *app.State {
	s := &app.State{NextSend: next, AppClock: sim.Duration(next) * sim.Second,
		Journal: make([]core.LogicalID, n)}
	for i := range s.Journal {
		s.Journal[i] = core.LogicalID{Src: nid(i%3, i%5), Seq: uint64(1000 + i%(n/2+1))}
	}
	return s
}

func testChain() core.Chain {
	return core.Chain{Anchor: core.SparseDDV{Width: 3, Pairs: []core.DDVPair{{Idx: 0, SN: 4}, {Idx: 2, SN: 9}}}, Recs: []core.ChainRec{
		{SN: 4, Pairs: []core.DDVPair{{Idx: 2, SN: 9}}},
		{SN: 5, Pairs: []core.DDVPair{{Idx: 0, SN: 5}, {Idx: 1, SN: 1 << 40}}},
	}}
}

func testLog() core.LogMirror {
	return core.LogMirror{Owner: nid(1, 2), MsgID: 77, Dst: nid(0, 1),
		Payload: core.AppPayload{ID: core.LogicalID{Src: nid(1, 2), Seq: 12}, Size: 256},
		PiggySN: 6, Piggy: core.SparseDDV{Width: 3, Pairs: []core.DDVPair{{Idx: 0, SN: 3}, {Idx: 1, SN: 6}}}, Epoch: 2}
}

func testReport() core.GCReport {
	return core.GCReport{Round: 3, Cluster: 1, Epoch: 2, Chain: testChain(),
		CurPairs: []core.DDVPair{{Idx: 1, SN: 7}}}
}

// wireRows holds one fully populated value of every message type the
// codec carries (every slice non-empty, every field non-zero where it
// can be; an AppMsg's delta fields have no encoding), then the pooled
// forms of AppMsg and AppAck, two pooled LogMirrors, one without a
// piggyback and one with a sparse one, and a pooled AppMsg without a
// piggyback; the Replica's state has entries deliveries.
func wireRows(entries int) []core.Msg {
	pairs := []core.DDVPair{{Idx: 0, SN: 3}, {Idx: 2, SN: 1<<63 + 5}}
	appMsg := core.AppMsg{MsgID: 1 << 50, Payload: core.AppPayload{ID: core.LogicalID{Src: nid(0, 1), Seq: 9}, Size: 256},
		SrcCluster: 1, SrcEpoch: 3, SendSN: 8, Piggy: core.SparseDDV{Width: 3, Pairs: pairs}, Resend: true, DstEpoch: 4}
	appAck := core.AppAck{MsgID: 5, SrcCluster: 2, SrcEpoch: 1, ReceiverSN: 6}
	bare, mirror := testLog(), testLog()
	bare.Piggy = core.SparseDDV{}
	bareMsg := appMsg
	bareMsg.Piggy = core.SparseDDV{}
	return []core.Msg{
		appMsg,
		appAck,
		core.CLCRequest{Seq: 7, Epoch: 1, Forced: true, UpdateWidth: 2},
		core.CLCAck{Seq: 7, Epoch: 1, NodePairs: pairs},
		core.CLCCommit{Seq: 7, Epoch: 1, Pairs: pairs, Width: 2},
		core.ForceCLC{Epoch: 2, Pairs: pairs, Width: 2, Always: true},
		core.Replica{Seq: 9, Epoch: 2, Owner: nid(0, 1), State: appState(41, entries), Size: 1024},
		core.ReplicaAck{Seq: 9, Epoch: 2, From: nid(0, 2)},
		core.RollbackAlert{Cluster: 1, NewSN: 4, NewEpoch: 3},
		core.RollbackCmd{ToSN: 4, NewEpoch: 3},
		core.RollbackAck{ToSN: 4, Epoch: 3, From: nid(1, 1)},
		core.RecoverStateReq{Seq: 5, Epoch: 3, Owner: nid(0, 0)},
		core.RecoverStateResp{Seq: 5, Epoch: 3, Owner: nid(0, 0), State: appState(12, 40), Size: 1024,
			Chain: testChain(),
			Older: []core.OlderState{{SN: 4, State: appState(10, 30), Size: 1024}, {SN: 3, Size: 512}},
			Log:   []core.LogMirror{testLog(), testLog()}},
		testLog(),
		core.LogTrim{Kept: []uint64{3, 1 << 62}},
		core.ReReplicateReq{Epoch: 6},
		core.RollbackResume{Epoch: 6},
		core.GCRequest{Round: 11},
		testReport(),
		core.GCCollect{Round: 11, MinSNs: []core.SN{2, 5}},
		core.GCDrop{Round: 11, Epoch: 2, MinSNs: []core.SN{2, 5}},
		core.GCDemand{From: nid(1, 0), Bytes: 1 << 33},
		core.GCToken{Round: 12, Phase: 1, Reports: []core.GCReport{testReport(), testReport()}, MinSNs: []core.SN{1, 1}},
		Hello{From: nid(0, 2), LostState: true},
		StreamOpen{Stream: 1<<63 + 7, Next: 1 << 40},
		StreamAck{Stream: 1<<63 + 7, Seq: 1<<40 - 1, Fresh: true},
		&appMsg,
		&appAck,
		&bare,
		&mirror,
		&bareMsg,
	}
}

// typeName is a message's unqualified type name ("CLCRequest").
func typeName(m core.Msg) string {
	name := fmt.Sprintf("%T", m)
	return name[strings.LastIndexByte(name, '.')+1:]
}

func roundTrip(t *testing.T, env Envelope) Envelope {
	t.Helper()
	body, err := appendEnvelope(nil, env)
	if err != nil {
		t.Fatalf("%s: encode: %v", typeName(env.Msg), err)
	}
	back, err := decodeEnvelope(body)
	if err != nil {
		t.Fatalf("%s: decode: %v", typeName(env.Msg), err)
	}
	return back
}

// TestEnvelopeCodecRoundTrip: every message type survives encode →
// decode intact and in the form it was sent (a pooled box or a value),
// encodes without allocating into a buffer that has
// room, and its tag names it the way the journal always has.
func TestEnvelopeCodecRoundTrip(t *testing.T) {
	buf := make([]byte, 0, 1<<20)
	for _, m := range wireRows(10_000) {
		env := Envelope{Src: nid(0, 1), Dst: nid(1, 3), Msg: m}
		if back := roundTrip(t, env); !reflect.DeepEqual(back, env) {
			t.Fatalf("%s: round trip changed the envelope:\n got %+v\nwant %+v", typeName(m), back, env)
		}
		if allocs := testing.AllocsPerRun(5, func() { buf, _ = appendEnvelope(buf[:0], env) }); allocs != 0 {
			t.Errorf("%s: encoding allocates %.0f times", typeName(m), allocs)
		}
		if got := msgName(m); got != typeName(m) {
			t.Errorf("journal name %q, want %q", got, typeName(m))
		}
	}
}

// TestEnvelopeCodecCoversEveryMessage fails, naming the type, when a
// protocol message in core has no row in wireRows — a type added to
// core without a codec case is caught here, not on a live wire.
func TestEnvelopeCodecCoversEveryMessage(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../core/messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, local := map[string]bool{}, 0
	for _, m := range wireRows(1) {
		rows[typeName(m)] = true
		if reflect.TypeOf(m).PkgPath() == reflect.TypeOf(Hello{}).PkgPath() {
			local++ // a transport message of this package, not of core
		}
	}
	found := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != "ProtocolMessage" {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		name := recv.(*ast.Ident).Name
		found++
		if !rows[name] {
			t.Errorf("core.%s has no wire codec row (and likely no codec case)", name)
		}
	}
	if found != len(rows)-local {
		t.Errorf("messages.go has %d message types, the codec table %d", found, len(rows)-local)
	}
	for _, m := range []core.Msg{Hello{}, StreamOpen{}, StreamAck{}} {
		if !rows[typeName(m)] {
			t.Errorf("transport message %s has no wire codec row", typeName(m))
		}
	}
}

// TestEnvelopeEmptyDecodesNil: empty slices and maps arrive as nil,
// which is what live nodes have always been handed.
func TestEnvelopeEmptyDecodesNil(t *testing.T) {
	env := Envelope{Msg: core.RecoverStateResp{
		State: &app.State{Journal: []core.LogicalID{}},
		Chain: core.Chain{Anchor: core.SparseDDV{Pairs: []core.DDVPair{}}, Recs: []core.ChainRec{{SN: 1, Pairs: []core.DDVPair{}}}},
		Older: []core.OlderState{}, Log: []core.LogMirror{}}}
	want := Envelope{Msg: core.RecoverStateResp{State: &app.State{},
		Chain: core.Chain{Recs: []core.ChainRec{{SN: 1}}}}}
	if back := roundTrip(t, env); !reflect.DeepEqual(back, want) {
		t.Fatalf("got %+v, want %+v", back, want)
	}
	env = Envelope{Msg: core.AppMsg{Piggy: core.SparseDDV{Pairs: []core.DDVPair{}}}}
	if back := roundTrip(t, env); !reflect.DeepEqual(back, Envelope{Msg: core.AppMsg{}}) {
		t.Fatalf("got %+v, want nil slices", back)
	}
}

// TestPreambleRefusesOtherVersions: a connection that opens with
// another wire version's preamble is refused — version 7 is the one
// whose control messages still carried dense vectors, version 8 the
// last without a pooled LogMirror tag, version 9 the last whose AppMsg
// carried a dense piggyback and delta fields.
func TestPreambleRefusesOtherVersions(t *testing.T) {
	for v, want := range map[byte]bool{wireVersion: true, 7: false, 8: false, 9: false, wireVersion + 1: false} {
		if got := readPreamble(bufio.NewReader(bytes.NewReader([]byte{'H', 'C', '3', 'I', v}))); got != want {
			t.Errorf("version %d preamble accepted = %v, want %v", v, got, want)
		}
	}
}

// TestNodeAppRestoreAcrossProcesses: a checkpoint replica carries the
// application's whole delivery journal, so a fresh process restored
// from it (no history of its own) knows every delivery the owner had
// made; and a snapshot stays as it was cut whatever the application
// does after a restore.
func TestNodeAppRestoreAcrossProcesses(t *testing.T) {
	clusters := []int{2, 2}
	wl := liveWorkload(clusters, &WorkloadFile{PeriodMS: 5, InterProb: 0.3, Size: 64})
	fed := topology.Small(2, 2)
	id, src := nid(0, 0), nid(1, 1)
	newApp := func() *app.NodeApp { return app.NewNodeApp(id, wl, fed, sim.NewRNG(1)) }
	deliver := func(a *app.NodeApp, seqs ...uint64) {
		for _, seq := range seqs {
			a.Deliver(src, core.AppPayload{ID: core.LogicalID{Src: src, Seq: seq}})
		}
	}

	t.Run("wire", func(t *testing.T) {
		owner := newApp()
		deliver(owner, 1, 2, 2, 3)
		state, size := owner.Snapshot()
		back := roundTrip(t, Envelope{Src: id, Dst: nid(0, 1),
			Msg: core.Replica{Seq: 2, Owner: id, State: state, Size: size}})
		fresh := newApp()
		fresh.Restore(back.Msg.(core.Replica).State)
		if got, want := fresh.DeliveredCount(), owner.DeliveredCount(); got != want {
			t.Fatalf("restored DeliveredCount %d, owner's %d", got, want)
		}
		for seq := uint64(0); seq <= 4; seq++ {
			lid := core.LogicalID{Src: src, Seq: seq}
			if got, want := fresh.DeliveredTimes(lid), owner.DeliveredTimes(lid); got != want {
				t.Errorf("restored DeliveredTimes(%v) = %d, owner's %d", lid, got, want)
			}
		}
	})

	t.Run("immutable", func(t *testing.T) {
		a := newApp()
		deliver(a, 1)
		early, _ := a.Snapshot()
		deliver(a, 2, 3)
		first, _ := a.Snapshot()
		want := slices.Clone(first.(*app.State).Journal)
		a.Restore(early)
		deliver(a, 4, 5, 6)
		if got := first.(*app.State).Journal; !slices.Equal(got, want) {
			t.Fatalf("snapshot journal changed from %v to %v", want, got)
		}
	})
}

type unknownMsg struct{}

func (unknownMsg) ProtocolMessage() {}

// TestEnvelopeCodecRefuses: what the codec cannot carry (among it an
// AppMsg's delta piggyback) is an encode error that leaves the buffer
// as it was, and hostile bodies (among them an AppMsg whose piggyback
// is not a sparse vector) are decode errors, never panics.
func TestEnvelopeCodecRefuses(t *testing.T) {
	prefix := []byte("keep")
	for _, m := range []core.Msg{
		nil, unknownMsg{}, (*core.AppMsg)(nil), (*core.AppAck)(nil), (*core.LogMirror)(nil),
		core.AppMsg{Payload: core.AppPayload{Data: "opaque"}},
		&core.AppMsg{Payload: core.AppPayload{Data: "opaque"}},
		core.AppMsg{PiggyPairs: []core.DDVPair{{Idx: 1, SN: 2}}, PiggyWidth: 2},
		&core.AppMsg{PiggyWidth: 2},
		core.AppMsg{PiggyPairs: []core.DDVPair{{Idx: 1, SN: 2}}},
		core.Replica{State: "not an *app.State"},
		core.RecoverStateResp{Older: []core.OlderState{{State: 3}}},
	} {
		out, err := appendEnvelope(prefix, Envelope{Msg: m})
		if err == nil {
			t.Errorf("%#v encoded", m)
		}
		if !bytes.Equal(out, prefix) {
			t.Errorf("%#v: failed encode left %q", m, out)
		}
	}

	for _, m := range wireRows(20) {
		body, _ := appendEnvelope(nil, Envelope{Msg: m})
		for cut := 0; cut < len(body); cut++ {
			if _, err := decodeEnvelope(body[:cut]); err == nil {
				t.Fatalf("%s cut to %d of %d bytes decoded", typeName(m), cut, len(body))
			}
		}
		if _, err := decodeEnvelope(append(body, 0)); !errors.Is(err, errTrailing) {
			t.Fatalf("%s with a trailing byte: err %v", typeName(m), err)
		}
	}

	head := []byte{0, 0, 0, 0}
	for name, body := range map[string][]byte{
		"tag 0":          append(head, 0),
		"unknown tag":    append(head, numTags),
		"bool 2":         append(head, tagHello, 0, 0, 2),
		"state kind 9":   append(head, tagReplica, 1, 1, 0, 0, 9),
		"2^40 DDV":       binary.AppendUvarint(append(head, tagCLCCommit, 1, 1), 1<<40),
		"2^40 journal":   binary.AppendUvarint(append(head, tagReplica, 1, 1, 0, 0, stateApp, 0, 0), 1<<40),
		"int32 overflow": binary.AppendVarint(append(head, tagCLCAck, 1, 1, 0, 1), 1<<40),
		"varint overrun": append(head, tagGCRequest, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		if _, err := decodeEnvelope(body); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}

	for name, a := range hostileAnchors {
		body, err := appendEnvelope(nil, Envelope{Msg: &core.AppMsg{Piggy: a}})
		if err != nil {
			t.Fatalf("%s: AppMsg did not encode: %v", name, err)
		}
		if _, err := decodeEnvelope(body); !errors.Is(err, errRange) {
			t.Errorf("%s: AppMsg decoded with err %v", name, err)
		}
	}

	// A chain's records must be strictly increasing in SN.
	for _, recs := range [][]core.ChainRec{{{SN: 5}, {SN: 4}}, {{SN: 4}, {SN: 4}}} {
		body, _ := appendEnvelope(nil, Envelope{Msg: core.RecoverStateResp{Chain: core.Chain{Recs: recs}}})
		if _, err := decodeEnvelope(body); !errors.Is(err, errRange) {
			t.Errorf("chain records %v decoded with err %v", recs, err)
		}
	}
}

// hostileAnchors are chain anchors the decoder must refuse, by what is
// wrong with them. The encoder writes them as they are.
var hostileAnchors = map[string]core.SparseDDV{
	"index past the width":  {Width: 3, Pairs: []core.DDVPair{{Idx: 3, SN: 1}}},
	"negative index":        {Width: 3, Pairs: []core.DDVPair{{Idx: -1, SN: 1}}},
	"repeated index":        {Width: 3, Pairs: []core.DDVPair{{Idx: 1, SN: 1}, {Idx: 1, SN: 2}}},
	"descending indices":    {Width: 3, Pairs: []core.DDVPair{{Idx: 2, SN: 1}, {Idx: 0, SN: 2}}},
	"zero SN":               {Width: 3, Pairs: []core.DDVPair{{Idx: 0, SN: 0}}},
	"more pairs than width": {Width: 1, Pairs: []core.DDVPair{{Idx: 0, SN: 1}, {Idx: 1, SN: 1}}},
	"width past the limit":  {Width: maxWidth + 1},
}

// hostileReport is a GC report whose chain has anchor a.
func hostileReport(a core.SparseDDV) core.GCReport {
	r := testReport()
	r.Chain.Anchor = a
	return r
}

// TestEnvelopeRefusesHostileAnchor: a chain anchor that is not a
// sparse vector of its width is a range error, in a GC report, a token
// and a recovery response alike; the widest legal one round-trips.
func TestEnvelopeRefusesHostileAnchor(t *testing.T) {
	for name, a := range hostileAnchors {
		r := hostileReport(a)
		for _, m := range []core.Msg{r, core.GCToken{Reports: []core.GCReport{testReport(), r}},
			core.RecoverStateResp{Chain: r.Chain}} {
			body, err := appendEnvelope(nil, Envelope{Msg: m})
			if err != nil {
				t.Fatalf("%s: %s did not encode: %v", name, typeName(m), err)
			}
			if _, err := decodeEnvelope(body); !errors.Is(err, errRange) {
				t.Errorf("%s: %s decoded with err %v", name, typeName(m), err)
			}
		}
	}
	widest := Envelope{Msg: hostileReport(core.SparseDDV{Width: maxWidth, Pairs: []core.DDVPair{{Idx: 0, SN: 1}, {Idx: maxWidth - 1, SN: 2}}})}
	if back := roundTrip(t, widest); !reflect.DeepEqual(back, widest) {
		t.Fatalf("got %+v, want %+v", back, widest)
	}
}

// hostileMirror is a log mirror whose piggyback is p.
func hostileMirror(p core.SparseDDV) core.LogMirror {
	l := testLog()
	l.Piggy = p
	return l
}

// TestEnvelopeLogMirrorPiggyback: a mirror's piggyback travels as a
// sparse vector — none (a send without the transitive extension) and
// the widest legal one round-trip, and every hostile anchor is refused
// here too, alone and inside a recovery response.
func TestEnvelopeLogMirrorPiggyback(t *testing.T) {
	for _, p := range []core.SparseDDV{{}, {Width: maxWidth, Pairs: []core.DDVPair{{Idx: 0, SN: 1}, {Idx: maxWidth - 1, SN: 2}}}} {
		env := Envelope{Msg: hostileMirror(p)}
		if back := roundTrip(t, env); !reflect.DeepEqual(back, env) {
			t.Fatalf("got %+v, want %+v", back, env)
		}
	}
	for name, a := range hostileAnchors {
		l := hostileMirror(a)
		for _, m := range []core.Msg{l, core.RecoverStateResp{Chain: testChain(), Log: []core.LogMirror{testLog(), l}}} {
			body, err := appendEnvelope(nil, Envelope{Msg: m})
			if err != nil {
				t.Fatalf("%s: %s did not encode: %v", name, typeName(m), err)
			}
			if _, err := decodeEnvelope(body); !errors.Is(err, errRange) {
				t.Errorf("%s: %s decoded with err %v", name, typeName(m), err)
			}
		}
	}
}

// TestEnvelopeDecodeDoesNotAlias: a decoded message owns its memory, so
// the receive buffer can be reused for the next frame.
func TestEnvelopeDecodeDoesNotAlias(t *testing.T) {
	rows := wireRows(50)
	for _, pick := range []int{0, 4, 6, 12, 22} { // AppMsg, CLCCommit, Replica, RecoverStateResp, GCToken
		a := Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: rows[pick]}
		buf, err := appendEnvelope(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		gotA, err := decodeEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		// Frame B overwrites the same bytes with different values.
		for i := range buf {
			buf[i] = 0
		}
		b := Envelope{Src: nid(1, 1), Dst: nid(1, 0), Msg: core.CLCCommit{Seq: 99, Pairs: []core.DDVPair{{Idx: 9, SN: 99}}, Width: 99}}
		buf, _ = appendEnvelope(buf[:0], b)
		if _, err := decodeEnvelope(buf); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotA, a) {
			t.Fatalf("%s changed when its buffer was reused", typeName(a.Msg))
		}
	}
}

// FuzzEnvelopeCodec: decoding arbitrary bytes never panics and never
// allocates more than a constant factor of the body, and whatever
// decodes re-encodes to something that decodes equal.
func FuzzEnvelopeCodec(f *testing.F) {
	for _, m := range wireRows(8) {
		body, err := appendEnvelope(nil, Envelope{Src: nid(0, 1), Dst: nid(1, 0), Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	seeds := []core.Msg{hostileReport(hostileAnchors["descending indices"]), hostileMirror(hostileAnchors["index past the width"]), hostileAppMsg()}
	for _, m := range append(seeds, hostileControl()...) {
		body, err := appendEnvelope(nil, Envelope{Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := decodeEnvelope(body)
		// Per wire byte a decode builds at most one map slot or a 16-byte
		// slice element; 64 bytes per body byte is a loose ceiling on
		// that, plus the message box.
		if grew := bytesAllocated(func() { decodeEnvelope(body) }); grew > uint64(64*len(body)+4096) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), grew)
		}
		if err != nil {
			return
		}
		again, err := appendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", env, err)
		}
		back, err := decodeEnvelope(again)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", env, err)
		}
		if !reflect.DeepEqual(back, env) {
			t.Fatalf("re-encode changed the envelope:\n got %+v\nwant %+v", back, env)
		}
		switch env.Msg.(type) {
		case Hello, StreamOpen, StreamAck:
			return // the transport's own, never a node's
		}
		// Whatever the peer sent, from another cluster or from their own,
		// a leader and a member of the receiving cluster refuse or handle
		// it; neither panics.
		receiver(nid(0, 0)).OnMessage(nid(1, 0), env.Msg)
		receiver(nid(0, 1)).OnMessage(nid(1, 0), env.Msg)
		receiver(nid(0, 0)).OnMessage(nid(0, 1), env.Msg)
		receiver(nid(0, 1)).OnMessage(nid(0, 0), env.Msg)
	})
}

// hostileControl are control messages that name a cluster outside
// receiver's two-cluster federation: pair indices past the width and
// below zero, alerts from clusters 9 and -1.
func hostileControl() []core.Msg {
	far := []core.DDVPair{{Idx: 7, SN: 1}}
	below := []core.DDVPair{{Idx: -1, SN: 1}}
	return []core.Msg{
		core.ForceCLC{Pairs: far, Width: 2},
		core.ForceCLC{Pairs: below, Width: 2, Always: true},
		core.RollbackAlert{Cluster: 9, NewSN: 1, NewEpoch: 1},
		core.RollbackAlert{Cluster: -1, NewSN: 1, NewEpoch: 1},
		core.CLCCommit{Seq: 1, Pairs: far, Width: 2},
		core.CLCCommit{Seq: 1, Pairs: below, Width: 2},
		core.CLCAck{Seq: 1, NodePairs: far},
		core.CLCAck{Seq: 1, NodePairs: below},
	}
}

// hostileAppMsg is an inter-cluster message whose piggyback is one
// entry wider than receiver's federation.
func hostileAppMsg() core.AppMsg {
	return core.AppMsg{MsgID: 3, Payload: core.AppPayload{ID: core.LogicalID{Src: nid(1, 0), Seq: 3}, Size: 64},
		SrcCluster: 1, SendSN: 2, Piggy: core.SparseDDV{Width: 3, Pairs: []core.DDVPair{{Idx: 0, SN: 1}, {Idx: 1, SN: 1}, {Idx: 2, SN: 5}}}}
}

// receiver is a fresh node id of a transitive federation of two 2-node
// clusters, without pipe codecs as a daemon's node has.
func receiver(id topology.NodeID) *core.Node {
	return core.NewNode(core.Config{ID: id, Clusters: 2, ClusterSizes: []int{2, 2},
		CLCPeriod: sim.Second, GCPeriod: sim.Forever, Replicas: 1, Transitive: true}, nullEnv{}, nullApp{})
}

// nullEnv and nullApp are the least a core node runs on.
type nullEnv struct{}

func (nullEnv) Now() sim.Time                          { return 0 }
func (nullEnv) Send(topology.NodeID, int, core.Msg)    {}
func (nullEnv) SendApp(topology.NodeID, int, core.Msg) {}
func (nullEnv) SetTimer(core.TimerKind, sim.Duration)  {}

type nullApp struct{}

func (nullApp) Snapshot() (any, int)                     { return nil, 0 }
func (nullApp) Restore(any)                              {}
func (nullApp) Deliver(topology.NodeID, core.AppPayload) {}

// bytesAllocated reports the heap bytes f allocates. The counter is
// process-wide, so it takes the least of three runs: another
// goroutine's allocation rarely lands in all three windows.
func bytesAllocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		f()
		goruntime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// benchEnvelopes are the codec benchmark's shapes: an intra-cluster
// AppMsg, an inter-cluster one with a 2-wide sparse piggyback, the
// LogMirror that logs such a send (without a piggyback, as a
// non-transitive run sends it), all in the pooled form a live node
// sends, and a checkpoint Replica whose state's journal holds 50 000
// deliveries.
func benchEnvelopes() []struct {
	name string
	env  Envelope
} {
	payload := core.AppPayload{ID: core.LogicalID{Src: nid(0, 1), Seq: 123456}, Size: 256}
	return []struct {
		name string
		env  Envelope
	}{
		{"intra", Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: &core.AppMsg{MsgID: 123456, Payload: payload, SendSN: 17}}},
		{"inter", Envelope{Src: nid(0, 1), Dst: nid(1, 0), Msg: &core.AppMsg{MsgID: 123456, Payload: payload,
			SendSN: 17, SrcEpoch: 1, Piggy: core.SparseDDV{Width: 2, Pairs: []core.DDVPair{{Idx: 0, SN: 17}, {Idx: 1, SN: 9}}}, DstEpoch: 1}}},
		{"mirror", Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: &core.LogMirror{Owner: nid(0, 1), MsgID: 123456,
			Dst: nid(1, 0), Payload: payload, PiggySN: 17, Epoch: 1}}},
		{"replica50k", Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: core.Replica{Seq: 17, Owner: nid(0, 1),
			State: appState(50_000, 50_000), Size: 1024}}},
	}
}

// TestPooledMirrorCodecAllocatesNothing: a pooled LogMirror without a
// piggyback, as a non-transitive live node sends one per logged
// inter-cluster message, is encoded into a reused buffer, decoded into
// a pooled box and given back without one allocation.
func TestPooledMirrorCodecAllocatesNothing(t *testing.T) {
	mirror := testLog()
	mirror.Piggy = core.SparseDDV{}
	env := Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: &mirror}
	var buf []byte
	allocs := testing.AllocsPerRun(1000, func() {
		buf, _ = appendEnvelope(buf[:0], env)
		back, err := decodeEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		reclaim(back.Msg)
	})
	if allocs != 0 {
		t.Fatalf("a pooled mirror's round trip costs %v allocations, want 0", allocs)
	}
}

// TestAckFrameMatchesEnvelope: the by-value ack frame is byte for byte
// the frame of the same StreamAck in an Envelope, and decodeAck reads
// it back; it refuses another tag and trailing bytes.
func TestAckFrameMatchesEnvelope(t *testing.T) {
	src, dst := nid(1, 2), nid(0, 300)
	for _, fresh := range []bool{false, true} {
		for _, seq := range []uint64{0, math.MaxUint64} {
			ack := StreamAck{Stream: 1<<63 + 7, Seq: seq, Fresh: fresh}
			want, err := appendFrame(nil, Envelope{Src: src, Dst: dst, Msg: ack})
			if err != nil {
				t.Fatal(err)
			}
			got := appendAckFrame([]byte("keep"), src, dst, ack)
			if !bytes.Equal(got, append([]byte("keep"), want...)) {
				t.Fatalf("%+v: ack frame\n%x\nwant\n%x", ack, got[4:], want)
			}
			body, err := readFrame(bufio.NewReader(bytes.NewReader(want)), nil)
			if err != nil {
				t.Fatal(err)
			}
			if back, err := decodeAck(body); err != nil || back != ack {
				t.Fatalf("decodeAck = %+v, %v; want %+v", back, err, ack)
			}
			if _, err := decodeAck(append(body, 0)); !errors.Is(err, errTrailing) {
				t.Fatalf("%+v with a trailing byte: err %v", ack, err)
			}
		}
	}
	open, _ := appendEnvelope(nil, Envelope{Src: src, Dst: dst, Msg: StreamOpen{Stream: 1, Next: 1}})
	if _, err := decodeAck(open); !errors.Is(err, errTag) {
		t.Fatalf("a StreamOpen read as an ack: err %v", err)
	}
}

// TestAckFrameAllocatesNothing: a stream acknowledgement is framed by
// the receiver and read back by the sender's ack reader, which checks
// its stream, without one allocation; an ack of another stream is
// refused.
func TestAckFrameAllocatesNothing(t *testing.T) {
	ps := &peerSender{t: &TCPTransport{stream: 1<<62 + 3}}
	ack := StreamAck{Stream: ps.t.stream, Seq: 1 << 40, Fresh: true}
	var out, body []byte
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	read := func(sent StreamAck) (got StreamAck, err error) {
		out = appendAckFrame(out[:0], bN(), a(), sent)
		rd.Reset(out)
		br.Reset(rd)
		got, body, err = ps.readAck(br, body)
		return got, err
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if got, err := read(ack); err != nil || got != ack {
			t.Fatalf("read %+v, %v; want %+v", got, err, ack)
		}
	})
	if allocs != 0 {
		t.Fatalf("an ack frame's encode and read cost %v allocations, want 0", allocs)
	}
	if _, err := read(StreamAck{Stream: ack.Stream + 1}); !errors.Is(err, errTag) {
		t.Fatalf("an ack of another stream: err %v", err)
	}
}

func BenchmarkEnvelopeEncode(b *testing.B) {
	for _, bc := range benchEnvelopes() {
		b.Run(bc.name, func(b *testing.B) {
			buf, _ := appendFrame(nil, bc.env)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = appendFrame(buf[:0], bc.env)
			}
		})
	}
}

// BenchmarkEnvelopeDecode decodes each shape and gives a pooled box
// back, as a live node's event loop does after OnMessage.
func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, bc := range benchEnvelopes() {
		b.Run(bc.name, func(b *testing.B) {
			body, _ := appendEnvelope(nil, bc.env)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env, err := decodeEnvelope(body)
				if err != nil {
					b.Fatal(err)
				}
				reclaim(env.Msg)
			}
		})
	}
}
