package runtime

import (
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
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

func nid(c, i int) topology.NodeID { return topology.NodeID{Cluster: topology.ClusterID(c), Index: i} }

// appState builds a state with n deliveries.
func appState(sent uint64, n int) AppState {
	s := AppState{Sent: sent, Delivered: make(map[core.LogicalID]int, n)}
	for i := 0; i < n; i++ {
		s.Delivered[core.LogicalID{Src: nid(i%3, i%5), Seq: uint64(1000 + i)}] = 1 + i%4
	}
	return s
}

func testChain() core.Chain {
	return core.Chain{Anchor: core.DDV{4, 0, 9}, Recs: []core.ChainRec{
		{SN: 4, Pairs: []core.DDVPair{{Idx: 2, SN: 9}}},
		{SN: 5, Pairs: []core.DDVPair{{Idx: 0, SN: 5}, {Idx: 1, SN: 1 << 40}}},
	}}
}

func testLog() core.LogMirror {
	return core.LogMirror{Owner: nid(1, 2), MsgID: 77, Dst: nid(0, 1),
		Payload: core.AppPayload{ID: core.LogicalID{Src: nid(1, 2), Seq: 12}, Size: 256},
		PiggySN: 6, PiggyDDV: core.DDV{3, 6}, Epoch: 2}
}

func testReport() core.GCReport {
	return core.GCReport{Round: 3, Cluster: 1, Epoch: 2, Chain: testChain(),
		CurPairs: []core.DDVPair{{Idx: 1, SN: 7}}}
}

// wireRows holds one fully populated value of every message type the
// codec carries (every slice non-empty, every field non-zero where it
// can be); the Replica's state has entries deliveries.
func wireRows(entries int) []core.Msg {
	pairs := []core.DDVPair{{Idx: 0, SN: 3}, {Idx: 2, SN: 1<<63 + 5}}
	return []core.Msg{
		core.AppMsg{MsgID: 1 << 50, Payload: core.AppPayload{ID: core.LogicalID{Src: nid(0, 1), Seq: 9}, Size: 256},
			SrcCluster: 1, SrcEpoch: 3, SendSN: 8, PiggyDDV: core.DDV{8, 2}, PiggyPairs: pairs,
			PiggyWidth: -2, Resend: true, DstEpoch: 4},
		core.AppAck{MsgID: 5, SrcCluster: 2, SrcEpoch: 1, ReceiverSN: 6},
		core.CLCRequest{Seq: 7, Epoch: 1, Forced: true, DDVUpdate: core.DDV{7, 3}, UpdatePairs: pairs, UpdateWidth: 2},
		core.CLCAck{Seq: 7, Epoch: 1, NodeDDV: core.DDV{7, 3}, NodePairs: pairs},
		core.CLCCommit{Seq: 7, Epoch: 1, DDV: core.DDV{7, 3}, Pairs: pairs, Width: 2},
		core.ForceCLC{Epoch: 2, NewDDV: core.DDV{1, 9}, Pairs: pairs, Width: 2, Always: true},
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
// decode intact, encodes without allocating into a buffer that has
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
	rows := map[string]bool{}
	for _, m := range wireRows(1) {
		rows[typeName(m)] = true
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
	if found != len(rows)-1 { // -1: Hello lives in this package
		t.Errorf("messages.go has %d message types, the codec table %d", found, len(rows)-1)
	}
}

// TestEnvelopeEmptyDecodesNil: empty slices and maps arrive as nil,
// which is what live nodes have always been handed.
func TestEnvelopeEmptyDecodesNil(t *testing.T) {
	env := Envelope{Msg: core.RecoverStateResp{
		State: AppState{Delivered: map[core.LogicalID]int{}},
		Chain: core.Chain{Anchor: core.DDV{}, Recs: []core.ChainRec{{SN: 1, Pairs: []core.DDVPair{}}}},
		Older: []core.OlderState{}, Log: []core.LogMirror{}}}
	want := Envelope{Msg: core.RecoverStateResp{State: AppState{},
		Chain: core.Chain{Recs: []core.ChainRec{{SN: 1}}}}}
	if back := roundTrip(t, env); !reflect.DeepEqual(back, want) {
		t.Fatalf("got %+v, want %+v", back, want)
	}
	env = Envelope{Msg: core.AppMsg{PiggyDDV: core.DDV{}, PiggyPairs: []core.DDVPair{}}}
	if back := roundTrip(t, env); !reflect.DeepEqual(back, Envelope{Msg: core.AppMsg{}}) {
		t.Fatalf("got %+v, want nil slices", back)
	}
}

type unknownMsg struct{}

func (unknownMsg) ProtocolMessage() {}

// TestEnvelopeCodecRefuses: what the codec cannot carry is an encode
// error that leaves the buffer as it was, and hostile bodies are decode
// errors, never panics.
func TestEnvelopeCodecRefuses(t *testing.T) {
	prefix := []byte("keep")
	for _, m := range []core.Msg{
		nil, unknownMsg{}, &core.AppMsg{},
		core.AppMsg{Payload: core.AppPayload{Data: "opaque"}},
		core.Replica{State: "not an AppState"},
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
		"2^40 map":       binary.AppendUvarint(append(head, tagReplica, 1, 1, 0, 0, stateApp, 0), 1<<40),
		"int32 overflow": binary.AppendVarint(append(head, tagCLCAck, 1, 1, 0, 1), 1<<40),
		"varint overrun": append(head, tagGCRequest, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		if _, err := decodeEnvelope(body); err == nil {
			t.Errorf("%s: decoded", name)
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
		b := Envelope{Src: nid(1, 1), Dst: nid(1, 0), Msg: core.CLCCommit{Seq: 99, DDV: core.DDV{99, 99, 99}}}
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
	})
}

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
// AppMsg, an inter-cluster one with a 2-wide piggybacked DDV, and a
// checkpoint Replica whose state holds 50 000 deliveries.
func benchEnvelopes() []struct {
	name string
	env  Envelope
} {
	payload := core.AppPayload{ID: core.LogicalID{Src: nid(0, 1), Seq: 123456}, Size: 256}
	return []struct {
		name string
		env  Envelope
	}{
		{"intra", Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: core.AppMsg{MsgID: 123456, Payload: payload, SendSN: 17}}},
		{"inter", Envelope{Src: nid(0, 1), Dst: nid(1, 0), Msg: core.AppMsg{MsgID: 123456, Payload: payload,
			SendSN: 17, SrcEpoch: 1, PiggyDDV: core.DDV{17, 9}, DstEpoch: 1}}},
		{"replica50k", Envelope{Src: nid(0, 1), Dst: nid(0, 0), Msg: core.Replica{Seq: 17, Owner: nid(0, 1),
			State: appState(50_000, 50_000), Size: 1024}}},
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

func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, bc := range benchEnvelopes() {
		b.Run(bc.name, func(b *testing.B) {
			body, _ := appendEnvelope(nil, bc.env)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decodeEnvelope(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
