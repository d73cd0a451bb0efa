package oracle

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// journalRecords is one record of each kind the live journal writes:
// Record's five, shaped the way the runtime completes a start record,
// and the runtime's own send, drop, hello, suspect and stop records.
func journalRecords() []Event {
	names := topology.NewNameTable([]int{3, 2})
	id, peer := node(1, 0), node(0, 2)
	v := ddv(4, 2)
	var recs []Event
	for _, ev := range []core.Event{
		{Kind: core.EventNodeStart, Mode: core.ModeIndependent},
		{Kind: core.EventCLCCommitted, Seq: 4, Epoch: 1, DDV: v, Forced: true},
		{Kind: core.EventRestore, Seq: 3, Epoch: 2, DDV: v},
		{Kind: core.EventDeliver, Peer: peer, PeerEpoch: 1, Seq: 7, Epoch: 2, SN: 5},
		{Kind: core.EventGCDrop, Round: 3, DDV: v},
	} {
		rec, _ := Record(names, id, ev)
		if rec.Kind == "start" {
			rec.Clusters, rec.Recovering = []int{3, 2}, true
		}
		recs = append(recs, rec)
	}
	return append(recs,
		Event{Node: "c1n0", Kind: "send", Dst: "c1n1", Msg: "CLCRequest"},
		Event{Node: "c1n0", Kind: "drop", Dst: "c0n2", Msg: "ForceCLC"},
		Event{Node: "c1n0", Kind: "hello", Dst: "c1n1"},
		Event{Node: "c1n1", Kind: "hello", Src: "c1n0"},
		Event{Node: "c0n2", Kind: "suspect"},
		Event{Node: "c1n0", Kind: "stop", Stats: map[string]uint64{"core.clc_committed": 12, "live.send_dropped": 0}},
	)
}

// FuzzEventAppendJSON: AppendJSON writes what json.Marshal writes,
// byte for byte, for any record (fuzzRecord builds it from the input).
func FuzzEventAppendJSON(f *testing.F) {
	// Each odd string holds one kind of byte that json.Marshal escapes.
	for _, rec := range append(journalRecords(),
		Event{T: -1, Node: "a&b", Kind: "x<y", Clusters: []int{-3, 0, 1 << 40}, Mode: "nul\x00",
			Src: `q"uote`, Msg: "bad\xffutf8", Dst: "line\u2028sep\u2029",
			Stats: map[string]uint64{"x>y": 1, `back\slash`: 2, "tab\t": 3, "é": 4, "": 0}},
		Event{Node: "c0n0", Kind: "commit", Clusters: []int{}, DDV: []uint64{}, MinSNs: []uint64{1<<64 - 1},
			Stats: map[string]uint64{}},
	) {
		f.Add(fuzzInput(rec))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rec := fuzzRecord(in)
		checkAppendJSON(t, &rec)
	})
}

// checkAppendJSON compares AppendJSON with json.Marshal, on an empty
// buffer and after a prefix.
func checkAppendJSON(t *testing.T, rec *Event) {
	t.Helper()
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON of %+v:\n got %s\nwant %s", rec, got, want)
	}
	if got := rec.AppendJSON([]byte("x")); !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Fatalf("AppendJSON after a prefix of %+v: %s", rec, got)
	}
}

// fuzzRecord decodes FuzzEventAppendJSON's input: the fields in
// declaration order, integers as 8-byte little-endian words, bools as
// one byte, strings as a length byte and their bytes, and slices and
// Stats as a count byte (0 is nil, n+1 is n entries) and their entries.
// Input that runs out reads as zero bytes. fuzzInput encodes.
func fuzzRecord(in []byte) Event {
	r := fuzzReader{in}
	rec := Event{T: int64(r.word()), Node: r.str(), Kind: r.str()}
	if n := r.count(); n >= 0 {
		rec.Clusters = make([]int, n)
		for i := range rec.Clusters {
			rec.Clusters[i] = int(int64(r.word()))
		}
	}
	rec.Mode, rec.Recovering = r.str(), r.bool()
	rec.Seq, rec.Epoch, rec.DDV, rec.Forced = r.word(), r.word(), r.words(), r.bool()
	rec.Src, rec.SrcEpoch, rec.SendSN, rec.RecvEpoch, rec.RecvSN = r.str(), r.word(), r.word(), r.word(), r.word()
	rec.Round, rec.MinSNs, rec.Msg, rec.Dst = r.word(), r.words(), r.str(), r.str()
	if n := r.count(); n >= 0 {
		rec.Stats = make(map[string]uint64, n)
		for ; n > 0; n-- {
			k := r.str()
			rec.Stats[k] = r.word()
		}
	}
	return rec
}

type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) word() uint64 {
	var w [8]byte
	r.b = r.b[copy(w[:], r.b):]
	return binary.LittleEndian.Uint64(w[:])
}

func (r *fuzzReader) bool() bool { return r.byte()&1 != 0 }

// count is a slice's length, -1 for nil.
func (r *fuzzReader) count() int { return int(r.byte()) - 1 }

func (r *fuzzReader) str() string {
	n := min(int(r.byte()), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *fuzzReader) words() []uint64 {
	n := r.count()
	if n < 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.word()
	}
	return out
}

// fuzzInput encodes rec as fuzzRecord reads it. Every string, slice
// and map must be shorter than 255.
func fuzzInput(rec Event) []byte {
	var b []byte
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) { b = append(append(b, byte(len(s))), s...) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	count := func(n int, isNil bool) {
		if isNil {
			n = -1
		}
		b = append(b, byte(n+1))
	}
	words := func(vs []uint64) {
		count(len(vs), vs == nil)
		for _, v := range vs {
			word(v)
		}
	}
	word(uint64(rec.T))
	str(rec.Node)
	str(rec.Kind)
	count(len(rec.Clusters), rec.Clusters == nil)
	for _, v := range rec.Clusters {
		word(uint64(v))
	}
	str(rec.Mode)
	flag(rec.Recovering)
	word(rec.Seq)
	word(rec.Epoch)
	words(rec.DDV)
	flag(rec.Forced)
	str(rec.Src)
	for _, v := range []uint64{rec.SrcEpoch, rec.SendSN, rec.RecvEpoch, rec.RecvSN, rec.Round} {
		word(v)
	}
	words(rec.MinSNs)
	str(rec.Msg)
	str(rec.Dst)
	count(len(rec.Stats), rec.Stats == nil)
	keys := make([]string, 0, len(rec.Stats))
	for k := range rec.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		str(k)
		word(rec.Stats[k])
	}
	return b
}

// TestFuzzInputRoundTrip: each fuzz seed is the record it was made
// from.
func TestFuzzInputRoundTrip(t *testing.T) {
	for _, rec := range journalRecords() {
		if got := fuzzRecord(fuzzInput(rec)); !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: %+v came back as %+v", rec.Kind, rec, got)
		}
	}
}
