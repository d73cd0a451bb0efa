package oracle

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestRecordRoundTrip: every protocol event the live journal carries
// maps to a record and, through its JSON line, back to the same event
// field for field, so the live journal and the online oracle read one
// stream. The trace points and piggyback sends map to no record.
func TestRecordRoundTrip(t *testing.T) {
	id, peer := node(1, 0), node(0, 1)
	v := ddv(4, 2)
	for _, ev := range []core.Event{
		{Kind: core.EventNodeStart, Mode: core.ModeHC3I},
		{Kind: core.EventNodeStart, Mode: core.ModeForceAll},
		{Kind: core.EventNodeStart, Mode: core.ModeIndependent},
		{Kind: core.EventCLCCommitted, Seq: 4, Epoch: 1, DDV: v, Forced: true},
		{Kind: core.EventCLCCommitted, Seq: 5, Epoch: 2, DDV: v},
		{Kind: core.EventRestore, Seq: 3, Epoch: 2, DDV: v},
		{Kind: core.EventDeliver, Peer: peer, PeerEpoch: 1, Seq: 7, Epoch: 2, SN: 5},
		{Kind: core.EventGCDrop, Round: 3, DDV: v},
		{Kind: core.EventGCDrop, DDV: v}, // a journal from before rounds were recorded
	} {
		rec, ok := Record(id, ev)
		if !ok {
			t.Fatalf("%v: no journal record", ev)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var line Event
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		if got, err := line.NodeID(); err != nil || got != id {
			t.Errorf("%s: record of %v names node %q", line.Kind, id, line.Node)
		}
		got, ok := line.Observation()
		if !ok || !reflect.DeepEqual(got, ev) {
			t.Errorf("%s: %+v came back as %+v (ok=%v)", line.Kind, ev, got, ok)
		}
	}

	// A commit's delta pairs are a wire shortcut: the record keeps the
	// dense vector, which is all the oracle needs.
	rec, _ := Record(id, core.Event{Kind: core.EventCLCCommitted, Seq: 4, DDV: v,
		Pairs: []core.DDVPair{{Idx: 0, SN: 4}}})
	if got, _ := rec.Observation(); got.Pairs != nil || !got.DDV.Equal(v) {
		t.Errorf("commit with pairs came back as %+v", got)
	}

	journaled := map[core.EventKind]bool{core.EventNodeStart: true, core.EventCLCCommitted: true,
		core.EventRestore: true, core.EventDeliver: true, core.EventGCDrop: true}
	for k := core.EventKind(1); k != 0; k++ {
		ev := core.Event{Kind: k, DDV: v}
		if rec, ok := Record(id, ev); ok != journaled[k] {
			t.Errorf("kind %d (%v) maps to record %q", k, ev, rec.Kind)
		}
	}
	for _, kind := range []string{"send", "hello", "suspect", "drop", "stop"} {
		if ev, ok := (Event{Kind: kind}).Observation(); ok {
			t.Errorf("runtime record %q maps to protocol event %v", kind, ev)
		}
	}
}
