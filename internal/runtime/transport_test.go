package runtime

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/topology"
)

func a() topology.NodeID  { return topology.NodeID{Cluster: 0, Index: 0} }
func bN() topology.NodeID { return topology.NodeID{Cluster: 0, Index: 1} }

// collect registers a thread-safe recorder on the transport.
func collect(t Transport, id topology.NodeID) func() []Envelope {
	var mu sync.Mutex
	var got []Envelope
	t.Register(id, func(env Envelope) {
		mu.Lock()
		got = append(got, env)
		mu.Unlock()
	})
	return func() []Envelope {
		mu.Lock()
		defer mu.Unlock()
		return append([]Envelope(nil), got...)
	}
}

// boxedMsg and boxedAck return pooled boxes carrying id: the forms a
// live node sends (see boxes.go).
func boxedMsg(id uint64) *core.AppMsg {
	m := appMsgBoxes.Get().(*core.AppMsg)
	m.MsgID = id
	return m
}

func boxedAck(id uint64) *core.AppAck {
	m := appAckBoxes.Get().(*core.AppAck)
	m.MsgID = id
	return m
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func testTransportFIFO(t *testing.T, tr Transport) {
	t.Helper()
	defer tr.Close()
	got := collect(tr, bN())
	tr.Register(a(), func(Envelope) {})
	const n = 200
	for i := 0; i < n; i++ {
		if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedMsg(uint64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(got()) == n })
	for i, env := range got() {
		if env.Msg.(*core.AppMsg).MsgID != uint64(i+1) {
			t.Fatalf("FIFO violated at %d: %+v", i, env.Msg)
		}
		if env.Src != a() {
			t.Fatalf("source mangled: %v", env.Src)
		}
	}
}

func TestChanTransportFIFO(t *testing.T) { testTransportFIFO(t, NewChanTransport()) }
func TestTCPTransportFIFO(t *testing.T)  { testTransportFIFO(t, NewTCPTransport()) }

func testTransportDown(t *testing.T, tr Transport) {
	t.Helper()
	defer tr.Close()
	got := collect(tr, bN())
	tr.Register(a(), func(Envelope) {})

	tr.SetDown(bN(), true)
	_ = tr.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedAck(1)})
	time.Sleep(20 * time.Millisecond)
	if len(got()) != 0 {
		t.Fatal("delivered to a down node")
	}
	tr.SetDown(bN(), false)
	_ = tr.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedAck(2)})
	waitFor(t, func() bool { return len(got()) == 1 })
	if got()[0].Msg.(*core.AppAck).MsgID != 2 {
		t.Fatal("wrong message after repair")
	}

	// A down *source* is muted too.
	tr.SetDown(a(), true)
	_ = tr.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedAck(3)})
	time.Sleep(20 * time.Millisecond)
	if len(got()) != 1 {
		t.Fatal("down source delivered")
	}
}

func TestChanTransportDown(t *testing.T) { testTransportDown(t, NewChanTransport()) }
func TestTCPTransportDown(t *testing.T)  { testTransportDown(t, NewTCPTransport()) }

func TestChanTransportUnknownDestination(t *testing.T) {
	tr := NewChanTransport()
	defer tr.Close()
	tr.Register(a(), func(Envelope) {})
	if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: core.AppAck{}}); err == nil {
		t.Fatal("send to unregistered node accepted")
	}
}

func TestTransportDuplicateRegisterErrors(t *testing.T) {
	for _, tr := range []Transport{NewChanTransport(), NewTCPTransport()} {
		if err := tr.Register(a(), func(Envelope) {}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Register(a(), func(Envelope) {}); err == nil {
			t.Fatal("duplicate registration accepted")
		}
		tr.Close()
	}
}

func TestTCPTransportRegisterErrors(t *testing.T) {
	// Static topology: a node absent from the address map is refused.
	tr := NewTCPTransportWith(TCPConfig{Addrs: map[topology.NodeID]string{
		a(): "127.0.0.1:0",
	}})
	defer tr.Close()
	if err := tr.Register(bN(), func(Envelope) {}); err == nil {
		t.Fatal("registration without an address accepted")
	}
	if err := tr.Register(a(), func(Envelope) {}); err != nil {
		t.Fatal(err)
	}

	// A dead listen address surfaces as an error, not a panic.
	tr2 := NewTCPTransportWith(TCPConfig{Addrs: map[topology.NodeID]string{
		bN(): tr.Addr(a()), // already bound by tr
	}})
	defer tr2.Close()
	if err := tr2.Register(bN(), func(Envelope) {}); err == nil {
		t.Fatal("listen on an occupied port accepted")
	}
}

func TestTransportCloseIdempotent(t *testing.T) {
	for _, tr := range []Transport{NewChanTransport(), NewTCPTransport()} {
		tr.Register(a(), func(Envelope) {})
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPTransportCarriesStates(t *testing.T) {
	// Checkpoint replicas carry opaque application state through the
	// wire codec; an *app.State must round-trip intact.
	tr := NewTCPTransport()
	defer tr.Close()
	got := collect(tr, bN())
	tr.Register(a(), func(Envelope) {})

	state := &app.State{NextSend: 7, Journal: []core.LogicalID{{Src: a(), Seq: 3}, {Src: a(), Seq: 3}}}
	rep := core.Replica{Seq: 4, Owner: a(), State: state, Size: 1024}
	if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: rep}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(got()) == 1 })
	back := got()[0].Msg.(core.Replica)
	bs := back.State.(*app.State)
	if !reflect.DeepEqual(bs, state) {
		t.Fatalf("state mangled in transit: %+v", bs)
	}
}
