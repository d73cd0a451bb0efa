package runtime

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// reservePorts picks n free loopback addresses by binding and
// releasing them (the standard fixed-port test idiom).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestTCPTransportPeerRestart proves the tentpole's core resilience
// claim: a peer whose listener dies and comes back is survived — the
// dead connection is evicted (never permanently cached), sends during
// the outage drop after bounded backoff-paced redials, and once the
// peer returns the redial succeeds with pairwise FIFO intact for the
// new connection epoch.
func TestTCPTransportPeerRestart(t *testing.T) {
	ports := reservePorts(t, 2)
	addrs := map[topology.NodeID]string{a(): ports[0], bN(): ports[1]}
	cfg := TCPConfig{
		Addrs:        addrs,
		DialTimeout:  100 * time.Millisecond,
		SendDeadline: 250 * time.Millisecond,
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
	}
	sender := NewTCPTransportWith(cfg)
	defer sender.Close()
	if err := sender.Register(a(), func(Envelope) {}); err != nil {
		t.Fatal(err)
	}

	newReceiver := func() (*TCPTransport, func() []Envelope) {
		tr := NewTCPTransportWith(cfg)
		var mu sync.Mutex
		var got []Envelope
		if err := tr.Register(bN(), func(env Envelope) {
			mu.Lock()
			got = append(got, env)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		return tr, func() []Envelope {
			mu.Lock()
			defer mu.Unlock()
			return append([]Envelope(nil), got...)
		}
	}
	send := func(id uint64) {
		// Queue acceptance never fails here; delivery is what the
		// collectors assert.
		if err := sender.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedMsg(id)}); err != nil {
			t.Fatal(err)
		}
	}

	// Epoch 1: a batch flows normally.
	recv1, got1 := newReceiver()
	for i := uint64(1); i <= 50; i++ {
		send(i)
	}
	waitFor(t, func() bool { return len(got1()) == 50 })
	recv1.Close()

	// Outage: these sends break the cached connection, get evicted,
	// redial against nothing and drop at the deadline. (The very first
	// write can still land in the dead socket's buffer before the RST
	// arrives — TCP lets one write through after a peer close — so at
	// least 9 of the 10 must drop, and we wait out every deadline so
	// no straggler retry leaks into the next connection epoch.)
	outageStart := time.Now()
	for i := uint64(51); i <= 60; i++ {
		send(i)
	}
	waitFor(t, func() bool { return sender.Stats()["transport.dropped"] >= 9 })
	time.Sleep(time.Until(outageStart.Add(cfg.SendDeadline + 100*time.Millisecond)))
	st := sender.Stats()
	if st["transport.evictions"] == 0 {
		t.Fatal("dead connection was never evicted")
	}
	if st["transport.redials"] == 0 {
		t.Fatal("no redial attempts during the outage")
	}

	// Epoch 2: the peer restarts on the same address; the next sends
	// redial successfully and arrive in order.
	recv2, got2 := newReceiver()
	defer recv2.Close()
	for i := uint64(61); i <= 160; i++ {
		send(i)
	}
	waitFor(t, func() bool { return len(got2()) == 100 })
	for i, env := range got2() {
		if want := uint64(61 + i); env.Msg.(*core.AppMsg).MsgID != want {
			t.Fatalf("FIFO violated after reconnect at %d: got %d want %d",
				i, env.Msg.(*core.AppMsg).MsgID, want)
		}
	}
}

// TestTCPTransportTornFrame proves hostile bytes on the wire kill only
// their own connection: the reader goroutine exits without allocating
// what a frame merely claims, the accept loop keeps serving, and real
// traffic still flows after each attack.
func TestTCPTransportTornFrame(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	var mu sync.Mutex
	var got []Envelope
	if err := tr.Register(bN(), func(env Envelope) {
		mu.Lock()
		got = append(got, env)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	preamble := wirePreamble[:]
	// A well-formed CLCCommit frame whose pair list claims 2^40 entries.
	hugePairs := binary.AppendUvarint([]byte{0, 0, 0, 1, tagCLCCommit, 1, 1}, 1<<40)
	attacks := map[string][]byte{
		"garbage":              []byte("this is not a wire stream\xff\x00\x01"),
		"2^40 commit pairs":    append(binary.AppendUvarint(append([]byte(nil), preamble...), uint64(len(hugePairs))), hugePairs...),
		"2^40-byte frame":      binary.AppendUvarint(append([]byte(nil), preamble...), 1<<40),
		"60 MiB claim, 3 sent": append(binary.AppendUvarint(append([]byte(nil), preamble...), 60<<20), 1, 2, 3),
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	next := uint64(0)
	for name, attack := range attacks {
		// A rogue connection writes its bytes and half-closes; the
		// listener's reply is to close, which ends the read below.
		conn, err := net.Dial("tcp", tr.Addr(bN()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(attack); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); os.IsTimeout(err) {
			t.Fatalf("%s: the listener kept the connection open", name)
		}
		conn.Close()

		// The listener must still accept and decode fresh connections.
		next++
		if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedAck(next)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) == int(next)
		})
		if m := got[next-1].Msg.(*core.AppAck); m.MsgID != next {
			t.Fatalf("%s: wrong message after the attack: %+v", name, m)
		}
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("hostile frames cost %d bytes of allocation", grew)
	}
}

// TestTCPTransportBackoffAndSuspicion proves sends under a partition
// stay bounded: redials are backoff-paced (neither one hot loop nor a
// single stalled attempt), the envelope drops at its deadline instead
// of blocking forever, and the failure-suspicion callback fires once
// per outage episode after the threshold.
func TestTCPTransportBackoffAndSuspicion(t *testing.T) {
	ports := reservePorts(t, 2)
	suspects := make(chan topology.NodeID, 4)
	tr := NewTCPTransportWith(TCPConfig{
		Addrs:        map[topology.NodeID]string{a(): ports[0], bN(): ports[1]},
		DialTimeout:  50 * time.Millisecond,
		SendDeadline: 400 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   40 * time.Millisecond,
		SuspectAfter: 100 * time.Millisecond,
		OnSuspect:    func(peer topology.NodeID) { suspects <- peer },
	})
	defer tr.Close()
	if err := tr.Register(a(), func(Envelope) {}); err != nil {
		t.Fatal(err)
	}

	// Nobody listens on b's port: the send must redial under backoff
	// and drop at the deadline.
	if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: core.AppAck{MsgID: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return tr.Stats()["transport.dropped"] == 1 })

	redials := tr.Stats()["transport.redials"]
	// Backoff arithmetic: sleeps of 10,20,40,40,... (halved at most by
	// jitter) must fill the 400 ms deadline — between ~10 and ~25
	// attempts. Wide bounds keep CI schedulers honest without flaking.
	if redials < 3 || redials > 60 {
		t.Fatalf("redials = %d, want backoff-paced (3..60) over a 400ms deadline", redials)
	}
	select {
	case peer := <-suspects:
		if peer != bN() {
			t.Fatalf("suspected %v, want %v", peer, bN())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("suspicion callback never fired")
	}
	if n := tr.Stats()["transport.suspects"]; n != 1 {
		t.Fatalf("suspicion fired %d times for one outage episode", n)
	}
}
