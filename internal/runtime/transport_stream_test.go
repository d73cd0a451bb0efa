package runtime

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
)

// recorder registers a thread-safe delivery recorder for id on tr. It
// gives every delivered box back, as a node's event loop does.
func recorder(t *testing.T, tr *TCPTransport, id topology.NodeID) func() []uint64 {
	t.Helper()
	var mu sync.Mutex
	var got []uint64
	retryAddrInUse(t, func() error {
		return tr.Register(id, func(env Envelope) {
			mu.Lock()
			got = append(got, env.Msg.(*core.AppMsg).MsgID)
			mu.Unlock()
			reclaim(env.Msg)
		})
	})
	return func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), got...)
	}
}

// retryAddrInUse runs bind until it succeeds, retrying for up to five
// seconds while it fails with EADDRINUSE. A fixed test port released
// by reservePorts (or by a previous listener) can be held for a moment
// by the ephemeral end of some outbound connection, such as another
// package's test dialing in parallel.
func retryAddrInUse(t *testing.T, bind func() error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := bind()
		if err == nil {
			return
		}
		if !errors.Is(err, syscall.EADDRINUSE) || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendRange sends pooled AppMsgs with IDs from..to from a() to bN().
func sendRange(t *testing.T, tr *TCPTransport, from, to uint64) {
	t.Helper()
	for id := from; id <= to; id++ {
		if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: boxedMsg(id)}); err != nil {
			t.Fatal(err)
		}
	}
}

// wantIDs fails unless got is exactly from..to, in order.
func wantIDs(t *testing.T, got []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(got)) != to-from+1 {
		t.Fatalf("delivered %d envelopes, want %d (%d..%d): %v", len(got), to-from+1, from, to, got)
	}
	for i, id := range got {
		if id != from+uint64(i) {
			t.Fatalf("delivery %d is %d, want %d (duplicate, loss or reorder)", i, id, from+uint64(i))
		}
	}
}

// cutProxy forwards every connection it accepts to target, both ways.
// The first connection is cut after the dialler has sent cut bytes: the
// bytes up to there reach target, the rest of the stream is lost, and
// both sides see the connection end.
func cutProxy(t *testing.T, target string, cut int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for first := true; ; first = false {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn, cutThis bool) {
				defer c.Close()
				u, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer u.Close()
				go io.Copy(c, u) // acknowledgements flow back untouched
				if cutThis {
					io.CopyN(u, c, cut)
					return
				}
				io.Copy(u, c)
			}(c, first)
		}
	}()
	return ln.Addr().String()
}

// TestTCPTransportResendsAcrossCut: a connection cut at a byte offset
// inside a batch — the receiver gets a torn frame, the sender's
// unacknowledged frames are lost with it — costs nothing but a resend.
// Every envelope arrives exactly once and in order over the redialled
// connection, and transport.resent counts the frames written twice.
func TestTCPTransportResendsAcrossCut(t *testing.T) {
	for _, cut := range []int64{40, 333, 1000} {
		recv := NewTCPTransport()
		got := recorder(t, recv, bN())
		proxy := cutProxy(t, recv.Addr(bN()), cut)
		sender := NewTCPTransportWith(TCPConfig{
			Addrs:      map[topology.NodeID]string{bN(): proxy},
			BackoffMin: time.Millisecond,
			BackoffMax: 5 * time.Millisecond,
		})
		const n = 500
		sendRange(t, sender, 1, n)
		waitFor(t, func() bool { return len(got()) >= n })
		// Closing both ends waits out every goroutine, so a late
		// duplicate would be in got by now.
		sender.Close()
		recv.Close()
		wantIDs(t, got(), 1, n)
		st := sender.Stats()
		if st["transport.evictions"] == 0 {
			t.Fatalf("cut at %d: the cut connection was never evicted: %v", cut, st)
		}
		if st["transport.resent"] == 0 {
			t.Fatalf("cut at %d: nothing resent across the cut: %v", cut, st)
		}
		if st["transport.dropped"] != 0 {
			t.Fatalf("cut at %d: %d envelopes dropped between live processes", cut, st["transport.dropped"])
		}
	}
}

// filledMsg is a pooled AppMsg whose every field derives from id.
func filledMsg(id uint64) *core.AppMsg {
	m := boxedMsg(id)
	m.Payload = core.AppPayload{ID: core.LogicalID{Src: a(), Seq: 3 * id}, Size: int(id % 512)}
	m.SrcCluster, m.SrcEpoch, m.SendSN = 1, core.Epoch(id%5), core.SN(id+1)
	m.PiggyPairs = []core.DDVPair{{Idx: int32(id % 4), SN: core.SN(id + 2)}}
	m.PiggyWidth, m.DstEpoch = 4, core.Epoch(id%3)
	return m
}

// TestTCPTransportPooledBoxesAcrossCut: pooled AppMsgs sent through a
// connection cut mid-stream each arrive once, in order, with every
// field intact. The sender gives a box back only when its frame leaves
// the window acknowledged, and the receiver gives each delivered box
// back at once, so boxes cycle through the pool during the run; a box
// recycled before its acknowledgement would be resent with another
// message's fields, or none.
func TestTCPTransportPooledBoxesAcrossCut(t *testing.T) {
	for _, cut := range []int64{40, 1000, 20_000} {
		recv := NewTCPTransport()
		var mu sync.Mutex
		var got []uint64
		var bad []string
		retryAddrInUse(t, func() error {
			return recv.Register(bN(), func(env Envelope) {
				m := env.Msg.(*core.AppMsg)
				want := filledMsg(m.MsgID)
				mu.Lock()
				got = append(got, m.MsgID)
				if !reflect.DeepEqual(m, want) && len(bad) < 5 {
					bad = append(bad, fmt.Sprintf("got %+v, want %+v", *m, *want))
				}
				mu.Unlock()
				reclaim(want)
				reclaim(m)
			})
		})
		proxy := cutProxy(t, recv.Addr(bN()), cut)
		sender := NewTCPTransportWith(TCPConfig{
			Addrs:      map[topology.NodeID]string{bN(): proxy},
			BackoffMin: time.Millisecond,
			BackoffMax: 5 * time.Millisecond,
		})
		const n = 1000
		for id := uint64(1); id <= n; id++ {
			if err := sender.Send(Envelope{Src: a(), Dst: bN(), Msg: filledMsg(id)}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got) >= n
		})
		sender.Close()
		recv.Close()
		mu.Lock()
		wantIDs(t, got, 1, n)
		if len(bad) > 0 {
			t.Fatalf("cut at %d: corrupt deliveries:\n%s", cut, strings.Join(bad, "\n"))
		}
		mu.Unlock()
		if st := sender.Stats(); st["transport.resent"] == 0 || st["transport.dropped"] != 0 {
			t.Fatalf("cut at %d: want resends and no drops: %v", cut, st)
		}
	}
}

// TestTCPTransportReceiverRestartDropsWritten: frames written to a
// receiver incarnation that died unacknowledged are dropped and counted
// when its successor — restarted on the same address within the send
// deadline — answers the stream's reopening with no record of it; they
// are never delivered to the successor, and later traffic flows in
// order.
func TestTCPTransportReceiverRestartDropsWritten(t *testing.T) {
	addr := reservePorts(t, 1)[0]
	cfg := TCPConfig{
		Addrs:        map[topology.NodeID]string{bN(): addr},
		SendDeadline: 10 * time.Second, // far beyond the test: no deadline drops
		BackoffMin:   time.Millisecond,
		BackoffMax:   5 * time.Millisecond,
	}
	sender := NewTCPTransportWith(cfg)
	defer sender.Close()

	// The first incarnation speaks the protocol by hand: it opens the
	// stream, reads ten frames without acknowledging any, and dies.
	var ln net.Listener
	retryAddrInUse(t, func() (err error) {
		ln, err = net.Listen("tcp", addr)
		return err
	})
	first := make(chan error, 1)
	go func() {
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			first <- err
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if !readPreamble(br) {
			first <- io.ErrUnexpectedEOF
			return
		}
		body, err := readFrame(br, nil)
		if err != nil {
			first <- err
			return
		}
		env, err := decodeEnvelope(body)
		if err != nil {
			first <- err
			return
		}
		open := env.Msg.(StreamOpen)
		reply, _ := appendFrame(nil, Envelope{Src: a(), Dst: bN(),
			Msg: StreamAck{Stream: open.Stream, Seq: open.Next - 1, Fresh: true}})
		if _, err := conn.Write(reply); err != nil {
			first <- err
			return
		}
		for i := 0; i < 10; i++ {
			if body, err = readFrame(br, body); err != nil {
				first <- err
				return
			}
		}
		first <- nil
	}()
	sendRange(t, sender, 1, 10)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	// Later frames must not be written into the dead socket too: wait
	// until the sender has seen the connection end.
	waitFor(t, func() bool { return sender.Stats()["transport.evictions"] == 1 })

	recv := NewTCPTransportWith(cfg)
	defer recv.Close()
	got := recorder(t, recv, bN())
	sendRange(t, sender, 11, 20)
	waitFor(t, func() bool { return sender.Stats()["transport.dropped"] == 10 })
	waitFor(t, func() bool { return len(got()) >= 10 })
	sender.Close()
	recv.Close()
	wantIDs(t, got(), 11, 20)
	if st := sender.Stats(); st["transport.dropped"] != 10 || st["transport.resent"] != 0 {
		t.Fatalf("want 10 dropped and none resent: %v", st)
	}
}

// TestTCPTransportRestartedSenderNotDeduplicated: a restarted sender
// opens a new stream, whose frames number from 1 again; the receiver
// must deliver them, not take them for resends of the old stream.
func TestTCPTransportRestartedSenderNotDeduplicated(t *testing.T) {
	recv := NewTCPTransport()
	defer recv.Close()
	got := recorder(t, recv, bN())
	cfg := TCPConfig{Addrs: map[topology.NodeID]string{bN(): recv.Addr(bN())}}

	first := NewTCPTransportWith(cfg)
	sendRange(t, first, 1, 5)
	waitFor(t, func() bool { return len(got()) == 5 })
	first.Close()

	second := NewTCPTransportWith(cfg)
	defer second.Close()
	sendRange(t, second, 6, 10)
	waitFor(t, func() bool { return len(got()) >= 10 })
	wantIDs(t, got(), 1, 10)
}

// TestTCPTransportStalledReceiverNoDrops: a receiver whose delivery
// stalls for longer than the send deadline delays acknowledgements,
// but frames written on a healthy connection are never dropped for it.
func TestTCPTransportStalledReceiverNoDrops(t *testing.T) {
	recv := NewTCPTransport()
	defer recv.Close()
	var mu sync.Mutex
	var got []uint64
	if err := recv.Register(bN(), func(env Envelope) {
		mu.Lock()
		stall := len(got) == 0
		got = append(got, env.Msg.(*core.AppMsg).MsgID)
		mu.Unlock()
		reclaim(env.Msg)
		if stall {
			time.Sleep(400 * time.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sender := NewTCPTransportWith(TCPConfig{
		Addrs:        map[topology.NodeID]string{bN(): recv.Addr(bN())},
		SendDeadline: 100 * time.Millisecond,
	})
	defer sender.Close()
	sendRange(t, sender, 1, 50)
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 50
	})
	mu.Lock()
	wantIDs(t, got, 1, 50)
	mu.Unlock()
	if st := sender.Stats(); st["transport.dropped"] != 0 || st["transport.evictions"] != 0 {
		t.Fatalf("a stalled receiver cost drops or evictions: %v", st)
	}
}

// BenchmarkTCPTransportBatch: 10 000 envelopes per op from one node to
// another over a loopback connection, until all are delivered. It
// reports allocations per op and the frames each conn.Write carried.
func BenchmarkTCPTransportBatch(b *testing.B) {
	const n = 10_000
	tr := NewTCPTransportWith(TCPConfig{QueueLen: 2 * n})
	defer tr.Close()
	var got atomic.Int64
	done := make(chan struct{}, 1)
	if err := tr.Register(bN(), func(Envelope) {
		if got.Add(1)%n == 0 {
			done <- struct{}{}
		}
	}); err != nil {
		b.Fatal(err)
	}
	var msg core.Msg = core.AppMsg{MsgID: 123456, SendSN: 17,
		Payload: core.AppPayload{ID: core.LogicalID{Src: a(), Seq: 9}, Size: 256}}
	round := func() {
		for k := 0; k < n; k++ {
			if err := tr.Send(Envelope{Src: a(), Dst: bN(), Msg: msg}); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}
	round() // dial and open the stream outside the measurement
	writes := tr.Stats()["transport.writes"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*n)/float64(tr.Stats()["transport.writes"]-writes), "frames/write")
}
