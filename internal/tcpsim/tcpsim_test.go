package tcpsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/wire"
)

// testWorld wires two hosts through a 45 ms one-way core (≈90 ms RTT, the
// paper's storage path) unless the test overrides it.
type testWorld struct {
	sched          *simtime.Scheduler
	net            *netem.Network
	client, server *Stack
}

func newWorld(t testing.TB, clientAccess, serverAccess netem.AccessProfile, oneWay time.Duration) *testWorld {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simrand.New(1234, "tcptest")
	n := netem.New(sched, rng)
	n.SetCoreDelay("vp", "dc", oneWay)
	ch := n.AddHost(wire.MakeIP(10, 0, 0, 1), "vp", clientAccess)
	sh := n.AddHost(wire.MakeIP(184, 72, 0, 1), "dc", serverAccess)
	return &testWorld{
		sched:  sched,
		net:    n,
		client: NewStack(ch, sched, rng, DefaultIW),
		server: NewStack(sh, sched, rng, DefaultIW),
	}
}

func defaultWorld(t testing.TB) *testWorld {
	return newWorld(t, netem.AccessProfile{}, netem.AccessProfile{}, 45*time.Millisecond)
}

func TestHandshake(t *testing.T) {
	w := defaultWorld(t)
	var clientUp, serverUp bool
	var established simtime.Time
	w.server.Listen(443, func(c *Conn) { serverUp = true })
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnEstablished = func() { clientUp, established = true, w.sched.Now() }
	w.sched.Run()
	if !clientUp || !serverUp {
		t.Fatalf("handshake incomplete: client=%v server=%v", clientUp, serverUp)
	}
	// Client established exactly one RTT after SYN (90 ms + jitter).
	est := established.Duration()
	if est < 90*time.Millisecond || est > 95*time.Millisecond {
		t.Fatalf("client established at %v, want ≈ 90 ms", est)
	}
}

func TestDataTransferWithMaterializedPrefix(t *testing.T) {
	w := defaultWorld(t)
	var gotBytes []byte
	gotSize := 0
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			gotBytes = append(gotBytes, data...)
			gotSize += size
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	header := []byte("POST /store HTTP/1.1\r\n\r\n")
	conn.OnEstablished = func() {
		conn.Write(header, len(header)+100000, true)
	}
	w.sched.Run()
	if gotSize != len(header)+100000 {
		t.Fatalf("received %d bytes, want %d", gotSize, len(header)+100000)
	}
	if !bytes.Equal(gotBytes, header) {
		t.Fatalf("materialized prefix corrupted: %q", gotBytes)
	}
}

func TestPSHOnWriteBoundaries(t *testing.T) {
	w := defaultWorld(t)
	var pushSizes []int
	total := 0
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			total += size
			if push {
				pushSizes = append(pushSizes, total)
			}
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnEstablished = func() {
		conn.Write(nil, 5000, true) // 4 segments, PSH on last
		conn.Write(nil, 300, true)  // 1 segment, PSH
		conn.Write(nil, 2000, false)
	}
	w.sched.Run()
	if total != 7300 {
		t.Fatalf("total = %d", total)
	}
	if len(pushSizes) != 2 || pushSizes[0] != 5000 || pushSizes[1] != 5300 {
		t.Fatalf("PSH marks at %v, want [5000 5300]", pushSizes)
	}
}

func TestMaterializedBytesStartSegments(t *testing.T) {
	// Two writes, each with a materialized header: the second header must
	// arrive at the start of its own segment even though the first write's
	// virtual body is not segment-aligned.
	w := defaultWorld(t)
	type seg struct {
		data []byte
		size int
	}
	var segs []seg
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			segs = append(segs, seg{append([]byte(nil), data...), size})
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	h1, h2 := []byte("AAAA"), []byte("BBBB")
	conn.OnEstablished = func() {
		conn.Write(h1, 2001, true) // 2 segments: 1460, 541
		conn.Write(h2, 501, true)  // separate segment
	}
	w.sched.Run()
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3", len(segs))
	}
	if !bytes.Equal(segs[0].data, h1) || segs[0].size != 1460 {
		t.Fatalf("seg0 = %q/%d", segs[0].data, segs[0].size)
	}
	if len(segs[1].data) != 0 || segs[1].size != 541 {
		t.Fatalf("seg1 = %q/%d", segs[1].data, segs[1].size)
	}
	if !bytes.Equal(segs[2].data, h2) || segs[2].size != 501 {
		t.Fatalf("seg2 = %q/%d", segs[2].data, segs[2].size)
	}
}

func TestSlowStartPacing(t *testing.T) {
	// With IW=3 and no loss, transferring n segments takes
	// ceil(log2(n/3 + 1)) round trips after the handshake.
	w := defaultWorld(t)
	var done simtime.Time
	var established simtime.Time
	const size = 100 * 1460 // 100 segments
	got := 0
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			got += size
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnEstablished = func() {
		established = w.sched.Now()
		conn.Write(nil, size, true)
	}
	w.server.Listen(444, nil)
	_ = established
	w.sched.Run()
	done = w.sched.Now()
	if got != size {
		t.Fatalf("received %d, want %d", got, size)
	}
	// 100 segments, IW=3, doubling each RTT: 3,6,12,24,48 done by 5 RTTs
	// (93 cumulative), finish in 6 rounds ≈ handshake (1 RTT) + 6 RTT.
	elapsed := done.Sub(simtime.Time(0))
	minWant := 6 * 90 * time.Millisecond
	maxWant := 8 * 95 * time.Millisecond
	if elapsed < minWant || elapsed > maxWant {
		t.Fatalf("transfer took %v, want between %v and %v", elapsed, minWant, maxWant)
	}
}

func TestLossRecovery(t *testing.T) {
	w := defaultWorld(t)
	w.net.SetCoreLoss(0.02)
	const size = 500 * 1460
	got := 0
	closed := false
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) { got += size }
		c.OnPeerClose = func() { c.Close() }
		c.OnClosed = func() { closed = true }
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnEstablished = func() {
		conn.Write(nil, size, true)
		conn.Close()
	}
	w.sched.Run()
	if got != size {
		t.Fatalf("received %d bytes with 2%% loss, want %d", got, size)
	}
	if conn.retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
	if !closed {
		t.Fatal("server connection did not close")
	}
}

// TestLossRecoveryMaterializedBytes: under loss, segments buffered out of
// order keep their own payload after the network recycles their frames, so
// the receiver gets the sender's bytes exactly, in order.
func TestLossRecoveryMaterializedBytes(t *testing.T) {
	w := defaultWorld(t)
	w.net.SetCoreLoss(0.02)
	sent := make([]byte, 300*wire.MSS)
	for i := range sent {
		sent[i] = byte(i*31 + i/251)
	}
	var got []byte
	buffered := false
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			if len(data) != size {
				t.Fatalf("segment of %d bytes carried %d materialized", size, len(data))
			}
			got = append(got, data...)
			buffered = buffered || len(c.oob) > 0
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnEstablished = func() {
		conn.Write(sent, len(sent), true)
		conn.Close()
	}
	w.sched.Run()
	if !buffered || conn.retransmits == 0 {
		t.Fatalf("no out-of-order segment was buffered (%d retransmits)", conn.retransmits)
	}
	if !bytes.Equal(got, sent) {
		t.Fatalf("received %d bytes that differ from the %d sent", len(got), len(sent))
	}
}

func TestBandwidthLimit(t *testing.T) {
	// Server limited to 1.25 MB/s (10 Mbit/s): a 5 MB retrieve should take
	// roughly 4 seconds.
	w := newWorld(t, netem.AccessProfile{}, netem.AccessProfile{UpRate: 1.25e6, DownRate: 1.25e6},
		45*time.Millisecond)
	const size = 5 << 20
	got := 0
	var start, end simtime.Time
	w.server.Listen(443, func(c *Conn) {
		start = w.sched.Now()
		c.Write(nil, size, true)
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnRecv = func(data []byte, size int, push bool) {
		got += size
		end = w.sched.Now()
	}
	w.sched.Run()
	if got != size {
		t.Fatalf("received %d bytes", got)
	}
	dur := end.Sub(start).Seconds()
	rate := float64(size) / dur
	if rate > 1.3e6 || rate < 1.0e6 {
		t.Fatalf("goodput = %.0f B/s, want ≈ 1.21 MB/s", rate)
	}
}

func TestOrderlyClose(t *testing.T) {
	w := defaultWorld(t)
	events := []string{}
	w.server.Listen(443, func(c *Conn) {
		c.OnPeerClose = func() {
			events = append(events, "server-saw-fin")
			c.Close()
		}
		c.OnClosed = func() { events = append(events, "server-closed") }
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnPeerClose = func() { events = append(events, "client-saw-fin") }
	conn.OnClosed = func() { events = append(events, "client-closed") }
	conn.OnEstablished = func() {
		conn.Write(nil, 100, true)
		conn.Close()
	}
	w.sched.Run()
	want := map[string]bool{}
	for _, e := range events {
		want[e] = true
	}
	for _, e := range []string{"server-saw-fin", "server-closed", "client-saw-fin", "client-closed"} {
		if !want[e] {
			t.Fatalf("missing event %q in %v", e, events)
		}
	}
	if conn.state.String() != "Closed" {
		t.Fatalf("client state = %s", conn.state.String())
	}
}

// TestOnDrained: the callback fires once per write, when the ACK of its
// last byte arrives, and not for the FIN of a close.
func TestOnDrained(t *testing.T) {
	w := defaultWorld(t)
	w.server.Listen(443, func(c *Conn) {})
	conn := w.client.Dial(w.server.Host.IP, 443)
	var drained []simtime.Time
	conn.OnEstablished = func() {
		conn.OnDrained = func() { drained = append(drained, w.sched.Now()) }
		conn.Write(nil, 50000, true)
		w.sched.After(2*time.Second, func() { conn.Write(nil, 1000, true) })
		w.sched.After(4*time.Second, conn.Close)
	}
	w.sched.Run()
	if len(drained) != 2 {
		t.Fatalf("drained at %v, want twice", drained)
	}
	if drained[0] > simtime.Time(2*time.Second) || drained[1] < simtime.Time(2*time.Second) || drained[1] > simtime.Time(4*time.Second) {
		t.Fatalf("drained at %v, want once after each write", drained)
	}
}

func TestAbortSendsRST(t *testing.T) {
	w := defaultWorld(t)
	reset := false
	w.server.Listen(443, func(c *Conn) {
		c.OnReset = func() { reset = true }
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnEstablished = func() {
		conn.Write(nil, 10, true)
		w.sched.After(time.Second, conn.Abort)
	}
	w.sched.Run()
	if !reset {
		t.Fatal("server never saw RST")
	}
}

func TestDialNoListener(t *testing.T) {
	w := defaultWorld(t)
	reset := false
	conn := w.client.Dial(w.server.Host.IP, 9999)
	conn.OnReset = func() { reset = true }
	w.sched.Run()
	if !reset {
		t.Fatal("dialing a closed port should yield a reset")
	}
}

func TestBidirectionalEcho(t *testing.T) {
	w := defaultWorld(t)
	const n = 50000
	clientGot := 0
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			c.Write(nil, size, push) // echo sizes back
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	conn.OnRecv = func(data []byte, size int, push bool) { clientGot += size }
	conn.OnEstablished = func() { conn.Write(nil, n, true) }
	w.sched.Run()
	if clientGot != n {
		t.Fatalf("echo returned %d bytes, want %d", clientGot, n)
	}
}

func TestSequentialRequestResponseLatency(t *testing.T) {
	// The per-chunk acknowledgment pattern of the paper: each exchange
	// costs one RTT, so k exchanges cost ≈ k RTTs.
	w := defaultWorld(t)
	const rounds = 10
	count := 0
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			c.Write(nil, 309, true) // the paper's per-chunk OK overhead
		}
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	var issue func()
	issue = func() {
		conn.Write(nil, 1000, true)
	}
	conn.OnRecv = func(data []byte, size int, push bool) {
		count++
		if count < rounds {
			issue()
		}
	}
	conn.OnEstablished = issue
	w.sched.Run()
	if count != rounds {
		t.Fatalf("completed %d rounds", count)
	}
	elapsed := w.sched.Now().Duration()
	// handshake 1 RTT + 10 request/response RTTs ≈ 11 * 90ms
	if elapsed < 10*90*time.Millisecond || elapsed > 12*95*time.Millisecond {
		t.Fatalf("10 sequential exchanges took %v, want ≈ 990 ms", elapsed)
	}
}

func TestRetransmitTimeoutGivesUp(t *testing.T) {
	// 100% loss after handshake: sender should eventually give up and reset.
	sched := simtime.NewScheduler()
	rng := simrand.New(5, "t")
	n := netem.New(sched, rng)
	n.SetCoreDelay("vp", "dc", 10*time.Millisecond)
	ch := n.AddHost(wire.MakeIP(10, 0, 0, 1), "vp", netem.AccessProfile{})
	sh := n.AddHost(wire.MakeIP(184, 72, 0, 1), "dc", netem.AccessProfile{})
	client := NewStack(ch, sched, rng, DefaultIW)
	server := NewStack(sh, sched, rng, DefaultIW)
	server.Listen(443, func(c *Conn) {})
	conn := client.Dial(sh.IP, 443)
	gotReset := false
	conn.OnReset = func() { gotReset = true }
	conn.OnEstablished = func() {
		n.SetCoreLoss(1.0)
		conn.Write(nil, 5000, true)
	}
	sched.Run()
	if !gotReset {
		t.Fatal("connection should give up after repeated RTOs")
	}
	if conn.retransmits < 3 {
		t.Fatalf("expected several retransmits, got %d", conn.retransmits)
	}
}

// A stack without an initial window would stall every connection until the
// caller's time cap; it is refused when built, naming the host.
func TestNewStackRefusesEmptyWindow(t *testing.T) {
	sched := simtime.NewScheduler()
	rng := simrand.New(1, "t")
	h := netem.New(sched, rng).AddHost(wire.MakeIP(184, 72, 0, 1), "dc", netem.AccessProfile{})
	for _, iw := range []int{0, -1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "184.72.0.1") {
					t.Fatalf("NewStack(iw=%d) panic = %q, want one naming the host", iw, msg)
				}
			}()
			NewStack(h, sched, rng, iw)
		}()
	}
}

func TestConnStateString(t *testing.T) {
	states := []ConnState{stateClosed, stateSynSent, stateSynRcvd, stateEstablished,
		stateFinWait1, stateFinWait2, stateCloseWait, stateLastAck, stateClosing}
	for _, st := range states {
		if st.String() == "?" {
			t.Fatalf("state %d has no name", st)
		}
	}
}

func TestManyParallelConnections(t *testing.T) {
	w := defaultWorld(t)
	const conns = 50
	done := 0
	w.server.Listen(443, func(c *Conn) {
		c.OnRecv = func(data []byte, size int, push bool) {
			c.Write(nil, size, true)
		}
	})
	for i := 0; i < conns; i++ {
		conn := w.client.Dial(w.server.Host.IP, 443)
		conn.OnRecv = func(data []byte, size int, push bool) { done++ }
		conn.OnEstablished = func() { conn.Write(nil, 100, true) }
	}
	w.sched.Run()
	if done != conns {
		t.Fatalf("%d/%d connections completed", done, conns)
	}
}

func BenchmarkBulkTransfer1MB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := defaultWorld(b)
		got := 0
		w.server.Listen(443, func(c *Conn) {
			c.OnRecv = func(data []byte, size int, push bool) { got += size }
		})
		conn := w.client.Dial(w.server.Host.IP, 443)
		conn.OnEstablished = func() { conn.Write(nil, 1<<20, true) }
		w.sched.Run()
		if got != 1<<20 {
			b.Fatalf("received %d", got)
		}
	}
}
