package tlssim

import (
	"testing"
	"testing/quick"
	"time"

	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/wire"
)

// byteTap counts payload bytes and PSH segments per direction and keeps the
// serialized first packets for DPI tests.
type byteTap struct {
	outBytes, inBytes int
	outPSH, inPSH     int
	outCaptured       []byte
	inCaptured        []byte
}

func (b *byteTap) Capture(now simtime.Time, f *wire.Frame, dir netem.TapDir) {
	if dir == netem.TapOutbound {
		b.outBytes += f.PayloadLen
		if f.TCP.Flags.Has(wire.FlagPSH) {
			b.outPSH++
		}
		if len(b.outCaptured) < 8192 {
			b.outCaptured = append(b.outCaptured, f.Payload...)
		}
	} else {
		b.inBytes += f.PayloadLen
		if f.TCP.Flags.Has(wire.FlagPSH) {
			b.inPSH++
		}
		if len(b.inCaptured) < 8192 {
			b.inCaptured = append(b.inCaptured, f.Payload...)
		}
	}
}

type world struct {
	sched          *simtime.Scheduler
	net            *netem.Network
	client, server *tcpsim.Stack
	tap            *byteTap
}

func newWorld(t testing.TB, serverIW int) *world {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simrand.New(99, "tlstest")
	n := netem.New(sched, rng)
	n.SetCoreDelay("vp", "dc", 45*time.Millisecond)
	ch := n.AddHost(wire.MakeIP(10, 0, 0, 1), "vp", netem.AccessProfile{})
	sh := n.AddHost(wire.MakeIP(184, 72, 0, 1), "dc", netem.AccessProfile{})
	tap := &byteTap{}
	n.AttachTap("vp", tap)
	return &world{
		sched:  sched,
		net:    n,
		client: tcpsim.NewStack(ch, sched, rng, tcpsim.DefaultIW),
		server: tcpsim.NewStack(sh, sched, rng, serverIW),
		tap:    tap,
	}
}

// dial sets up a client/server TLS pair on port 443 and returns both
// sessions. The server session is delivered via the returned channel-like
// pointer once accepted.
func dial(w *world) (cs *Session, ssp **Session) {
	var ss *Session
	ssp = &ss
	w.server.Listen(443, func(c *tcpsim.Conn) {
		ss = NewServer(c, "*.dropbox.com")
		Pair(cs, ss)
	})
	conn := w.client.Dial(w.server.Host.IP, 443)
	cs = NewClient(conn, "dl-client3.dropbox.com")
	return cs, ssp
}

func TestHandshakeCompletes(t *testing.T) {
	w := newWorld(t, 3)
	cs, ssp := dial(w)
	var clientUp, serverUp simtime.Time
	cs.OnEstablished = func() { clientUp = w.sched.Now() }
	w.sched.After(time.Millisecond, func() {}) // keep scheduler non-empty at t0
	w.sched.Run()
	if !cs.established || *ssp == nil || !(*ssp).established {
		t.Fatal("handshake incomplete")
	}
	serverUp = clientUp // client is last to establish
	_ = serverUp
	// IW=3: server flight fits in 3 segments; client established after
	// 3 RTTs (TCP + 2 TLS) ≈ 270 ms.
	if d := clientUp.Duration(); d < 270*time.Millisecond || d > 290*time.Millisecond {
		t.Fatalf("client established at %v, want ≈ 272 ms (3 RTTs)", d)
	}
}

func TestSmallServerIWAddsRTT(t *testing.T) {
	// IW=2: 4031-byte server flight needs two windows -> one extra RTT,
	// the pre-1.4.0 behaviour the paper describes in Appendix A.4.
	w := newWorld(t, 2)
	cs, _ := dial(w)
	var clientUp simtime.Time
	cs.OnEstablished = func() { clientUp = w.sched.Now() }
	w.sched.Run()
	if d := clientUp.Duration(); d < 360*time.Millisecond || d > 390*time.Millisecond {
		t.Fatalf("client established at %v, want ≈ 363 ms (4 RTTs)", d)
	}
}

func TestHandshakeByteBudget(t *testing.T) {
	w := newWorld(t, 3)
	cs, _ := dial(w)
	done := false
	cs.OnEstablished = func() { done = true }
	w.sched.Run()
	if !done {
		t.Fatal("no handshake")
	}
	if w.tap.outBytes != ClientHandshakeBytes {
		t.Fatalf("client handshake bytes = %d, want %d", w.tap.outBytes, ClientHandshakeBytes)
	}
	if w.tap.inBytes != ServerHandshakeBytes {
		t.Fatalf("server handshake bytes = %d, want %d", w.tap.inBytes, ServerHandshakeBytes)
	}
	if ClientHandshakeBytes != 294 || ServerHandshakeBytes != 4103 {
		t.Fatalf("sizes diverge from the paper: %d/%d", ClientHandshakeBytes, ServerHandshakeBytes)
	}
}

func TestDPIExtraction(t *testing.T) {
	w := newWorld(t, 3)
	cs, _ := dial(w)
	cs.OnEstablished = func() {}
	w.sched.Run()
	sni, ok := wire.ExtractSNI(w.tap.outCaptured)
	if !ok || sni != "dl-client3.dropbox.com" {
		t.Fatalf("SNI = %q %v", sni, ok)
	}
	cn, ok := wire.ExtractCertName(w.tap.inCaptured)
	if !ok || cn != "*.dropbox.com" {
		t.Fatalf("cert = %q %v", cn, ok)
	}
}

func TestMessageExchange(t *testing.T) {
	w := newWorld(t, 3)
	cs, ssp := dial(w)
	type rec struct {
		meta any
		size int
	}
	var serverGot, clientGot []rec
	cs.OnMessage = func(meta any, size int) { clientGot = append(clientGot, rec{meta, size}) }
	cs.OnEstablished = func() {
		ss := *ssp
		ss.OnMessage = func(meta any, size int) {
			serverGot = append(serverGot, rec{meta, size})
			ss.Send("ok:"+meta.(string), 309)
		}
		cs.Send("store-1", 65000)
		cs.Send("store-2", 1200)
	}
	w.sched.Run()
	if len(serverGot) != 2 || len(clientGot) != 2 {
		t.Fatalf("messages: server %d, client %d", len(serverGot), len(clientGot))
	}
	if serverGot[0].meta != "store-1" || serverGot[0].size != 65000 {
		t.Fatalf("server msg0 = %+v", serverGot[0])
	}
	if serverGot[1].meta != "store-2" || serverGot[1].size != 1200 {
		t.Fatalf("server msg1 = %+v", serverGot[1])
	}
	if clientGot[0].meta != "ok:store-1" || clientGot[0].size != 309 {
		t.Fatalf("client msg0 = %+v", clientGot[0])
	}
}

func TestSendPartsPSHCount(t *testing.T) {
	w := newWorld(t, 3)
	cs, ssp := dial(w)
	got := 0
	cs.OnEstablished = func() {
		(*ssp).OnMessage = func(meta any, size int) { got = size }
		cs.SendParts("retrieve-req", 380, 2)
	}
	w.sched.Run()
	if got != 380 {
		t.Fatalf("message size = %d", got)
	}
	// Client PSH segments: hello, finish, and 2 for the two-part message.
	if w.tap.outPSH != 4 {
		t.Fatalf("client PSH segments = %d, want 4", w.tap.outPSH)
	}
}

func TestCloseNotifySequence(t *testing.T) {
	w := newWorld(t, 3)
	cs, ssp := dial(w)
	var events []string
	cs.OnPeerAlert = func() { events = append(events, "alert") }
	cs.OnPeerClose = func() {
		events = append(events, "fin")
		cs.Abort() // the client RST of Fig. 19
	}
	cs.OnEstablished = func() {
		ss := *ssp
		ss.OnReset = func() { events = append(events, "server-reset") }
		ss.CloseNotify()
	}
	w.sched.Run()
	if len(events) != 3 || events[0] != "alert" || events[1] != "fin" || events[2] != "server-reset" {
		t.Fatalf("teardown events = %v", events)
	}
}

func TestLargeMessageWireSize(t *testing.T) {
	w := newWorld(t, 3)
	cs, ssp := dial(w)
	const size = 1 << 20
	got := -1
	preBytes := 0
	cs.OnEstablished = func() {
		preBytes = w.tap.outBytes
		(*ssp).OnMessage = func(meta any, n int) { got = n }
		cs.Send("big", size)
	}
	w.sched.Run()
	if got != size {
		t.Fatalf("received %d, want %d", got, size)
	}
	sent := w.tap.outBytes - preBytes
	if sent != MessageWireSize(size) {
		t.Fatalf("wire bytes = %d, want %d", sent, MessageWireSize(size))
	}
}

func TestMessageWireSizeInverse(t *testing.T) {
	f := func(raw uint32) bool {
		size := int(raw%10_000_000) + 1
		w := MessageWireSize(size)
		return w-wireOverhead(w) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageWireSizeEdges(t *testing.T) {
	if MessageWireSize(0) != 0 {
		t.Fatal("zero message should be free")
	}
	if MessageWireSize(1) != 6 {
		t.Fatalf("1-byte message = %d, want 6", MessageWireSize(1))
	}
	if MessageWireSize(16384) != 16389 {
		t.Fatalf("one full record = %d", MessageWireSize(16384))
	}
	if MessageWireSize(16385) != 16385+10 {
		t.Fatalf("two records = %d", MessageWireSize(16385))
	}
}

func BenchmarkHandshake(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := newWorld(b, 3)
		cs, _ := dial(w)
		cs.OnEstablished = func() {}
		w.sched.Run()
		if !cs.established {
			b.Fatal("handshake failed")
		}
	}
}
