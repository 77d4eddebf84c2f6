package netem

import (
	"slices"
	"testing"
	"time"

	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/wire"
)

func testFrame(src, dst wire.IP, payload int) *wire.Frame {
	return &wire.Frame{
		IP:         wire.IPv4Header{TTL: 64, Protocol: wire.ProtocolTCP, Src: src, Dst: dst},
		TCP:        wire.TCPHeader{SrcPort: 40000, DstPort: 443, Flags: wire.FlagACK},
		PayloadLen: payload,
	}
}

func newNet() (*simtime.Scheduler, *Network) {
	sched := simtime.NewScheduler()
	return sched, New(sched, simrand.New(1, "test"))
}

func TestDeliveryWithDelays(t *testing.T) {
	sched, n := newNet()
	n.SetCoreDelay("campus", "dc", 45*time.Millisecond)
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{Delay: time.Millisecond})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{Delay: time.Millisecond})

	var arrived simtime.Time
	got := 0
	b.Receive = func(now simtime.Time, f *wire.Frame) {
		arrived = now
		got++
	}
	a.Send(testFrame(a.IP, b.IP, 100))
	sched.Run()
	if got != 1 {
		t.Fatalf("delivered %d frames", got)
	}
	// 1ms + 45ms(+ <=0.2% jitter) + 1ms = ~47ms
	lo, hi := 47*time.Millisecond, 48*time.Millisecond
	if d := arrived.Duration(); d < lo || d > hi {
		t.Fatalf("arrival at %v, want in [%v,%v]", d, lo, hi)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{})
	a.Send(testFrame(a.IP, wire.MakeIP(1, 2, 3, 4), 10))
	sched.Run()
	if drop := n.dropped; drop != 1 {
		t.Fatalf("dropped = %d", drop)
	}
}

func TestUplinkSerialization(t *testing.T) {
	sched, n := newNet()
	// 10 kB/s uplink: a 1500-byte packet takes 150 ms to serialize.
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{UpRate: 10e3})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	var times []simtime.Time
	b.Receive = func(now simtime.Time, f *wire.Frame) { times = append(times, now) }
	for i := 0; i < 3; i++ {
		a.Send(testFrame(a.IP, b.IP, wire.MSS))
	}
	sched.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1].Sub(times[0])
	want := time.Duration(float64(wire.MSS+wire.HeadersLen) / 10e3 * float64(time.Second))
	if gap < want-time.Millisecond || gap > want+5*time.Millisecond {
		t.Fatalf("serialization gap = %v, want ≈ %v", gap, want)
	}
}

func TestFIFOOrdering(t *testing.T) {
	sched, n := newNet()
	n.SetCoreDelay("campus", "dc", 45*time.Millisecond)
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	var seqs []uint32
	b.Receive = func(now simtime.Time, f *wire.Frame) { seqs = append(seqs, f.TCP.Seq) }
	for i := 0; i < 200; i++ {
		f := testFrame(a.IP, b.IP, 100)
		f.TCP.Seq = uint32(i)
		a.Send(f)
	}
	sched.Run()
	if len(seqs) != 200 {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i := range seqs {
		if seqs[i] != uint32(i) {
			t.Fatalf("reordered delivery at %d: %d", i, seqs[i])
		}
	}
}

type recordingTap struct {
	caps []struct {
		at  simtime.Time
		dir TapDir
		len int
	}
}

func (r *recordingTap) Capture(now simtime.Time, f *wire.Frame, dir TapDir) {
	r.caps = append(r.caps, struct {
		at  simtime.Time
		dir TapDir
		len int
	}{now, dir, f.WireLen()})
}

func TestTapSeesBothDirections(t *testing.T) {
	sched, n := newNet()
	n.SetCoreDelay("campus", "dc", 45*time.Millisecond)
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{Delay: 3 * time.Millisecond})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	tap := &recordingTap{}
	n.AttachTap("campus", tap)

	b.Receive = func(now simtime.Time, f *wire.Frame) {
		reply := testFrame(b.IP, a.IP, 50)
		b.Send(reply)
	}
	a.Receive = func(now simtime.Time, f *wire.Frame) {}
	a.Send(testFrame(a.IP, b.IP, 100))
	sched.Run()

	if len(tap.caps) != 2 {
		t.Fatalf("tap captured %d frames, want 2", len(tap.caps))
	}
	if tap.caps[0].dir != TapOutbound || tap.caps[1].dir != TapInbound {
		t.Fatalf("directions = %v,%v", tap.caps[0].dir, tap.caps[1].dir)
	}
	// Probe-visible RTT excludes the client access segment: roughly
	// 2*45ms core (+jitter, + server access 0.1ms*2), NOT 2*48ms.
	rtt := tap.caps[1].at.Sub(tap.caps[0].at)
	if rtt < 90*time.Millisecond || rtt > 92*time.Millisecond {
		t.Fatalf("probe RTT = %v, want ≈ 90ms", rtt)
	}
}

func TestAccessLoss(t *testing.T) {
	sched, n := newNet()
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{Loss: 1.0})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	got := 0
	b.Receive = func(simtime.Time, *wire.Frame) { got++ }
	for i := 0; i < 10; i++ {
		a.Send(testFrame(a.IP, b.IP, 10))
	}
	sched.Run()
	if got != 0 {
		t.Fatalf("loss=1.0 delivered %d", got)
	}
	if drop := n.dropped; drop != 10 {
		t.Fatalf("dropped = %d", drop)
	}
}

func TestCoreLossStatistical(t *testing.T) {
	sched, n := newNet()
	n.SetCoreLoss(0.3)
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	got := 0
	b.Receive = func(simtime.Time, *wire.Frame) { got++ }
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(testFrame(a.IP, b.IP, 10))
	}
	sched.Run()
	if got < total*55/100 || got > total*85/100 {
		t.Fatalf("with 30%% loss, delivered %d/%d", got, total)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	_, n := newNet()
	n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate host should panic")
		}
	}()
	n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{})
}

func TestAccessProfilesSane(t *testing.T) {
	for _, p := range []AccessProfile{WiredWorkstation(), CampusWireless(), DataCenter()} {
		if p.Loss < 0 || p.Loss > 0.05 {
			t.Fatalf("profile loss out of range: %+v", p)
		}
	}
}

// countingTap counts captures without allocating.
type countingTap struct{ n int }

func (c *countingTap) Capture(simtime.Time, *wire.Frame, TapDir) { c.n++ }

// TestNetworkSteadyStateAllocs: once the packet pool and the scheduler are
// warm, forwarding a frame past a tap allocates nothing.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	sched, n := newNet()
	n.SetCoreDelay("campus", "dc", 45*time.Millisecond)
	tap := &countingTap{}
	n.AttachTap("campus", tap) // outbound captures
	n.AttachTap("dc", tap)     // inbound captures
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{UpRate: 1e6, Delay: time.Millisecond})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{DownRate: 1e6})
	got := 0
	b.Receive = func(simtime.Time, *wire.Frame) { got++ }
	f := testFrame(a.IP, b.IP, wire.MSS)
	send := func() {
		for i := 0; i < 8; i++ {
			f.TCP.Seq = uint32(i)
			a.Send(f)
		}
		sched.Run()
	}
	send() // warm-up
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("%.1f allocations per 8 forwarded frames, want 0", allocs)
	}
	// AllocsPerRun calls send once more than it measures.
	if got != 8*102 || tap.n != 2*8*102 {
		t.Fatalf("delivered %d, tapped %d", got, tap.n)
	}
}

// headerTap records the headers it captures.
type headerTap struct{ seen []wire.TCPHeader }

func (h *headerTap) Capture(_ simtime.Time, f *wire.Frame, _ TapDir) { h.seen = append(h.seen, f.TCP) }

// TestCoreLossKeepsOutboundCapture: a frame lost in the core still reaches
// the source site's tap, with its own header, although Send has returned,
// the caller has rewritten its frame, and later sends reuse packets.
func TestCoreLossKeepsOutboundCapture(t *testing.T) {
	sched, n := newNet()
	n.SetCoreLoss(1.0)
	tap := &headerTap{}
	n.AttachTap("campus", tap)
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{Delay: time.Millisecond})
	b := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	b.Receive = func(simtime.Time, *wire.Frame) { t.Fatal("delivered with core loss 1.0") }
	var want []wire.TCPHeader
	f := testFrame(a.IP, b.IP, 10)
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 5; i++ {
			f.TCP.Seq, f.TCP.Ack = uint32(100*burst+i), uint32(burst)
			want = append(want, f.TCP)
			a.Send(f)
		}
		sched.Run()
		if len(n.free) != 5 {
			t.Fatalf("burst %d: %d packets pooled, want the 5 the first burst allocated", burst, len(n.free))
		}
	}
	if !slices.Equal(tap.seen, want) {
		t.Fatalf("tap saw %v, want %v", tap.seen, want)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sched, n := newNet()
	n.SetCoreDelay("campus", "dc", 45*time.Millisecond)
	a := n.AddHost(wire.MakeIP(10, 0, 0, 1), "campus", AccessProfile{})
	dst := n.AddHost(wire.MakeIP(184, 0, 0, 1), "dc", AccessProfile{})
	dst.Receive = func(simtime.Time, *wire.Frame) {}
	f := testFrame(a.IP, dst.IP, wire.MSS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(f)
		if i%1024 == 0 {
			sched.Run()
		}
	}
	sched.Run()
}
