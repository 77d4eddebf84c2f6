package tstat

import (
	"slices"
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

// world glues the full service + one monitored vantage point + the probe.
type world struct {
	sched    *simtime.Scheduler
	rng      *simrand.Source
	net      *netem.Network
	dir      *dnssim.Directory
	resolver *dnssim.Resolver
	svc      *dropbox.Service
	probe    *Probe
	records  []*traces.FlowRecord
	nextIP   byte
}

func newWorld(t testing.TB) *world {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simrand.New(11, "tstat-test")
	net := netem.New(sched, rng)
	net.SetCoreDelay("vp", dnssim.AmazonDC, 45*time.Millisecond)
	net.SetCoreDelay("vp", dnssim.DropboxDC, 85*time.Millisecond)
	dir := dnssim.Build(dnssim.Layout{MetaIPs: 3, NotifyIPs: 4, StorageNames: 12, StorageIPs: 8})
	svc := dropbox.NewService(dropbox.ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir,
		ServerIW: tcpsim.DefaultIW,
	})
	resolver := dnssim.NewResolver(dir, rng)
	w := &world{sched: sched, rng: rng, net: net, dir: dir, resolver: resolver, svc: svc}
	w.probe = New(sched, "test-vp")
	w.probe.OnRecord = func(r *traces.FlowRecord) { w.records = append(w.records, r) }
	resolver.Log = w.probe.ObserveDNS
	net.AttachTap("vp", w.probe)
	return w
}

func (w *world) device(t testing.TB, acct dropbox.AccountID, caps capability.Profile) *dropbox.Device {
	t.Helper()
	w.nextIP++
	ip := wire.MakeIP(10, 0, 0, w.nextIP)
	host := w.net.AddHost(ip, "vp", netem.WiredWorkstation())
	stack := tcpsim.NewStack(host, w.sched, w.rng, tcpsim.DefaultIW)
	dev, err := dropbox.NewDevice(dropbox.ClientConfig{
		Sched: w.sched, Rng: w.rng, Service: w.svc, Resolver: w.resolver,
		Stack: stack, Caps: caps,
	}, acct)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func (w *world) finish() {
	w.probe.FlushAll()
}

func refsOf(seed uint64, n, size int) []chunker.Ref {
	out := make([]chunker.Ref, 0, n)
	for i := 0; i < n; i++ {
		f := chunker.SyntheticFile{Seed: seed + uint64(i)*7919, Size: int64(size)}
		out = append(out, f.Refs()...)
	}
	return out
}

func wireID(r chunker.Ref) int { return r.Size }

// findRecords filters by a predicate.
func (w *world) find(pred func(*traces.FlowRecord) bool) []*traces.FlowRecord {
	var out []*traces.FlowRecord
	for _, r := range w.records {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

func isStorageFQDN(r *traces.FlowRecord) bool {
	return strings.HasPrefix(r.FQDN, "dl-client")
}

func TestProbeSeesUploadFlow(t *testing.T) {
	w := newWorld(t)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	const chunks = 5
	const chunkSize = 200_000
	refs := refsOf(42, chunks, chunkSize)
	w.sched.After(2*time.Second, func() { dev.Upload(acct.Root, refs, wireID, nil) })
	w.sched.RunUntil(simtime.Time(10 * time.Minute))
	w.finish()

	storage := w.find(isStorageFQDN)
	if len(storage) != 1 {
		t.Fatalf("storage flows = %d, want 1", len(storage))
	}
	r := storage[0]
	if r.CertName != "*.dropbox.com" {
		t.Fatalf("cert = %q", r.CertName)
	}
	if r.SNI == "" || !strings.HasPrefix(r.SNI, "dl-client") {
		t.Fatalf("sni = %q", r.SNI)
	}
	// Upload bytes: TLS handshake 294 + per-chunk (634 + chunk + record
	// headers). Bound loosely.
	minUp := int64(294 + chunks*(634+chunkSize))
	if r.BytesUp < minUp || r.BytesUp > minUp+int64(chunks*400) {
		t.Fatalf("bytes up = %d, want ≈ %d", r.BytesUp, minUp)
	}
	// Server direction: 4103 handshake + 5 OKs of 309 (+records).
	if r.BytesDown < 4103+chunks*309 || r.BytesDown > 4103+chunks*(309+20) {
		t.Fatalf("bytes down = %d", r.BytesDown)
	}
	// PSH count downstream: hello + ccs/finish + c OKs + alert = c+3
	// (server closed the idle flow).
	if !r.ServerClosed {
		t.Fatal("storage flow should be passively closed by the server")
	}
	if r.PSHDown != chunks+3 {
		t.Fatalf("PSH down = %d, want %d", r.PSHDown, chunks+3)
	}
	if !r.SawRST {
		t.Fatal("client should have RST the flow after the server alert")
	}
}

func TestProbeRTTMeasurement(t *testing.T) {
	w := newWorld(t)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	refs := refsOf(77, 20, 150_000)
	w.sched.After(2*time.Second, func() { dev.Upload(acct.Root, refs, wireID, nil) })
	w.sched.RunUntil(simtime.Time(15 * time.Minute))
	w.finish()

	storage := w.find(func(r *traces.FlowRecord) bool {
		return isStorageFQDN(r) && r.RTTSamples >= 10
	})
	if len(storage) == 0 {
		t.Fatal("no storage flow with >= 10 RTT samples")
	}
	for _, r := range storage {
		// External path: 2*45ms core + server access, plus up to ~2% jitter.
		if r.MinRTT < 90*time.Millisecond || r.MinRTT > 100*time.Millisecond {
			t.Fatalf("storage min RTT = %v, want ≈ 90-95 ms", r.MinRTT)
		}
	}
	control := w.find(func(r *traces.FlowRecord) bool {
		return strings.HasPrefix(r.FQDN, "client") && r.RTTSamples >= 3
	})
	if len(control) == 0 {
		t.Fatal("no control flows with RTT samples")
	}
	for _, r := range control {
		if r.MinRTT < 170*time.Millisecond || r.MinRTT > 185*time.Millisecond {
			t.Fatalf("control min RTT = %v, want ≈ 170-175 ms", r.MinRTT)
		}
	}
}

func TestProbeNotifyExtraction(t *testing.T) {
	w := newWorld(t)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	w.sched.RunUntil(simtime.Time(3 * time.Minute))
	dev.Stop()
	w.sched.RunUntil(simtime.Time(4 * time.Minute))
	w.finish()

	notify := w.find(func(r *traces.FlowRecord) bool { return r.ServerPort == 80 })
	if len(notify) == 0 {
		t.Fatal("no notification flow captured")
	}
	r := notify[0]
	if r.NotifyHost == 0 {
		t.Fatal("host_int not extracted")
	}
	if len(r.NotifyNamespaces) != 1 {
		t.Fatalf("namespaces = %v, want the root namespace", r.NotifyNamespaces)
	}
	if !strings.HasPrefix(r.FQDN, "notify") {
		t.Fatalf("notify FQDN = %q", r.FQDN)
	}
}

func TestProbeRetransmissionCounting(t *testing.T) {
	w := newWorld(t)
	w.net.SetCoreLoss(0.01)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	refs := refsOf(99, 3, 2_000_000)
	w.sched.After(2*time.Second, func() { dev.Upload(acct.Root, refs, wireID, nil) })
	w.sched.RunUntil(simtime.Time(20 * time.Minute))
	w.finish()

	storage := w.find(isStorageFQDN)
	if len(storage) == 0 {
		t.Fatal("no storage flow")
	}
	totRetr := 0
	var bytesUp int64
	for _, r := range storage {
		totRetr += r.RetransUp + r.RetransDown
		bytesUp += r.BytesUp
	}
	if totRetr == 0 {
		t.Fatal("1% loss should show retransmissions")
	}
	// Unique-byte accounting: retransmissions must not inflate volume
	// beyond payload + overheads.
	maxUp := int64(3*(634+2_000_000) + 2*294 + 3*700)
	if bytesUp > maxUp {
		t.Fatalf("bytes up = %d inflated beyond %d", bytesUp, maxUp)
	}
}

func TestProbeWithoutDNS(t *testing.T) {
	// Campus 2 operated without DNS visibility: FQDN stays empty, but TLS
	// certificates still classify the traffic.
	sched := simtime.NewScheduler()
	rng := simrand.New(12, "nodns")
	net := netem.New(sched, rng)
	net.SetCoreDelay("vp", dnssim.AmazonDC, 45*time.Millisecond)
	net.SetCoreDelay("vp", dnssim.DropboxDC, 85*time.Millisecond)
	dir := dnssim.Build(dnssim.Layout{MetaIPs: 3, NotifyIPs: 4, StorageNames: 12, StorageIPs: 8})
	svc := dropbox.NewService(dropbox.ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir, ServerIW: tcpsim.DefaultIW,
	})
	resolver := dnssim.NewResolver(dir, rng)
	probe := New(sched, "campus2") // resolver.Log is not wired: no DNS events
	var recs []*traces.FlowRecord
	probe.OnRecord = func(r *traces.FlowRecord) { recs = append(recs, r) }
	net.AttachTap("vp", probe)

	ip := wire.MakeIP(10, 0, 0, 1)
	host := net.AddHost(ip, "vp", netem.CampusWireless())
	stack := tcpsim.NewStack(host, sched, rng, tcpsim.DefaultIW)
	acct := svc.Meta.CreateAccount()
	dev, err := dropbox.NewDevice(dropbox.ClientConfig{
		Sched: sched, Rng: rng, Service: svc, Resolver: resolver,
		Stack: stack, Caps: capability.DropboxV1252(),
	}, acct.ID)
	if err != nil {
		t.Fatal(err)
	}
	dev.Start()
	sched.After(2*time.Second, func() {
		dev.Upload(acct.Root, refsOf(5, 2, 50_000), wireID, nil)
	})
	sched.RunUntil(simtime.Time(5 * time.Minute))
	probe.FlushAll()

	withCert := 0
	for _, r := range recs {
		if r.FQDN != "" {
			t.Fatalf("FQDN labeled without DNS: %q", r.FQDN)
		}
		if r.CertName == "*.dropbox.com" {
			withCert++
		}
	}
	if withCert == 0 {
		t.Fatal("TLS certificate DPI should still work without DNS")
	}
}

func TestIdleSweepFinalizes(t *testing.T) {
	w := newWorld(t)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	w.sched.After(2*time.Second, func() {
		dev.Upload(acct.Root, refsOf(123, 1, 10_000), wireID, nil)
	})
	w.sched.After(30*time.Second, dev.Stop)
	// Run far past the idle timeout: all flows must be finalized by the
	// sweeper without FlushAll.
	w.sched.RunUntil(simtime.Time(12 * time.Minute))
	if n := len(w.probe.flows); n != 0 {
		t.Fatalf("flows still tracked after idle sweep: %d", n)
	}
	if len(w.records) == 0 {
		t.Fatal("no records emitted")
	}
}

// TestSweepOrderDeterministic: flows that idle out in the same sweep, or
// are flushed together, reach OnRecord ordered by first packet and then
// by flow key, never in map order.
func TestSweepOrderDeterministic(t *testing.T) {
	sched := simtime.NewScheduler()
	p := New(sched, "test-vp")
	var got []wire.Endpoint
	p.OnRecord = func(r *traces.FlowRecord) {
		got = append(got, wire.Endpoint{Addr: r.Client, Port: r.ClientPort})
	}
	// Eight flows over two instants; within each, clients are sent in
	// descending key order so the sort, not arrival, decides.
	var want []wire.Endpoint
	syn := func(i int) {
		client := wire.Endpoint{Addr: wire.MakeIP(10, 0, 0, byte(8-i%4)), Port: 40000}
		want = append(want, client)
		p.Capture(sched.Now(), &wire.Frame{
			IP:  wire.IPv4Header{Src: client.Addr, Dst: wire.MakeIP(184, 0, 0, 1)},
			TCP: wire.TCPHeader{SrcPort: client.Port, DstPort: uint16(443 + i/4), Flags: wire.FlagSYN},
		}, netem.TapOutbound)
	}
	for i := 0; i < 4; i++ {
		syn(i)
	}
	sched.RunUntil(simtime.Time(time.Second))
	for i := 4; i < 8; i++ {
		syn(i)
	}
	for i := 0; i < 8; i += 4 { // equal first packets: ascending client address
		slices.Reverse(want[i : i+4])
	}
	sched.RunUntil(simtime.Time(6 * time.Minute)) // the 5:30 sweep takes all eight
	if !slices.Equal(got, want) {
		t.Fatalf("sweep order %v, want %v", got, want)
	}

	got, want = nil, nil
	for i := 0; i < 4; i++ {
		syn(i)
	}
	slices.Reverse(want)
	p.FlushAll()
	if !slices.Equal(got, want) {
		t.Fatalf("flush order %v, want %v", got, want)
	}
}
