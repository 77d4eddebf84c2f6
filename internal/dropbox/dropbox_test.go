package dropbox

import (
	"testing"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/tstat"
	"insidedropbox/internal/wire"
)

// tw is a miniature end-to-end world: one vantage point, the full service,
// and helpers to mint devices.
type tw struct {
	sched    *simtime.Scheduler
	rng      *simrand.Source
	net      *netem.Network
	dir      *dnssim.Directory
	resolver *dnssim.Resolver
	svc      *Service
	nextIP   byte
}

func newTW(t testing.TB, serverIW int) *tw {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simrand.New(7, "dbx-test")
	net := netem.New(sched, rng)
	net.SetCoreDelay("vp", dnssim.AmazonDC, 45*time.Millisecond)
	net.SetCoreDelay("vp", dnssim.DropboxDC, 85*time.Millisecond)
	dir := dnssim.Build(dnssim.Layout{MetaIPs: 3, NotifyIPs: 4, StorageNames: 12, StorageIPs: 8})
	svc := NewService(ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir, ServerIW: serverIW,
	})
	resolver := dnssim.NewResolver(dir, rng)
	return &tw{sched: sched, rng: rng, net: net, dir: dir, resolver: resolver, svc: svc}
}

// device mints a device with the given capability profile on its own
// household IP.
func (w *tw) device(t testing.TB, account AccountID, caps capability.Profile) *Device {
	t.Helper()
	w.nextIP++
	ip := wire.MakeIP(10, 0, 0, w.nextIP)
	host := w.net.AddHost(ip, "vp", netem.WiredWorkstation())
	stack := tcpsim.NewStack(host, w.sched, w.rng, tcpsim.DefaultIW)
	dev, err := NewDevice(ClientConfig{
		Sched: w.sched, Rng: w.rng, Service: w.svc, Resolver: w.resolver,
		Stack: stack, Caps: caps,
	}, account)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// refs builds n chunk refs of the given size with distinct content.
func mkRefs(seed uint64, n, size int) []chunker.Ref {
	f := chunker.SyntheticFile{Seed: seed, Size: int64(n) * int64(size)}
	refs := f.Refs()
	if size <= chunker.MaxChunkSize && n > 1 {
		// Build refs manually for sub-4MB chunk sizes.
		refs = refs[:0]
		for i := 0; i < n; i++ {
			sub := chunker.SyntheticFile{Seed: seed + uint64(i)*1000003, Size: int64(size)}
			refs = append(refs, sub.Refs()...)
		}
	}
	return refs
}

func identityWire(r chunker.Ref) int { return r.Size }

// storageOps counts the storage operations the service receives, read
// through its Trace hook.
type storageOps struct {
	store, retrieve, batch int
	storeWire              int          // compressed bytes the stores carried
	firstRetrieve          simtime.Time // when the first retrieve arrived
}

// countOps installs the Trace hook that fills a storageOps.
func (w *tw) countOps() *storageOps {
	ops := &storageOps{}
	w.svc.Trace = func(_ string, meta any) {
		switch m := meta.(type) {
		case MsgStore:
			ops.store++
			ops.storeWire += m.WireSize
		case MsgStoreBatch:
			ops.store++
			ops.batch++
			for _, n := range m.Wires {
				ops.storeWire += n
			}
		case MsgRetrieve, MsgRetrieveBatch:
			if ops.retrieve == 0 {
				ops.firstRetrieve = w.sched.Now()
			}
			ops.retrieve++
			if _, ok := m.(MsgRetrieveBatch); ok {
				ops.batch++
			}
		}
	}
	return ops
}

// holds reports whether dev holds every chunk of refs.
func holds(dev *Device, refs []chunker.Ref) bool {
	for _, r := range refs {
		if _, ok := dev.have[r.Hash]; !ok {
			return false
		}
	}
	return true
}

// uploadTime uploads refs from dev at 1 s and returns how long the upload
// takes to finish, once the scheduler has run to limit. An upload that has
// not finished by limit fails the test.
func (w *tw) uploadTime(t *testing.T, dev *Device, refs []chunker.Ref, limit time.Duration) time.Duration {
	t.Helper()
	var end simtime.Time
	w.sched.After(time.Second, func() {
		dev.Upload(refs, identityWire, func() { end = w.sched.Now() })
	})
	w.sched.RunUntil(simtime.Time(limit))
	if end == 0 {
		t.Fatalf("upload of %d chunks did not finish by %v", len(refs), limit)
	}
	return end.Duration() - time.Second
}

func TestNotifyEncodingRoundTrip(t *testing.T) {
	resp := NotifyResponse{Changed: []NamespaceID{9, 11}}
	gotR, ok := ParseNotifyResponse(EncodeNotifyResponse(resp))
	if !ok || len(gotR.Changed) != 2 || gotR.Changed[0] != 9 {
		t.Fatalf("resp round trip = %+v %v", gotR, ok)
	}
	empty, ok := ParseNotifyResponse(EncodeNotifyResponse(NotifyResponse{}))
	if !ok || len(empty.Changed) != 0 {
		t.Fatalf("empty resp = %+v %v", empty, ok)
	}
}

func TestControlMsgSizeScales(t *testing.T) {
	small := ControlMsgSize(MsgCommitBatch{Refs: mkRefs(1, 1, 1000)})
	big := ControlMsgSize(MsgCommitBatch{Refs: mkRefs(1, 50, 1000)})
	if big <= small {
		t.Fatalf("commit size should grow with refs: %d vs %d", small, big)
	}
	if ControlMsgSize(MsgOK{}) <= 0 {
		t.Fatal("MsgOK has no size")
	}
}

func TestMetastoreAccounts(t *testing.T) {
	m := NewMetastore()
	a := m.CreateAccount()
	if a.Root == 0 {
		t.Fatal("no root namespace")
	}
	h1, err := m.LinkDevice(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := m.LinkDevice(a.ID)
	if h1 == h2 {
		t.Fatal("duplicate host ids")
	}
	if _, err := m.LinkDevice(999); err == nil {
		t.Fatal("linking to missing account should fail")
	}
}

func TestMetastoreDedupAndJournal(t *testing.T) {
	m := NewMetastore()
	a := m.CreateAccount()
	refs := mkRefs(5, 3, 1000)
	if missing := m.NeedBlocks(refs); len(missing) != 3 {
		t.Fatalf("all chunks should be missing, got %d", len(missing))
	}
	for _, r := range refs {
		m.StoreChunk(r)
	}
	if missing := m.NeedBlocks(refs); len(missing) != 0 {
		t.Fatalf("stored chunks still missing: %d", len(missing))
	}
	seq, err := m.Commit(a.Root, "x", refs)
	if err != nil || seq != 1 {
		t.Fatalf("commit = %d, %v", seq, err)
	}
	if got := m.UpdatesSince(a.Root, 0); len(got) != 1 {
		t.Fatalf("updates = %d", len(got))
	}
	if got := m.UpdatesSince(a.Root, 1); len(got) != 0 {
		t.Fatalf("cursor-past updates = %d", len(got))
	}
	if _, err := m.Commit(a.Root, "y", mkRefs(9, 1, 10)); err == nil {
		t.Fatal("commit with unknown chunk should fail")
	}
}

func TestUploadStoresChunks(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	ops := w.countOps()
	dev.Start()
	refs := mkRefs(100, 4, 200_000)
	w.sched.After(2*time.Second, func() {
		dev.Upload(refs, identityWire, nil)
	})
	w.sched.RunUntil(simtime.Time(90 * time.Second))
	if len(w.svc.Meta.chunks) != 4 {
		t.Fatalf("stored chunks = %d, want 4", len(w.svc.Meta.chunks))
	}
	if ops.store != 4 || ops.storeWire != 800_000 {
		t.Fatalf("store ops = %d carrying %d bytes, want 4 (one per chunk in v1.2.52) carrying 800000", ops.store, ops.storeWire)
	}
	if journalSeq(w.svc.Meta, acct.Root) != 1 {
		t.Fatalf("journal seq = %d", journalSeq(w.svc.Meta, acct.Root))
	}
}

func TestDedupSkipsUpload(t *testing.T) {
	w := newTW(t, 3)
	a1 := w.svc.Meta.CreateAccount()
	a2 := w.svc.Meta.CreateAccount()
	d1 := w.device(t, a1.ID, capability.DropboxV1252())
	d2 := w.device(t, a2.ID, capability.DropboxV1252())
	refs := mkRefs(200, 3, 100_000) // same content on both accounts
	ops := w.countOps()
	d1.Start()
	d2.Start()
	w.sched.After(time.Second, func() { d1.Upload(refs, identityWire, nil) })
	w.sched.After(30*time.Second, func() { d2.Upload(refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(120 * time.Second))
	if ops.store != 3 {
		t.Fatalf("store ops = %d: dedup should stop the second upload", ops.store)
	}
	if journalSeq(w.svc.Meta, a2.Root) != 1 {
		t.Fatal("dedup'd upload must still commit meta-data")
	}
}

func TestNotificationTriggersDownload(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	d1 := w.device(t, acct.ID, capability.DropboxV1252())
	d2 := w.device(t, acct.ID, capability.DropboxV1252())
	d1.Start()
	d2.Start()
	refs := mkRefs(300, 2, 500_000)
	ops := w.countOps()
	w.sched.After(5*time.Second, func() { d1.Upload(refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(3 * time.Minute))
	if !holds(d2, refs) {
		t.Fatal("device 2 is missing chunks")
	}
	if ops.retrieve != 2 {
		t.Fatalf("retrieve ops = %d", ops.retrieve)
	}
	// The retrieve must have started well before the 60 s poll period:
	// notifications push immediately on journal advance.
	if ops.firstRetrieve.Duration() > 40*time.Second {
		t.Fatalf("retrieve started at %v — notification not pushed", ops.firstRetrieve)
	}
}

func TestBatchSplitOver100Chunks(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	refs := mkRefs(400, 250, 2_000)
	done := false
	w.sched.After(time.Second, func() {
		dev.Upload(refs, identityWire, func() { done = true })
	})
	w.sched.RunUntil(simtime.Time(30 * time.Minute))
	if !done {
		t.Fatal("upload did not complete")
	}
	if got := journalSeq(w.svc.Meta, acct.Root); got != 3 {
		t.Fatalf("journal entries = %d, want 3 (250 chunks / 100 per batch)", got)
	}
	if len(w.svc.Meta.chunks) != 250 {
		t.Fatalf("chunks = %d", len(w.svc.Meta.chunks))
	}
}

func TestV140BundlesSmallChunks(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV140())
	ops := w.countOps()
	dev.Start()
	refs := mkRefs(500, 40, 50_000) // 2 MB of small chunks
	w.sched.After(time.Second, func() { dev.Upload(refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(5 * time.Minute))
	if len(w.svc.Meta.chunks) != 40 {
		t.Fatalf("chunks = %d", len(w.svc.Meta.chunks))
	}
	if ops.store > 3 {
		t.Fatalf("store ops = %d: bundling should collapse 40 small chunks", ops.store)
	}
	if ops.batch == 0 {
		t.Fatal("no store_batch issued")
	}
}

// TestStoreBatchKeepsEachChunkWireSize bundles a 1 kB and a 400 kB chunk
// into one store_batch, then has a device of a second account, whose
// journal lists the small chunk alone (its upload was spared by dedup),
// retrieve it. The storage server must answer with that chunk's own wire
// size plus the 309-byte response framing, not the bundle's average.
func TestStoreBatchKeepsEachChunkWireSize(t *testing.T) {
	w := newTW(t, 3)
	ops := w.countOps()
	probe := tstat.New(w.sched, "vp")
	var recs []*traces.FlowRecord
	probe.OnRecord = func(r *traces.FlowRecord) { recs = append(recs, r) }
	w.resolver.Log = probe.ObserveDNS
	w.net.AttachTap("vp", probe)

	small, big := mkRefs(700, 1, 1_000)[0], mkRefs(701, 1, 400_000)[0]
	a := w.svc.Meta.CreateAccount()
	up := w.device(t, a.ID, capability.DropboxV140())
	up.Start()
	w.sched.After(time.Second, func() {
		up.Upload([]chunker.Ref{small, big}, identityWire, nil)
	})
	b := w.svc.Meta.CreateAccount()
	dup := w.device(t, b.ID, capability.DropboxV140())
	dup.Start()
	w.sched.After(time.Minute, func() {
		dup.Upload([]chunker.Ref{small}, identityWire, nil)
	})
	down := w.device(t, b.ID, capability.DropboxV140())
	w.sched.After(2*time.Minute, down.Start)
	w.sched.RunUntil(simtime.Time(5 * time.Minute))
	probe.FlushAll()

	if ops.store != 1 || ops.batch != 1 {
		t.Fatalf("%d store ops, %d batched; want the one store_batch", ops.store, ops.batch)
	}
	if ops.retrieve != 1 || !holds(down, []chunker.Ref{small}) {
		t.Fatalf("downloader: %d retrieve ops; want one retrieve of the %d-byte chunk", ops.retrieve, small.Size)
	}
	downIP := down.Cfg.Stack.Host.IP
	for _, r := range recs {
		if r.Client != downIP || r.ServerPort != 443 || r.FQDN == "client-lb.dropbox.com" {
			continue
		}
		want := int64(tlssim.ServerHandshakeBytes + tlssim.MessageWireSize(ServerOpOverhead+small.Size))
		if r.ServerClosed {
			want += wire.RecordHeaderLen + 2 // close-notify alert
		}
		if r.BytesDown != want {
			t.Errorf("retrieve flow bytes down = %d, want %d", r.BytesDown, want)
		}
		return
	}
	t.Fatal("no retrieve flow captured for the downloader")
}

func TestSequentialAcksSlowerThanBundling(t *testing.T) {
	durations := map[string]time.Duration{}
	for _, caps := range []capability.Profile{capability.DropboxV1252(), capability.DropboxV140()} {
		w := newTW(t, 3)
		acct := w.svc.Meta.CreateAccount()
		dev := w.device(t, acct.ID, caps)
		dev.Start()
		durations[caps.Name] = w.uploadTime(t, dev, mkRefs(600, 30, 60_000), 10*time.Minute)
		if len(w.svc.Meta.chunks) != 30 {
			t.Fatalf("%v: chunks = %d", caps, len(w.svc.Meta.chunks))
		}
	}
	if durations["dropbox-1.4.0"]*2 > durations["dropbox-1.2.52"] {
		t.Fatalf("bundling should at least halve duration: v1.2.52 %v vs v1.4.0 %v",
			durations["dropbox-1.2.52"], durations["dropbox-1.4.0"])
	}
}

func TestOfflineDeviceSyncsOnStart(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	d1 := w.device(t, acct.ID, capability.DropboxV1252())
	d2 := w.device(t, acct.ID, capability.DropboxV1252())
	d1.Start()
	refs := mkRefs(800, 3, 80_000)
	w.sched.After(time.Second, func() { d1.Upload(refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(2 * time.Minute))
	// d2 comes online later: the first list must pull everything.
	d2.Start()
	w.sched.RunUntil(simtime.Time(4 * time.Minute))
	if !holds(d2, refs) {
		t.Fatal("late-starting device did not sync")
	}
}

func TestStopTearsDownConnections(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	w.sched.After(30*time.Second, func() {
		dev.Upload(mkRefs(900, 10, 1_000_000), identityWire, nil)
	})
	w.sched.After(32*time.Second, dev.Stop)
	w.sched.RunUntil(simtime.Time(5 * time.Minute))
	if dev.online {
		t.Fatal("device still online")
	}
	// Restart should work cleanly.
	dev.Start()
	w.sched.RunUntil(simtime.Time(8 * time.Minute))
	if !dev.online {
		t.Fatal("restart failed")
	}
}

func TestNotifyLongPollPunt(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	// Run past two poll periods with no changes; the device must stay
	// online with an armed long poll (requests re-issued after punts).
	w.sched.RunUntil(simtime.Time(150 * time.Second))
	armed := 0
	for _, w := range w.svc.notify.waiters {
		if w.armed {
			armed++
		}
	}
	if armed != 1 {
		t.Fatalf("armed long polls = %d, want 1", armed)
	}
}

// tapFunc adapts a function to netem.Tap.
type tapFunc func(now simtime.Time, f *wire.Frame, dir netem.TapDir)

func (fn tapFunc) Capture(now simtime.Time, f *wire.Frame, dir netem.TapDir) { fn(now, f, dir) }

// TestStorageIdleClockWaitsForDrain: the storage server's idle clock starts
// once its response is acknowledged, not when the response is queued. Two
// 3 MB chunks drain over a lossy 100 kB/s downlink, well over a minute
// each. The retrieve must finish on one storage connection, and the
// server's alert must reach the probe StorageIdleTimeout after the
// client's last data ACK left it, plus the core round trip.
func TestStorageIdleClockWaitsForDrain(t *testing.T) {
	w := newTW(t, 3)
	storage := map[wire.IP]bool{}
	for _, name := range w.dir.StorageNames {
		for _, ip := range w.dir.Pool(name) {
			storage[ip] = true
		}
	}
	var syns int
	var lastAck, alert simtime.Time
	w.net.AttachTap("vp", tapFunc(func(now simtime.Time, f *wire.Frame, dir netem.TapDir) {
		switch {
		case dir == netem.TapOutbound && storage[f.IP.Dst]:
			if f.TCP.Flags.Has(wire.FlagSYN) {
				syns++
			} else if alert == 0 && f.PayloadLen == 0 && f.TCP.Flags == wire.FlagACK {
				lastAck = now
			}
		case alert == 0 && dir == netem.TapInbound && storage[f.IP.Src] && f.PayloadLen > 0:
			if rec, _, err := wire.ParseRecord(f.Payload); err == nil && rec.Type == wire.RecordAlert {
				alert = now
			}
		}
	}))
	slow := netem.AccessProfile{UpRate: 1e6, DownRate: 100e3, Delay: 5 * time.Millisecond, Loss: 0.01}
	host := w.net.AddHost(wire.MakeIP(10, 0, 0, 99), "vp", slow)
	acct := w.svc.Meta.CreateAccount()
	dev, err := NewDevice(ClientConfig{
		Sched: w.sched, Rng: w.rng, Service: w.svc, Resolver: w.resolver,
		Stack: tcpsim.NewStack(host, w.sched, w.rng, tcpsim.DefaultIW), Caps: capability.DropboxV1252(),
	}, acct.ID)
	if err != nil {
		t.Fatal(err)
	}
	refs := mkRefs(77, 2, 3_000_000)
	for _, r := range refs {
		w.svc.SeedChunk(r, r.Size)
	}
	dev.Start()
	var done simtime.Time
	w.sched.After(3*time.Second, func() { dev.Download(refs, identityWire, func() { done = w.sched.Now() }) })
	w.sched.RunUntil(simtime.Time(8 * time.Minute))

	if done == 0 || !holds(dev, refs) {
		t.Fatalf("download did not finish: done at %v", done)
	}
	if done.Sub(simtime.Time(3*time.Second)) < 2*time.Minute {
		t.Fatalf("download took %v; the test needs responses draining for over a minute each", done.Sub(simtime.Time(3*time.Second)))
	}
	if syns != 1 {
		t.Errorf("retrieve opened %d storage connections, want 1", syns)
	}
	// The ACK reaches the server 45 ms after the probe, the alert the probe
	// 45 ms after it leaves.
	if gap := alert.Sub(lastAck); alert == 0 || gap < StorageIdleTimeout || gap > StorageIdleTimeout+time.Second {
		t.Errorf("alert at %v, last data ACK at %v, transfer done at %v: gap %v, want StorageIdleTimeout plus the core round trip", alert, lastAck, done, gap)
	}
}

func BenchmarkUpload10Chunks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := newTW(b, 3)
		acct := w.svc.Meta.CreateAccount()
		dev := w.device(b, acct.ID, capability.DropboxV1252())
		dev.Start()
		refs := mkRefs(uint64(i)*17+1, 10, 100_000)
		w.sched.After(time.Second, func() { dev.Upload(refs, identityWire, nil) })
		w.sched.RunUntil(simtime.Time(2 * time.Minute))
		if len(w.svc.Meta.chunks) != 10 {
			b.Fatalf("chunks = %d", len(w.svc.Meta.chunks))
		}
	}
}

// journalSeq returns the latest sequence number of a namespace.
func journalSeq(m *Metastore, ns NamespaceID) uint64 {
	return uint64(len(m.namespaces[ns].Journal))
}
