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
	b := m.CreateAccount()
	ns, err := m.ShareFolder(a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	nsA := m.NamespacesOf(a.ID)
	if len(nsA) != 2 || nsA[1] != ns {
		t.Fatalf("account A namespaces = %v", nsA)
	}
	if got := m.Namespace(ns).Members; len(got) != 2 {
		t.Fatalf("share members = %v", got)
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
	if m.DedupHits() != 3 {
		t.Fatalf("dedup hits = %d", m.DedupHits())
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
	var stats []TransferStats
	dev.OnTransferDone = func(s TransferStats) { stats = append(stats, s) }
	dev.Start()
	refs := mkRefs(100, 4, 200_000)
	w.sched.After(2*time.Second, func() {
		dev.Upload(acct.Root, refs, identityWire, nil)
	})
	w.sched.RunUntil(simtime.Time(90 * time.Second))
	if w.svc.Meta.ChunkCount() != 4 {
		t.Fatalf("stored chunks = %d, want 4", w.svc.Meta.ChunkCount())
	}
	if w.svc.StoreOps != 4 {
		t.Fatalf("store ops = %d, want 4 (one per chunk in v1.2.52)", w.svc.StoreOps)
	}
	if w.svc.Meta.JournalSeq(acct.Root) != 1 {
		t.Fatalf("journal seq = %d", w.svc.Meta.JournalSeq(acct.Root))
	}
	var st *TransferStats
	for i := range stats {
		if stats[i].Kind == TransferStore {
			st = &stats[i]
		}
	}
	if st == nil {
		t.Fatal("no store transfer reported")
	}
	if st.Chunks != 4 || st.WireBytes != 800_000 || st.Ops != 4 {
		t.Fatalf("store stats = %+v", *st)
	}
}

func TestDedupSkipsUpload(t *testing.T) {
	w := newTW(t, 3)
	a1 := w.svc.Meta.CreateAccount()
	a2 := w.svc.Meta.CreateAccount()
	d1 := w.device(t, a1.ID, capability.DropboxV1252())
	d2 := w.device(t, a2.ID, capability.DropboxV1252())
	refs := mkRefs(200, 3, 100_000) // same content on both accounts
	d1.Start()
	d2.Start()
	w.sched.After(time.Second, func() { d1.Upload(a1.Root, refs, identityWire, nil) })
	var d2stats TransferStats
	d2.OnTransferDone = func(s TransferStats) {
		if s.Kind == TransferStore {
			d2stats = s
		}
	}
	w.sched.After(30*time.Second, func() { d2.Upload(a2.Root, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(120 * time.Second))
	if w.svc.StoreOps != 3 {
		t.Fatalf("store ops = %d: dedup should stop the second upload", w.svc.StoreOps)
	}
	if d2stats.Skipped != 3 || d2stats.Chunks != 0 {
		t.Fatalf("second upload stats = %+v", d2stats)
	}
	if w.svc.Meta.JournalSeq(a2.Root) != 1 {
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
	var retr TransferStats
	d2.OnTransferDone = func(s TransferStats) {
		if s.Kind == TransferRetrieve {
			retr = s
		}
	}
	w.sched.After(5*time.Second, func() { d1.Upload(acct.Root, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(3 * time.Minute))
	for _, r := range refs {
		if !d2.Has(r.Hash) {
			t.Fatalf("device 2 missing chunk %s", r.Hash.Short())
		}
	}
	if retr.Chunks != 2 || retr.WireBytes != 1_000_000 {
		t.Fatalf("retrieve stats = %+v", retr)
	}
	if w.svc.RetrieveOps != 2 {
		t.Fatalf("retrieve ops = %d", w.svc.RetrieveOps)
	}
	// The retrieve must have started well before the 60 s poll period:
	// notifications push immediately on journal advance.
	if retr.Start.Duration() > 40*time.Second {
		t.Fatalf("retrieve started at %v — notification not pushed", retr.Start)
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
		dev.Upload(acct.Root, refs, identityWire, func() { done = true })
	})
	w.sched.RunUntil(simtime.Time(30 * time.Minute))
	if !done {
		t.Fatal("upload did not complete")
	}
	if got := w.svc.Meta.JournalSeq(acct.Root); got != 3 {
		t.Fatalf("journal entries = %d, want 3 (250 chunks / 100 per batch)", got)
	}
	if w.svc.Meta.ChunkCount() != 250 {
		t.Fatalf("chunks = %d", w.svc.Meta.ChunkCount())
	}
}

func TestV140BundlesSmallChunks(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV140())
	dev.Start()
	refs := mkRefs(500, 40, 50_000) // 2 MB of small chunks
	w.sched.After(time.Second, func() { dev.Upload(acct.Root, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(5 * time.Minute))
	if w.svc.Meta.ChunkCount() != 40 {
		t.Fatalf("chunks = %d", w.svc.Meta.ChunkCount())
	}
	if w.svc.StoreOps > 3 {
		t.Fatalf("store ops = %d: bundling should collapse 40 small chunks", w.svc.StoreOps)
	}
	if w.svc.BatchOps == 0 {
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
		up.Upload(a.Root, []chunker.Ref{small, big}, identityWire, nil)
	})
	b := w.svc.Meta.CreateAccount()
	dup := w.device(t, b.ID, capability.DropboxV140())
	dup.Start()
	w.sched.After(time.Minute, func() {
		dup.Upload(b.Root, []chunker.Ref{small}, identityWire, nil)
	})
	down := w.device(t, b.ID, capability.DropboxV140())
	var got []TransferStats
	down.OnTransferDone = func(s TransferStats) { got = append(got, s) }
	w.sched.After(2*time.Minute, down.Start)
	w.sched.RunUntil(simtime.Time(5 * time.Minute))
	probe.FlushAll()

	if w.svc.BatchOps != 1 {
		t.Fatalf("batch ops = %d, want the one store_batch", w.svc.BatchOps)
	}
	if len(got) != 1 || got[0].Kind != TransferRetrieve || got[0].Chunks != 1 || got[0].WireBytes != small.Size {
		t.Fatalf("downloader transfers = %+v, want one retrieve of the %d-byte chunk", got, small.Size)
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
		refs := mkRefs(600, 30, 60_000)
		var st TransferStats
		dev.OnTransferDone = func(s TransferStats) {
			if s.Kind == TransferStore {
				st = s
			}
		}
		w.sched.After(time.Second, func() { dev.Upload(acct.Root, refs, identityWire, nil) })
		w.sched.RunUntil(simtime.Time(10 * time.Minute))
		if st.Chunks != 30 {
			t.Fatalf("%v: chunks = %d", caps, st.Chunks)
		}
		durations[caps.Name] = st.End.Sub(st.Start)
	}
	if durations["dropbox-1.4.0"]*2 > durations["dropbox-1.2.52"] {
		t.Fatalf("bundling should at least halve duration: v1.2.52 %v vs v1.4.0 %v",
			durations["dropbox-1.2.52"], durations["dropbox-1.4.0"])
	}
}

func TestLANSyncAvoidsWAN(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	d1 := w.device(t, acct.ID, capability.DropboxV1252())
	d2 := w.device(t, acct.ID, capability.DropboxV1252())
	d1.LANPeers = []*Device{d2}
	d2.LANPeers = []*Device{d1}
	d1.Start()
	d2.Start()
	refs := mkRefs(700, 2, 300_000)
	w.sched.After(time.Second, func() { d1.Upload(acct.Root, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(3 * time.Minute))
	if w.svc.RetrieveOps != 0 {
		t.Fatalf("retrieve ops = %d: LAN sync should bypass the cloud", w.svc.RetrieveOps)
	}
	for _, r := range refs {
		if !d2.Has(r.Hash) {
			t.Fatal("peer did not receive chunks over LAN")
		}
	}
}

func TestOfflineDeviceSyncsOnStart(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	d1 := w.device(t, acct.ID, capability.DropboxV1252())
	d2 := w.device(t, acct.ID, capability.DropboxV1252())
	d1.Start()
	refs := mkRefs(800, 3, 80_000)
	w.sched.After(time.Second, func() { d1.Upload(acct.Root, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(2 * time.Minute))
	// d2 comes online later: the first list must pull everything.
	d2.Start()
	w.sched.RunUntil(simtime.Time(4 * time.Minute))
	for _, r := range refs {
		if !d2.Has(r.Hash) {
			t.Fatal("late-starting device did not sync")
		}
	}
}

func TestStopTearsDownConnections(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	dev := w.device(t, acct.ID, capability.DropboxV1252())
	dev.Start()
	w.sched.After(30*time.Second, func() {
		dev.Upload(acct.Root, mkRefs(900, 10, 1_000_000), identityWire, nil)
	})
	w.sched.After(32*time.Second, dev.Stop)
	w.sched.RunUntil(simtime.Time(5 * time.Minute))
	if dev.Online() {
		t.Fatal("device still online")
	}
	// Restart should work cleanly.
	dev.Start()
	w.sched.RunUntil(simtime.Time(8 * time.Minute))
	if !dev.Online() {
		t.Fatal("restart failed")
	}
}

func TestSharedFolderCrossAccount(t *testing.T) {
	w := newTW(t, 3)
	a1 := w.svc.Meta.CreateAccount()
	a2 := w.svc.Meta.CreateAccount()
	shared, err := w.svc.Meta.ShareFolder(a1.ID, a2.ID)
	if err != nil {
		t.Fatal(err)
	}
	d1 := w.device(t, a1.ID, capability.DropboxV1252())
	d2 := w.device(t, a2.ID, capability.DropboxV1252())
	d1.Start()
	d2.Start()
	refs := mkRefs(1000, 2, 150_000)
	w.sched.After(time.Second, func() { d1.Upload(shared, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(3 * time.Minute))
	for _, r := range refs {
		if !d2.Has(r.Hash) {
			t.Fatal("shared-folder content did not propagate across accounts")
		}
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

	if done == 0 || !dev.Has(refs[0].Hash) || !dev.Has(refs[1].Hash) {
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
		w.sched.After(time.Second, func() { dev.Upload(acct.Root, refs, identityWire, nil) })
		w.sched.RunUntil(simtime.Time(2 * time.Minute))
		if w.svc.Meta.ChunkCount() != 10 {
			b.Fatalf("chunks = %d", w.svc.Meta.ChunkCount())
		}
	}
}
