package dropbox

import (
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/wire"
)

// TestNewDeviceRefusesZeroProfile: a client is always built from a named
// capability profile; the zero Profile (no dedup, no compression, no
// name) is refused instead of silently running as a client that never
// shipped.
func TestNewDeviceRefusesZeroProfile(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	host := w.net.AddHost(wire.MakeIP(10, 0, 9, 1), "vp", netem.WiredWorkstation())
	dev, err := NewDevice(ClientConfig{
		Sched: w.sched, Rng: w.rng, Service: w.svc, Resolver: w.resolver,
		Stack: tcpsim.NewStack(host, w.sched, w.rng, tcpsim.DefaultIW),
	}, acct.ID)
	if err == nil || dev != nil || !strings.Contains(err.Error(), "capability profile has no name") {
		t.Fatalf("NewDevice with the zero profile = %v, %v; want a no-name error", dev, err)
	}
	if got := w.device(t, acct.ID, capability.DropboxV140()).Cfg.Caps; got != capability.DropboxV140() {
		t.Fatalf("device carries %+v, want the profile it was built with", got)
	}
}

// TestNoDedupUploadsDuplicateChunks pins the dedup knob on the packet
// path: content the service already holds is re-uploaded in full when the
// profile disables deduplication.
func TestNoDedupUploadsDuplicateChunks(t *testing.T) {
	w := newTW(t, 3)
	a1 := w.svc.Meta.CreateAccount()
	a2 := w.svc.Meta.CreateAccount()
	d1 := w.device(t, a1.ID, capability.DropboxV1252())
	d2 := w.device(t, a2.ID, func() capability.Profile {
		p := capability.NoDedup()
		p.Bundling = false // per-chunk ops make the op count assertable
		return p
	}())
	refs := mkRefs(900, 3, 100_000) // same content on both accounts
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
	if w.svc.StoreOps != 6 {
		t.Fatalf("store ops = %d: no-dedup should re-upload all 3 chunks", w.svc.StoreOps)
	}
	if d2stats.Skipped != 0 || d2stats.Chunks != 3 {
		t.Fatalf("second upload stats = %+v", d2stats)
	}
}

// TestPipelinedStoreRemovesAckFloor pins the pipelining knob: per-chunk
// operations issued without waiting for acknowledgments complete far
// faster than the sequentially-acknowledged baseline of Sec. 4.4.2.
func TestPipelinedStoreRemovesAckFloor(t *testing.T) {
	pipelined := capability.DropboxV1252()
	pipelined.Name = "pipelined-per-chunk"
	pipelined.CommitPipelining = true

	durations := map[string]time.Duration{}
	for name, caps := range map[string]capability.Profile{
		"sequential": capability.DropboxV1252(),
		"pipelined":  pipelined,
	} {
		w := newTW(t, 3)
		acct := w.svc.Meta.CreateAccount()
		dev := w.device(t, acct.ID, caps)
		var st TransferStats
		dev.OnTransferDone = func(s TransferStats) {
			if s.Kind == TransferStore {
				st = s
			}
		}
		dev.Start()
		refs := mkRefs(901, 30, 60_000)
		w.sched.After(time.Second, func() { dev.Upload(acct.Root, refs, identityWire, nil) })
		w.sched.RunUntil(simtime.Time(10 * time.Minute))
		if st.Chunks != 30 || st.Ops != 30 {
			t.Fatalf("%s: stats = %+v", name, st)
		}
		durations[name] = st.End.Sub(st.Start)
	}
	if durations["pipelined"]*2 > durations["sequential"] {
		t.Fatalf("pipelining should at least halve duration: sequential %v vs pipelined %v",
			durations["sequential"], durations["pipelined"])
	}
}

// TestPipelinedRetrieveCompletes exercises the pipelined download path end
// to end: every chunk arrives and is credited despite overlapping
// requests.
func TestPipelinedRetrieveCompletes(t *testing.T) {
	w := newTW(t, 3)
	acct := w.svc.Meta.CreateAccount()
	d1 := w.device(t, acct.ID, capability.DropboxV1252())
	d2 := w.device(t, acct.ID, func() capability.Profile {
		p := capability.FullPipeline()
		p.Bundling = false
		return p
	}())
	d1.Start()
	d2.Start()
	refs := mkRefs(902, 5, 200_000)
	var retr TransferStats
	d2.OnTransferDone = func(s TransferStats) {
		if s.Kind == TransferRetrieve {
			retr = s
		}
	}
	w.sched.After(5*time.Second, func() { d1.Upload(acct.Root, refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(4 * time.Minute))
	for _, r := range refs {
		if !d2.Has(r.Hash) {
			t.Fatalf("device 2 missing chunk %s", r.Hash.Short())
		}
	}
	if retr.Chunks != 5 || retr.Ops != 5 {
		t.Fatalf("retrieve stats = %+v", retr)
	}
}

// TestTransferAnsweredInsideSend: a storage call that cannot reach a
// server is answered before storageCall returns. The transfer loop must
// still send every operation once and finish the transaction exactly
// once, sequential or pipelined.
func TestTransferAnsweredInsideSend(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		w := newTW(t, 3)
		// The device's resolver knows the control and notification names
		// of the service's directory, but no storage name.
		blind := dnssim.NewResolver(dnssim.Build(dnssim.Layout{MetaIPs: 3, NotifyIPs: 4}), w.rng)
		caps := capability.DropboxV1252()
		caps.Dedup = false
		caps.CommitPipelining = pipelined
		acct := w.svc.Meta.CreateAccount()
		host := w.net.AddHost(wire.MakeIP(10, 0, 9, 1), "vp", netem.WiredWorkstation())
		dev, err := NewDevice(ClientConfig{
			Sched: w.sched, Rng: w.rng, Service: w.svc, Resolver: blind,
			Stack: tcpsim.NewStack(host, w.sched, w.rng, tcpsim.DefaultIW), Caps: caps,
		}, acct.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st TransferStats
		dev.OnTransferDone = func(s TransferStats) { st = s }
		dones := 0
		dev.Start()
		w.sched.After(time.Second, func() {
			dev.Upload(acct.Root, mkRefs(903, 6, 50_000), identityWire, func() { dones++ })
		})
		w.sched.RunUntil(simtime.Time(2 * time.Minute))
		if dones != 1 || st.Kind != TransferStore || st.Ops != 6 || st.Chunks != 6 {
			t.Fatalf("pipelined %v: onDone ran %d times, stats %+v; want once, 6 ops", pipelined, dones, st)
		}
		if w.svc.StoreOps != 0 {
			t.Fatalf("pipelined %v: %d store operations reached a server", pipelined, w.svc.StoreOps)
		}
	}
}
