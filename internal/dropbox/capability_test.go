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
	ops := w.countOps()
	d1.Start()
	d2.Start()
	w.sched.After(time.Second, func() { d1.Upload(refs, identityWire, nil) })
	w.sched.After(30*time.Second, func() { d2.Upload(refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(120 * time.Second))
	if ops.store != 6 {
		t.Fatalf("store ops = %d: no-dedup should re-upload all 3 chunks", ops.store)
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
		ops := w.countOps()
		dev.Start()
		durations[name] = w.uploadTime(t, dev, mkRefs(901, 30, 60_000), 10*time.Minute)
		if len(w.svc.Meta.chunks) != 30 || ops.store != 30 {
			t.Fatalf("%s: %d chunks stored in %d ops, want 30 in 30", name, len(w.svc.Meta.chunks), ops.store)
		}
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
	ops := w.countOps()
	w.sched.After(5*time.Second, func() { d1.Upload(refs, identityWire, nil) })
	w.sched.RunUntil(simtime.Time(4 * time.Minute))
	if !holds(d2, refs) {
		t.Fatal("device 2 is missing chunks")
	}
	if ops.retrieve != 5 {
		t.Fatalf("retrieve ops = %d, want 5", ops.retrieve)
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
		ops := w.countOps()
		dones := 0
		dev.Start()
		w.sched.After(time.Second, func() {
			dev.Upload(mkRefs(903, 6, 50_000), identityWire, func() { dones++ })
		})
		w.sched.RunUntil(simtime.Time(2 * time.Minute))
		// Every operation tries one storage name from the list response
		// and finds no server behind it.
		if dones != 1 || dev.nameIdx != 6 {
			t.Fatalf("pipelined %v: onDone ran %d times after %d storage dials; want once after 6", pipelined, dones, dev.nameIdx)
		}
		if ops.store != 0 {
			t.Fatalf("pipelined %v: %d store operations reached a server", pipelined, ops.store)
		}
	}
}
