package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/wire"
)

// TestbedResult is what the decrypting-proxy-equivalent testbed produces:
// the protocol message sequence (Fig. 1) and annotated packet-level traces
// of one store and one retrieve flow (Fig. 19).
type TestbedResult struct {
	Figure1  *Result
	Figure19 *Result

	// The whole capture the figures render from: every frame the tap saw
	// and every message line of the servers' trace.
	frames   []packetEvent
	messages []string
}

// packetEvent is one captured frame with its annotation.
type packetEvent struct {
	at     simtime.Time
	out    bool
	flags  wire.TCPFlags
	size   int
	note   string
	port   uint16
	srv    wire.IP
	client wire.IP
}

// packetTap records frames for the Fig. 19 diagrams.
type packetTap struct {
	events []packetEvent
}

func (p *packetTap) Capture(now simtime.Time, f *wire.Frame, dir netem.TapDir) {
	note := ""
	if len(f.Payload) >= wire.RecordHeaderLen {
		if rec, _, err := wire.ParseRecord(f.Payload); err == nil || rec.Type != 0 {
			note = rec.Type.String()
		}
	}
	srv, client, port := f.IP.Src, f.IP.Dst, f.TCP.SrcPort
	if dir == netem.TapOutbound {
		srv, client, port = f.IP.Dst, f.IP.Src, f.TCP.DstPort
	}
	p.events = append(p.events, packetEvent{
		at: now, out: dir == netem.TapOutbound, flags: f.TCP.Flags,
		size: f.PayloadLen, note: note, port: port, srv: srv, client: client,
	})
}

// labSite is the one client site of both packet experiments.
const labSite = "lab"

// labCoreDelay is the one-way core delay from the lab to Amazon's storage
// servers (approximating Campus 2's ≈95 ms round trip); Dropbox's control
// and notification servers sit 40 ms further.
const labCoreDelay = 45 * time.Millisecond

// labCaps is the client of both packet experiments: 1.2.52, whose storage
// servers open at IW 2.
var labCaps = capability.DropboxV1252()

// labWorld is the simulated world both packet experiments run in: the lab
// site, the service's servers, the DNS directory and a resolver over it.
type labWorld struct {
	sched    *simtime.Scheduler
	rng      *simrand.Source
	net      *netem.Network
	svc      *dropbox.Service
	resolver *dnssim.Resolver
}

// newLabWorld builds the world from one rng stream; storageNames sizes the
// storage alias pool, serverIW the servers' initial window.
func newLabWorld(seed int64, stream string, storageNames, serverIW int) *labWorld {
	sched := simtime.NewScheduler()
	rng := simrand.New(seed, stream)
	net := netem.New(sched, rng)
	net.SetCoreDelay(labSite, dnssim.AmazonDC, labCoreDelay)
	net.SetCoreDelay(labSite, dnssim.DropboxDC, labCoreDelay+40*time.Millisecond)
	dir := dnssim.Build(dnssim.Layout{MetaIPs: 2, NotifyIPs: 2, StorageNames: storageNames, StorageIPs: storageNames})
	svc := dropbox.NewService(dropbox.ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir, ServerIW: serverIW,
	})
	return &labWorld{sched: sched, rng: rng, net: net, svc: svc, resolver: dnssim.NewResolver(dir, rng)}
}

// device links a 1.2.52 client on a new lab host to an account.
func (w *labWorld) device(ip wire.IP, access netem.AccessProfile, acct dropbox.AccountID) *dropbox.Device {
	host := w.net.AddHost(ip, labSite, access)
	stack := tcpsim.NewStack(host, w.sched, w.rng, tcpsim.DefaultIW)
	dev, err := dropbox.NewDevice(dropbox.ClientConfig{
		Sched: w.sched, Rng: w.rng, Service: w.svc, Resolver: w.resolver,
		Stack: stack, Caps: labCaps,
	}, acct)
	if err != nil {
		panic(err)
	}
	return dev
}

// RunTestbed stands up the full service, runs one upload and one download
// through real clients, and renders the protocol dissection. Cancelling
// ctx stops the simulation at its next bounded slice and returns ctx.Err().
func RunTestbed(ctx context.Context, seed int64) (*TestbedResult, error) {
	w := newLabWorld(seed, "testbed", 8, tcpsim.DefaultIW)
	sched, svc := w.sched, w.svc
	tap := &packetTap{}
	w.net.AttachTap(labSite, tap)

	var msgLog []string
	svc.Trace = func(server string, meta any) {
		msgLog = append(msgLog, fmt.Sprintf("%-9s %-8s %-24s %T",
			sched.Now(), server, msgName(meta), meta))
	}

	acct := svc.Meta.CreateAccount()
	up := w.device(wire.MakeIP(10, 10, 0, 1), netem.WiredWorkstation(), acct.ID)
	down := w.device(wire.MakeIP(10, 10, 0, 2), netem.WiredWorkstation(), acct.ID)
	up.Start()
	down.Start()

	var refs []chunker.Ref
	for i := 0; i < 3; i++ {
		f := chunker.SyntheticFile{Seed: uint64(i) + 100, Size: 300_000}
		refs = append(refs, f.Refs()...)
	}
	sched.After(3*time.Second, func() {
		up.Upload(refs, func(r chunker.Ref) int { return r.Size }, nil)
	})
	// Drive the session in bounded slices so a cancelled ctx stops the
	// dissection between slices instead of running the full six minutes.
	const horizon = 6 * time.Minute
	for at := 30 * time.Second; at <= horizon; at += 30 * time.Second {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sched.RunUntil(simtime.Time(at))
	}

	// ---- Fig. 1: message sequence ----
	fig1 := newResult("figure1", "Figure 1: The Dropbox protocol (testbed dissection)")
	var b strings.Builder
	b.WriteString("time      server   message                  type\n")
	b.WriteString(strings.Repeat("-", 70) + "\n")
	max := len(msgLog)
	if max > 40 {
		max = 40
	}
	for _, line := range msgLog[:max] {
		b.WriteString(line + "\n")
	}
	fig1.addText(b.String())
	fig1.Metrics["messages"] = float64(len(msgLog))
	seq := strings.Join(msgLog, "\n")
	for i, want := range []string{"MsgRegisterHost", "MsgList", "MsgCommitBatch", "MsgStore", "MsgCloseChangeset"} {
		if strings.Contains(seq, want) {
			fig1.Metrics[fmt.Sprintf("has_%d", i)] = 1
		}
	}

	// ---- Fig. 19: packet diagrams ----
	fig19 := newResult("figure19", "Figure 19: Typical flows in storage operations (packet traces)")
	fig19.addText(renderFlowTrace("(a) store flow", tap.events, wire.MakeIP(10, 10, 0, 1)))
	fig19.addText(renderFlowTrace("(b) retrieve flow", tap.events, wire.MakeIP(10, 10, 0, 2)))
	fig19.Metrics["captured_packets"] = float64(len(tap.events))
	return &TestbedResult{Figure1: fig1, Figure19: fig19, frames: tap.events, messages: msgLog}, nil
}

func msgName(meta any) string {
	name := fmt.Sprintf("%T", meta)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// renderFlowTrace prints the packet sequence of the client's first
// storage flow: its frames to and from an Amazon storage address
// (184.72/16, port 443), up to 90 s after the first one.
func renderFlowTrace(title string, events []packetEvent, client wire.IP) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	b.WriteString("time        dir  flags        len   note\n")
	b.WriteString(strings.Repeat("-", 60) + "\n")
	count := 0
	var first simtime.Time
	seen := false
	for _, e := range events {
		if e.client != client || e.port != 443 || (uint32(e.srv)>>16) != (184<<8|72) {
			continue
		}
		if !seen {
			first = e.at
			seen = true
		}
		if e.at.Sub(first) > 90*time.Second && count > 10 {
			break
		}
		dir := "<-"
		if e.out {
			dir = "->"
		}
		note := e.note
		if e.size == 0 {
			note = "(ack)"
		}
		fmt.Fprintf(&b, "%-11s %s   %-12s %-5d %s\n", e.at, dir, e.flags, e.size, note)
		count++
		if count >= 28 {
			fmt.Fprintf(&b, "... (%s)\n", "remaining packets elided")
			break
		}
	}
	if count == 0 {
		b.WriteString("(no storage flow captured)\n")
	}
	b.WriteString("\n")
	return b.String()
}
