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
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/wire"
)

// TestbedResult is what the decrypting-proxy-equivalent testbed produces:
// the protocol message sequence (Fig. 1) and annotated packet-level traces
// of one store and one retrieve flow (Fig. 19).
type TestbedResult struct {
	Figure1  *Result
	Figure19 *Result
}

// packetEvent is one captured frame with its annotation.
type packetEvent struct {
	at    simtime.Time
	out   bool
	flags wire.TCPFlags
	size  int
	note  string
	port  uint16
	srv   wire.IP
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
	var srv wire.IP
	var port uint16
	if dir == netem.TapOutbound {
		srv, port = f.IP.Dst, f.TCP.DstPort
	} else {
		srv, port = f.IP.Src, f.TCP.SrcPort
	}
	p.events = append(p.events, packetEvent{
		at: now, out: dir == netem.TapOutbound, flags: f.TCP.Flags,
		size: f.PayloadLen, note: note, port: port, srv: srv,
	})
}

// RunTestbed stands up the full service, runs one upload and one download
// through real clients, and renders the protocol dissection. Cancelling
// ctx stops the simulation at its next bounded slice and returns ctx.Err().
func RunTestbed(ctx context.Context, seed int64) (*TestbedResult, error) {
	sched := simtime.NewScheduler()
	rng := simrand.New(seed, "testbed")
	net := netem.New(sched, rng)
	net.SetCoreDelay("lab", dnssim.AmazonDC, 45*time.Millisecond)
	net.SetCoreDelay("lab", dnssim.DropboxDC, 85*time.Millisecond)
	dir := dnssim.Build(dnssim.Layout{MetaIPs: 2, NotifyIPs: 2, StorageNames: 8, StorageIPs: 8})
	svc := dropbox.NewService(dropbox.ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir, ServerTCP: tcpsim.DefaultConfig(),
	})
	resolver := dnssim.NewResolver(dir, rng)
	tap := &packetTap{}
	net.AttachTap("lab", tap)

	var msgLog []string
	svc.Trace = func(d, server string, meta any) {
		msgLog = append(msgLog, fmt.Sprintf("%-9s %-8s %-24s %T",
			sched.Now(), server, msgName(meta), meta))
	}

	mkDev := func(ip wire.IP, acct dropbox.AccountID) *dropbox.Device {
		host := net.AddHost(ip, "lab", netem.WiredWorkstation())
		stack := tcpsim.NewStack(host, sched, rng, tcpsim.DefaultConfig())
		dev, err := dropbox.NewDevice(dropbox.ClientConfig{
			Sched: sched, Rng: rng, Service: svc, Resolver: resolver,
			Stack: stack, Caps: capability.DropboxV1252(), Handshake: tlssim.DefaultHandshake(),
		}, acct)
		if err != nil {
			panic(err)
		}
		return dev
	}
	acct := svc.Meta.CreateAccount()
	up := mkDev(wire.MakeIP(10, 10, 0, 1), acct.ID)
	down := mkDev(wire.MakeIP(10, 10, 0, 2), acct.ID)
	up.Start()
	down.Start()

	var refs []chunker.Ref
	for i := 0; i < 3; i++ {
		f := chunker.SyntheticFile{Seed: uint64(i) + 100, Size: 300_000}
		refs = append(refs, f.Refs()...)
	}
	sched.After(3*time.Second, func() {
		up.Upload(acct.Root, refs, func(r chunker.Ref) int { return r.Size }, nil)
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
	return &TestbedResult{Figure1: fig1, Figure19: fig19}, nil
}

func msgName(meta any) string {
	name := fmt.Sprintf("%T", meta)
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// renderFlowTrace prints the packet sequence of the client's storage flow.
func renderFlowTrace(title string, events []packetEvent, client wire.IP) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	b.WriteString("time        dir  flags        len   note\n")
	b.WriteString(strings.Repeat("-", 60) + "\n")
	// Pick the flow to an Amazon storage address (184.72/16, port 443)
	// involving this client side: the tap records only server-side info,
	// so match on the storage server address range and time-cluster.
	count := 0
	var first simtime.Time
	seen := false
	for _, e := range events {
		if e.port != 443 || (uint32(e.srv)>>16) != (184<<8|72) {
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
