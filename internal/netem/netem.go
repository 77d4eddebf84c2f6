// Package netem emulates the network topology between clients and
// data-centers: per-host access links (rate, delay), a core with
// per-site-pair propagation delays, loss, and passive probe taps at the
// border of monitored sites.
//
// The topology mirrors the measurement setup of the paper: the probe sits at
// the border router of a campus or ISP Point of Presence, so captured
// timestamps exclude the client's access segment (the paper's Sec. 4.2
// filters access-technology effects the same way) while including the full
// core path toward the U.S. data-centers.
package netem

import (
	"fmt"
	"time"

	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/wire"
)

// SiteID names a location: a vantage point ("campus1") or a data-center
// ("dropbox-dc", "amazon-dc").
type SiteID string

// TapDir tells a probe which way a captured frame was traveling relative to
// the monitored site.
type TapDir uint8

// Tap directions.
const (
	TapOutbound TapDir = iota // leaving the monitored site toward the core
	TapInbound                // arriving from the core
)

func (d TapDir) String() string {
	if d == TapOutbound {
		return "out"
	}
	return "in"
}

// Tap receives every frame crossing a monitored site border, with the
// capture timestamp. The frame belongs to the network and is reused once
// its last event has fired: implementations must not retain it past the
// call unless they copy it.
type Tap interface {
	Capture(now simtime.Time, f *wire.Frame, dir TapDir)
}

// AccessProfile describes a host's access link.
type AccessProfile struct {
	UpRate   float64       // bytes/second toward the core; 0 = unlimited
	DownRate float64       // bytes/second from the core; 0 = unlimited
	Delay    time.Duration // one-way host <-> site border
	Loss     float64       // per-packet loss probability on the access segment
}

// queueBytes caps the drop-tail buffer ahead of each rate-limited
// direction; packets arriving with more than this backlog are dropped,
// bounding bufferbloat as a real access router does.
const queueBytes = 256 << 10

// serialize queues size bytes on a link direction sending at rate, busy until
// *busy; it returns when the last bit leaves, or false on a full queue.
func serialize(busy *simtime.Time, now simtime.Time, size int, rate float64) (simtime.Time, bool) {
	start := max(now, *busy)
	if rate > 0 && int(float64(start.Sub(now))/float64(time.Second)*rate) > queueBytes {
		return 0, false
	}
	*busy = start.Add(transmissionDelay(size, rate))
	return *busy, true
}

// Access profiles matching the technologies of Table 2.
func WiredWorkstation() AccessProfile { // Campus 1: 100 Mb/s switched LAN
	return AccessProfile{UpRate: 12.5e6, DownRate: 12.5e6, Delay: 200 * time.Microsecond}
}
func CampusWireless() AccessProfile { // Campus 2 APs: lossier, slower
	return AccessProfile{UpRate: 2.5e6, DownRate: 2.5e6, Delay: 2 * time.Millisecond, Loss: 0.004}
}
func DataCenter() AccessProfile { // server farms: effectively unconstrained
	return AccessProfile{UpRate: 0, DownRate: 0, Delay: 100 * time.Microsecond}
}

// Network is the emulated topology. Not safe for concurrent use; the whole
// simulation is single-goroutine and driven by the scheduler.
type Network struct {
	Sched *simtime.Scheduler

	rng       *simrand.Source
	hosts     map[wire.IP]*Host
	coreDelay map[[2]SiteID]time.Duration
	coreLoss  float64
	taps      map[SiteID][]Tap

	ver     uint64    // bumped when a core delay or tap changes
	free    []*packet // recycled packets
	dropped uint64    // packets lost on the way
}

// route is one (source, destination) host pair: the FIFO clamp against
// jitter reordering, and its sites' delay and taps as of network version ver.
type route struct {
	dst              *Host
	last             simtime.Time
	ver              uint64
	core             time.Duration
	srcTaps, dstTaps []Tap
}

// packet is a frame in flight, owned by the network from Send until the
// last event holding it has run. Its callbacks are bound once.
type packet struct {
	f                          wire.Frame
	dst                        *Host
	outTaps, inTaps            []Tap
	lost                       bool // dropped on the destination access segment
	refs                       int  // Send's hold plus the events still pending
	outFn, arriveFn, deliverFn func()
}

// New creates an empty network on the scheduler.
func New(sched *simtime.Scheduler, rng *simrand.Source) *Network {
	return &Network{
		Sched:     sched,
		rng:       rng.Fork("netem"),
		hosts:     make(map[wire.IP]*Host),
		coreDelay: make(map[[2]SiteID]time.Duration),
		taps:      make(map[SiteID][]Tap),
	}
}

// SetCoreDelay sets the one-way propagation delay between two sites (both
// directions).
func (n *Network) SetCoreDelay(a, b SiteID, d time.Duration) {
	n.coreDelay[[2]SiteID{a, b}] = d
	n.coreDelay[[2]SiteID{b, a}] = d
	n.ver++
}

// CoreDelay returns the configured one-way delay between sites, or a small
// default when unset (hosts within the same site).
func (n *Network) CoreDelay(a, b SiteID) time.Duration {
	if a == b {
		return 50 * time.Microsecond
	}
	if d, ok := n.coreDelay[[2]SiteID{a, b}]; ok {
		return d
	}
	return 5 * time.Millisecond
}

// SetCoreLoss sets the per-packet loss probability in the core.
func (n *Network) SetCoreLoss(p float64) { n.coreLoss = p }

// AttachTap registers a probe at a site's border.
func (n *Network) AttachTap(site SiteID, t Tap) {
	n.taps[site] = append(n.taps[site], t)
	n.ver++
}

// Host is an attached endpoint. Receive is invoked for every delivered
// frame; the TCP layer installs it. As with a Tap, the frame is the
// network's: Receive must not retain it past the call unless it copies it.
type Host struct {
	IP      wire.IP
	Site    SiteID
	Access  AccessProfile
	Receive func(now simtime.Time, f *wire.Frame)

	net              *Network
	upBusy, downBusy simtime.Time
	routes           map[wire.IP]*route // by destination
}

// AddHost attaches a host. IPs must be unique.
func (n *Network) AddHost(ip wire.IP, site SiteID, access AccessProfile) *Host {
	if _, dup := n.hosts[ip]; dup {
		panic(fmt.Sprintf("netem: duplicate host %s", ip))
	}
	h := &Host{IP: ip, Site: site, Access: access, net: n, routes: make(map[wire.IP]*route)}
	n.hosts[ip] = h
	return h
}

// Host returns the host with the given address, or nil.
func (n *Network) Host(ip wire.IP) *Host { return n.hosts[ip] }

// route returns the route toward dst, refreshed if a core delay or tap
// changed since its last use, or nil when no such host exists.
func (h *Host) route(dst wire.IP) *route {
	n, r := h.net, h.routes[dst]
	if r == nil || r.ver != n.ver {
		d := n.hosts[dst]
		if d == nil {
			return nil
		}
		if r == nil {
			r = &route{}
			h.routes[dst] = r
		}
		r.dst, r.ver, r.core = d, n.ver, n.CoreDelay(h.Site, d.Site)
		r.srcTaps, r.dstTaps = n.taps[h.Site], n.taps[d.Site]
	}
	return r
}

// Send injects a frame originating at this host. Delivery is scheduled
// through uplink serialization, the core, the destination's downlink, and
// any probe taps along the way. Send copies the frame: the caller may
// reuse it as soon as Send returns.
func (h *Host) Send(f *wire.Frame) {
	n := h.net
	r := h.route(f.IP.Dst)
	if r == nil {
		n.dropped++
		return
	}

	// Uplink serialization at the sender's access link, drop-tail bounded.
	txDone, ok := serialize(&h.upBusy, n.Sched.Now(), f.WireLen(), h.Access.UpRate)
	if !ok {
		n.dropped++
		return
	}

	// Loss on the sender's access segment happens before the probe sees the
	// frame (an upload lost on campus WiFi never reaches the border).
	if h.Access.Loss > 0 && n.rng.Bool(h.Access.Loss) {
		n.dropped++
		return
	}

	// A pooled packet copies the frame, held by Send until it returns.
	var p *packet
	if k := len(n.free); k > 0 {
		p, n.free = n.free[k-1], n.free[:k-1]
	} else {
		p = &packet{}
		p.outFn, p.arriveFn, p.deliverFn = p.outbound, p.arrive, p.deliver
	}
	p.f, p.dst, p.outTaps, p.inTaps, p.lost, p.refs = *f, r.dst, r.srcTaps, r.dstTaps, false, 1
	defer p.release()

	// Border of the source site: outbound tap.
	srcBorder := txDone.Add(h.Access.Delay)
	if len(p.outTaps) > 0 {
		p.hold(srcBorder, p.outFn)
	}

	// Core traversal.
	if n.coreLoss > 0 && n.rng.Bool(n.coreLoss) {
		n.dropped++
		return
	}
	// Small queueing jitter, FIFO-clamped per host pair so TCP never sees
	// spurious reordering from the emulator itself.
	jitter := time.Duration(n.rng.Uniform(0, 0.002) * float64(r.core))
	dstBorder := max(srcBorder.Add(r.core+jitter), r.last)
	r.last = dstBorder

	// Loss on the receiver's access segment happens after the probe: the
	// probe counts the eventual retransmission as such.
	if r.dst.Access.Loss > 0 && n.rng.Bool(r.dst.Access.Loss) {
		n.dropped++
		p.lost = true
	}
	// Border of the destination site: inbound taps, then the downlink.
	if len(p.inTaps) > 0 || !p.lost {
		p.hold(dstBorder, p.arriveFn)
	}
}

// hold schedules fn at the instant with the packet held for it.
func (p *packet) hold(at simtime.Time, fn func()) {
	p.refs++
	p.dst.net.Sched.At(at, fn)
}

// release drops one hold and recycles the packet after the last.
func (p *packet) release() {
	if p.refs--; p.refs == 0 {
		p.dst.net.free = append(p.dst.net.free, p)
	}
}

func (p *packet) outbound() {
	defer p.release()
	for _, t := range p.outTaps {
		t.Capture(p.dst.net.Sched.Now(), &p.f, TapOutbound)
	}
}

// arrive runs at the destination border: inbound taps, then downlink
// serialization, drop-tail bounded, then delivery.
func (p *packet) arrive() {
	defer p.release()
	dst, now := p.dst, p.dst.net.Sched.Now()
	for _, t := range p.inTaps {
		t.Capture(now, &p.f, TapInbound)
	}
	if p.lost {
		return
	}
	rxDone, ok := serialize(&dst.downBusy, now, p.f.WireLen(), dst.Access.DownRate)
	if !ok {
		dst.net.dropped++
		return
	}
	p.hold(rxDone.Add(dst.Access.Delay), p.deliverFn)
}

func (p *packet) deliver() {
	defer p.release()
	if p.dst.Receive != nil {
		p.dst.Receive(p.dst.net.Sched.Now(), &p.f)
	}
}

// transmissionDelay returns size/rate, or zero for unlimited links.
func transmissionDelay(size int, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(size) / rate * float64(time.Second))
}
