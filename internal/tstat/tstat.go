// Package tstat implements the passive probe of the measurement setup: a
// Tstat-like flow monitor attached to the border of a vantage point.
//
// From the packet stream it reconstructs per-flow records with the metrics
// the paper relies on (Sec. 3.1): payload bytes per direction, packet and
// PSH-flag counts, retransmissions, the minimum probe-to-server RTT from
// sequence/acknowledgment matching, TLS server-name and certificate
// extraction by classic DPI, cleartext notification-protocol parsing
// (device identifiers and namespace lists), and DNS-based FQDN labeling of
// server addresses.
package tstat

import (
	"cmp"
	"slices"
	"time"

	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

// The standard probe settings.
const (
	// dpiBudget caps the payload bytes buffered per direction for DPI.
	dpiBudget = 4096
	// idleTimeout finalizes flows with no traffic for this long.
	idleTimeout = 5 * time.Minute
	// sweepEvery sets the idle-scan cadence.
	sweepEvery = 30 * time.Second
)

// Probe is a passive flow monitor. Attach it to a netem site with
// Network.AttachTap and feed DNS events via ObserveDNS. A probe fed no DNS
// events labels no FQDN, as Campus 2's could not see DNS traffic (Sec.
// 3.2), which disables per-service FQDN breakdowns there.
type Probe struct {
	vp string // names the vantage point in exported records

	// OnRecord receives each finalized flow record.
	OnRecord func(*traces.FlowRecord)

	flows map[wire.FlowKey]*flowState
	fqdn  map[wire.IP]string
	// tombstones swallow straggler packets of flows just finalized by a
	// RST, so in-flight segments do not spawn ghost flows.
	tombstones map[wire.FlowKey]simtime.Time
}

// New builds a probe and starts its idle sweeper.
func New(sched *simtime.Scheduler, vp string) *Probe {
	p := &Probe{
		vp:         vp,
		flows:      make(map[wire.FlowKey]*flowState),
		fqdn:       make(map[wire.IP]string),
		tombstones: make(map[wire.FlowKey]simtime.Time),
	}
	sched.NewTicker(sweepEvery, func(now simtime.Time) { p.sweep(now, false) })
	return p
}

// ObserveDNS records a resolution so later flows to the server IP can be
// labeled with the requested FQDN. Plug into dnssim.Resolver.Log.
func (p *Probe) ObserveDNS(e dnssim.Event) {
	p.fqdn[e.Server] = e.FQDN
}

// pendingSample is an outbound segment awaiting its acknowledgment.
type pendingSample struct {
	wantAck uint32
	at      simtime.Time
}

type flowState struct {
	rec traces.FlowRecord

	upInit, downInit bool
	maxSeqEndUp      uint32
	maxSeqEndDown    uint32
	pending          []pendingSample // outbound segments awaiting acks
	upDPI, downDPI   []byte
	finUp, finDown   bool
	lastActivity     simtime.Time
	minRTT           time.Duration
	rttSamples       int
}

// seqAfter reports whether a comes strictly after b in sequence space.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// Capture implements netem.Tap.
func (p *Probe) Capture(now simtime.Time, f *wire.Frame, dir netem.TapDir) {
	key, _ := wire.Canonical(f)
	fs := p.flows[key]
	if fs == nil {
		if t, dead := p.tombstones[key]; dead {
			if now.Sub(t) < 30*time.Second {
				return // straggler of a reset flow
			}
			delete(p.tombstones, key)
		}
	}
	if fs == nil {
		fs = &flowState{minRTT: -1}
		fs.rec.VP = p.vp
		fs.rec.FirstPacket = now.Duration()
		// The client is the endpoint inside the monitored site.
		if dir == netem.TapOutbound {
			fs.rec.Client, fs.rec.ClientPort = f.IP.Src, f.TCP.SrcPort
			fs.rec.Server, fs.rec.ServerPort = f.IP.Dst, f.TCP.DstPort
		} else {
			fs.rec.Client, fs.rec.ClientPort = f.IP.Dst, f.TCP.DstPort
			fs.rec.Server, fs.rec.ServerPort = f.IP.Src, f.TCP.SrcPort
		}
		p.flows[key] = fs
	}
	fs.rec.LastPacket = now.Duration()
	fs.lastActivity = now

	up := dir == netem.TapOutbound
	flags := f.TCP.Flags
	if flags.Has(wire.FlagSYN) {
		fs.rec.SawSYN = true
	}
	if flags.Has(wire.FlagRST) {
		fs.rec.SawRST = true
		p.tombstones[key] = now
		p.finalize(key, fs)
		return
	}
	if flags.Has(wire.FlagFIN) {
		fs.rec.SawFIN = true
		if up {
			fs.finUp = true
		} else {
			fs.finDown = true
			if !fs.finUp {
				fs.rec.ServerClosed = true
			}
		}
	}

	if up {
		p.accountUp(now, fs, f)
	} else {
		p.accountDown(now, fs, f)
		if flags.Has(wire.FlagACK) {
			p.sampleRTT(now, fs, f.TCP.Ack)
		}
	}

	if fs.finUp && fs.finDown {
		p.finalize(key, fs)
	}
}

func (p *Probe) accountUp(now simtime.Time, fs *flowState, f *wire.Frame) {
	fs.rec.PktsUp++
	consumed := uint32(f.PayloadLen)
	if f.TCP.Flags.Has(wire.FlagSYN) || f.TCP.Flags.Has(wire.FlagFIN) {
		consumed++
	}
	seqEnd := f.TCP.Seq + consumed
	isRetrans := false
	if f.PayloadLen > 0 {
		if !fs.upInit || seqAfter(seqEnd, fs.maxSeqEndUp) {
			newBytes := f.PayloadLen
			if fs.upInit {
				if delta := int(seqEnd - fs.maxSeqEndUp); delta < newBytes {
					newBytes = delta // partial overlap
				}
			}
			fs.rec.BytesUp += int64(newBytes)
			fs.maxSeqEndUp = seqEnd
			fs.upInit = true
		} else {
			isRetrans = true
			fs.rec.RetransUp++
		}
		fs.rec.LastPayloadUp = now.Duration()
		if f.TCP.Flags.Has(wire.FlagPSH) {
			fs.rec.PSHUp++
		}
		if len(fs.upDPI) < dpiBudget {
			fs.upDPI = append(fs.upDPI, f.Payload...)
		}
	} else if f.TCP.Flags.Has(wire.FlagSYN) && !fs.upInit {
		fs.maxSeqEndUp = seqEnd
		fs.upInit = true
	}

	// Queue an RTT probe: the time until the server acknowledges this
	// segment is the probe->server round trip (Karn: skip retransmits and
	// cancel samples they invalidate).
	if consumed > 0 {
		if isRetrans {
			for i := range fs.pending {
				if fs.pending[i].wantAck == seqEnd {
					fs.pending = append(fs.pending[:i], fs.pending[i+1:]...)
					break
				}
			}
		} else if len(fs.pending) < 32 {
			fs.pending = append(fs.pending, pendingSample{wantAck: seqEnd, at: now})
		}
	}
}

func (p *Probe) accountDown(now simtime.Time, fs *flowState, f *wire.Frame) {
	fs.rec.PktsDown++
	consumed := uint32(f.PayloadLen)
	if f.TCP.Flags.Has(wire.FlagSYN) || f.TCP.Flags.Has(wire.FlagFIN) {
		consumed++
	}
	seqEnd := f.TCP.Seq + consumed
	if f.PayloadLen > 0 {
		if !fs.downInit || seqAfter(seqEnd, fs.maxSeqEndDown) {
			newBytes := f.PayloadLen
			if fs.downInit {
				if delta := int(seqEnd - fs.maxSeqEndDown); delta < newBytes {
					newBytes = delta
				}
			}
			fs.rec.BytesDown += int64(newBytes)
			fs.maxSeqEndDown = seqEnd
			fs.downInit = true
		} else {
			fs.rec.RetransDown++
		}
		fs.rec.LastPayloadDown = now.Duration()
		if f.TCP.Flags.Has(wire.FlagPSH) {
			fs.rec.PSHDown++
		}
		if len(fs.downDPI) < dpiBudget {
			fs.downDPI = append(fs.downDPI, f.Payload...)
		}
	} else if f.TCP.Flags.Has(wire.FlagSYN) && !fs.downInit {
		fs.maxSeqEndDown = seqEnd
		fs.downInit = true
	}
}

// sampleRTT matches an inbound acknowledgment against outbound segments.
func (p *Probe) sampleRTT(now simtime.Time, fs *flowState, ack uint32) {
	kept := fs.pending[:0]
	for _, ps := range fs.pending {
		if int32(ack-ps.wantAck) >= 0 {
			rtt := now.Sub(ps.at)
			if rtt > 0 {
				if fs.minRTT < 0 || rtt < fs.minRTT {
					fs.minRTT = rtt
				}
				fs.rttSamples++
			}
		} else {
			kept = append(kept, ps)
		}
	}
	fs.pending = kept
}

// FlushAll finalizes every tracked flow (campaign end).
func (p *Probe) FlushAll() { p.sweep(0, true) }

// sweep finalizes idle flows, or every flow when all is set, in
// (FirstPacket, FlowKey) order so records never reach OnRecord in map order.
func (p *Probe) sweep(now simtime.Time, all bool) {
	var keys []wire.FlowKey
	for key, fs := range p.flows {
		if all || now.Sub(fs.lastActivity) >= idleTimeout {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, func(a, b wire.FlowKey) int {
		return cmp.Or(cmp.Compare(p.flows[a].rec.FirstPacket, p.flows[b].rec.FirstPacket),
			cmp.Compare(a.A.Addr, b.A.Addr), cmp.Compare(a.A.Port, b.A.Port),
			cmp.Compare(a.B.Addr, b.B.Addr), cmp.Compare(a.B.Port, b.B.Port))
	})
	for _, key := range keys {
		p.finalize(key, p.flows[key])
	}
}

func (p *Probe) finalize(key wire.FlowKey, fs *flowState) {
	delete(p.flows, key)
	rec := &fs.rec
	if fs.minRTT > 0 {
		rec.MinRTT = fs.minRTT
		rec.RTTSamples = fs.rttSamples
	}
	// DPI extraction over the buffered prefixes.
	if sni, ok := wire.ExtractSNI(fs.upDPI); ok {
		rec.SNI = sni
	}
	if cn, ok := wire.ExtractCertName(fs.downDPI); ok {
		rec.CertName = cn
	}
	if rec.ServerPort == 80 {
		if req, ok := wire.ParseNotifyRequest(fs.upDPI); ok {
			rec.NotifyHost = req.Host
			rec.NotifyNamespaces = req.Namespaces
		}
	}
	rec.FQDN = p.fqdn[rec.Server]
	if p.OnRecord != nil {
		p.OnRecord(rec)
	}
}
