// Package flowmodel is the calibrated flow-level model of Dropbox storage
// flows: it synthesizes the flow records a probe would emit for a given
// transfer without simulating packets, using the protocol constants of
// Appendix A and a slow-start latency model following Dukkipati et al. [4]
// (the θ bound of Fig. 9).
//
// The paper's authors did the same in reverse: they measured per-operation
// overheads in a testbed and built flow-level models to interpret passive
// traces. Here the packet-level path (tcpsim + tlssim + tstat) is the
// ground truth. Four calibration cases in this package's tests run one
// transfer through both engines and compare the records:
//   - TestCalibrationStoreV1252: bytes both ways and PSH counts exactly,
//     duration within 35 %;
//   - TestCalibrationRetrieveV1252: bytes down and PSH counts exactly,
//     duration within 35 %;
//   - TestCalibrationStoreV140: bytes up and PSH down exactly;
//   - TestCalibrationRetrieveV140: operation count, bytes down and PSH
//     counts of a bundled retrieve of compressible chunks.
//
// Both engines group chunks through dropbox.PlanTransfer. Population-scale
// campaigns (42 days, thousands of households) then use this fast path.
package flowmodel

import (
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

// Params captures the path and protocol configuration of a vantage point.
type Params struct {
	// RTT is the probe-to-storage-server round trip.
	RTT time.Duration
	// Bandwidth is the bottleneck rate in bytes/second (min of access link
	// and per-server ceiling; the paper observed ~10 Mbit/s maxima).
	Bandwidth float64
	// IW is the server's initial congestion window in segments: 2 before
	// the 1.4.0 deployment (one extra handshake RTT), 3 after.
	IW int
	// ClientReaction / ServerReaction are median per-operation processing
	// times (Sec. 4.4.2 attributes much of long-flow duration to them).
	ClientReaction time.Duration
	ServerReaction time.Duration
	// Caps is the client's capability profile: operation grouping follows
	// its bundling knobs (per-chunk for 1.2.52, bundled for 1.4.0), and
	// CommitPipelining switches the timing model from sequential
	// per-operation acknowledgments to overlapped transfers.
	Caps capability.Profile
}

// DefaultParams matches the packet-level defaults for a campus client.
func DefaultParams(rtt time.Duration) Params {
	return Params{
		RTT:            rtt,
		Bandwidth:      1.25e6,
		IW:             3,
		ClientReaction: 70 * time.Millisecond,
		ServerReaction: 45 * time.Millisecond,
		Caps:           capability.DropboxV1252(),
	}
}

// HandshakeRTTs returns the round trips before application data can flow:
// 1 TCP + 2 TLS, plus one more when the server's initial window cannot
// carry its 4031-byte first flight (IW=2, the pre-1.4.0 behaviour).
func HandshakeRTTs(iw int) int {
	if iw*wire.MSS >= 4031 {
		return 3
	}
	return 4
}

// ThetaLatency is the minimum time to complete a transfer of the given
// payload assuming the flow never leaves slow start: handshake round trips
// plus one round per congestion-window doubling (computed as in Dukkipati
// et al., adjusted for the SSL handshake overhead as the paper does).
func ThetaLatency(payload int64, rtt time.Duration, iw int) time.Duration {
	rounds := HandshakeRTTs(iw)
	cwnd := int64(iw) * wire.MSS
	remaining := payload
	for remaining > 0 {
		rounds++
		remaining -= cwnd
		cwnd *= 2
	}
	return time.Duration(rounds) * rtt
}

// Theta returns the slow-start throughput bound in bits/second for a
// transfer of the given payload (the θ curve of Fig. 9).
func Theta(payload int64, rtt time.Duration, iw int) float64 {
	if payload <= 0 {
		return 0
	}
	lat := ThetaLatency(payload, rtt, iw).Seconds()
	if lat <= 0 {
		return 0
	}
	return float64(payload) * 8 / lat
}

// StorageFlowSpec describes one storage flow to synthesize.
type StorageFlowSpec struct {
	Dir        classify.Direction
	ChunkWires []int // compressed per-chunk transfer sizes of one transaction
	Start      time.Duration
	// ServerClosesIdle marks the flow as ending via the server's 60 s
	// idle close (alert + FIN answered by a client RST), the common case.
	ServerClosesIdle bool
}

// cwndModel tracks analytic slow-start growth across a flow.
type cwndModel struct {
	cwnd int64
	cap  int64
}

func newCwnd(iw int) *cwndModel {
	return &cwndModel{cwnd: int64(iw) * wire.MSS, cap: 1 << 20}
}

// transfer returns the time to move n bytes at the current window over a
// path with the given RTT and bottleneck rate, advancing the window.
func (c *cwndModel) transfer(n int64, rtt time.Duration, bw float64) time.Duration {
	var t time.Duration
	for n > 0 {
		send := c.cwnd
		if n < send {
			send = n
		}
		round := rtt
		if bw > 0 {
			tx := time.Duration(float64(send) / bw * float64(time.Second))
			if tx > round {
				round = tx
			}
		}
		t += round
		n -= send
		c.cwnd *= 2
		if c.cwnd > c.cap {
			c.cwnd = c.cap
		}
	}
	return t
}

// Synth carries the reusable scratch state of one synthesizing goroutine
// (the operation plan's buffer). The zero value is ready to use; a Synth
// must not be shared across goroutines. Population-scale generators hold
// one per shard so per-flow synthesis allocates nothing but the record —
// and not even that when the caller supplies pooled records to
// SynthesizeInto.
type Synth struct {
	ops []dropbox.PlanOp
}

// Synthesize produces the flow record the probe would emit for the spec.
// Byte counts follow the protocol constants exactly; durations follow the
// slow-start model plus per-operation reaction times and the sequential
// acknowledgment round trips.
func Synthesize(rng *simrand.Source, p Params, spec StorageFlowSpec) *traces.FlowRecord {
	s := Synth{ops: make([]dropbox.PlanOp, 0, len(spec.ChunkWires))}
	return s.SynthesizeInto(new(traces.FlowRecord), rng, p, spec)
}

// SynthesizeInto is Synthesize writing into caller-supplied storage: rec
// must be zero-valued (freshly allocated or reset by a record pool) and is
// returned filled. Nothing in rec is retained by the Synth.
func (s *Synth) SynthesizeInto(rec *traces.FlowRecord, rng *simrand.Source, p Params, spec StorageFlowSpec) *traces.FlowRecord {
	ops := dropbox.PlanTransfer(s.ops[:0], p.Caps, spec.ChunkWires)
	s.ops = ops
	rec.FirstPacket = spec.Start
	rec.SawSYN = true
	rec.SNI = "dl-client0.dropbox.com"
	rec.CertName = "*.dropbox.com"
	rec.ServerPort = 443

	// --- byte accounting (exact) ---
	up := int64(tlssim.ClientHandshakeBytes)
	down := int64(tlssim.ServerHandshakeBytes)
	pshUp, pshDown := 2, 2 // hello + finish in each direction
	for _, o := range ops {
		if spec.Dir == classify.DirStore {
			up += int64(tlssim.MessageWireSize(dropbox.StoreClientOverhead + o.Wire))
			down += int64(tlssim.MessageWireSize(dropbox.ServerOpOverhead))
			pshUp++   // data message
			pshDown++ // OK
		} else {
			up += int64(tlssim.MessageWireSize(dropbox.RetrieveRequestSize(rng)))
			down += int64(tlssim.MessageWireSize(dropbox.ServerOpOverhead + o.Wire))
			pshUp += 2 // request sent as two PSH writes (Fig. 19b)
			pshDown++
		}
	}
	if spec.ServerClosesIdle {
		down += int64(wire.RecordHeaderLen + 2) // close-notify alert
		pshDown++
		rec.ServerClosed = true
		rec.SawRST = true // client answers with RST
	} else {
		rec.SawFIN = true
	}
	rec.BytesUp, rec.BytesDown = up, down
	rec.PSHUp, rec.PSHDown = pshUp, pshDown

	// --- timing model ---
	rtt := time.Duration(rng.Jitter(p.RTT, 0.01))
	t := spec.Start + time.Duration(HandshakeRTTs(p.IW))*rtt
	cw := newCwnd(p.IW)
	var lastUp, lastDown time.Duration
	lastUp = t - rtt/2 // client finish write
	lastDown = t - rtt // server finish
	if p.Caps.CommitPipelining && len(ops) > 0 {
		// Pipelined commits: every operation is issued without waiting for
		// the previous acknowledgment, so per-operation round trips and
		// server reactions overlap with data transfer (removing the
		// sequential-acknowledgment floor of Sec. 4.4.2). What remains is
		// the client's own issue spacing — the packet-level pipelined
		// client still separates issues by a reaction time (hashing,
		// compression), so the flow takes at least that long — plus one
		// exposed server reaction at the boundary.
		var issueSpan time.Duration
		for i := range ops {
			if i > 0 {
				issueSpan += dropbox.Reaction(rng, p.ClientReaction)
			}
		}
		srv := dropbox.Reaction(rng, p.ServerReaction)
		var payload int64
		for _, o := range ops {
			if spec.Dir == classify.DirStore {
				payload += int64(dropbox.StoreClientOverhead + o.Wire)
			} else {
				payload += int64(dropbox.ServerOpOverhead + o.Wire)
			}
		}
		span := cw.transfer(payload, rtt, p.Bandwidth)
		if issueSpan > span {
			span = issueSpan
		}
		if spec.Dir == classify.DirStore {
			t += span
			lastUp = t - rtt/2 // last data segment passes the probe
			t += srv           // final OK trails the stream
			lastDown = t
		} else {
			// Requests issue from the handshake end over issueSpan; the
			// last one, not the first, is the final upstream payload
			// (otherwise long transfers trip the 60 s idle-close
			// compensation in classify.TransferDuration).
			lastUp = t + issueSpan
			t += rtt/2 + srv // first request reaches server, processing
			t += span
			lastDown = t - rtt/2
		}
	} else {
		for i, o := range ops {
			if i > 0 {
				t += dropbox.Reaction(rng, p.ClientReaction)
			}
			srv := dropbox.Reaction(rng, p.ServerReaction)
			if spec.Dir == classify.DirStore {
				dataT := cw.transfer(int64(dropbox.StoreClientOverhead+o.Wire), rtt, p.Bandwidth)
				t += dataT
				lastUp = t - rtt/2 // last data segment passes the probe
				t += srv           // server processes, then the OK returns
				lastDown = t
			} else {
				t += rtt/2 + srv // request reaches server, processing
				dataT := cw.transfer(int64(dropbox.ServerOpOverhead+o.Wire), rtt, p.Bandwidth)
				t += dataT
				lastUp = t - dataT - srv // request segments
				lastDown = t - rtt/2
			}
		}
	}
	rec.LastPayloadUp, rec.LastPayloadDown = lastUp, lastDown
	rec.LastPacket = t
	if spec.ServerClosesIdle {
		alert := t + dropbox.StorageIdleTimeout
		rec.LastPayloadDown = alert
		rec.LastPacket = alert + rtt/2
	}

	// --- probe-side estimates ---
	rec.MinRTT = rtt
	upSegs := int(up/wire.MSS) + len(ops) + 2
	rec.PktsUp = upSegs
	rec.PktsDown = int(down/wire.MSS) + len(ops) + 2
	samples := upSegs
	if spec.Dir == classify.DirRetrieve {
		samples = 2 + 2*len(ops)
	}
	rec.RTTSamples = samples
	return rec
}
