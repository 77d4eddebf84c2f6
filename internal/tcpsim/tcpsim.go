// Package tcpsim implements the TCP endpoints that run over the netem
// topology: three-way handshake, slow start with a per-stack initial
// window, congestion avoidance, fast retransmit, retransmission timeouts,
// delayed acknowledgments, PSH semantics and FIN/RST teardown.
//
// Fidelity targets come from the paper's Sec. 4.4: flow throughput must be
// governed by TCP start-up times (θ bound, computed as in Dukkipati et al.)
// for short flows, by the receive/congestion window for long flows, and the
// per-segment behaviour (PSH flags on application message boundaries) must
// match what Tstat counts in Appendix A.
//
// Application data is written as spans: a materialized byte prefix (protocol
// framing that deep packet inspection can see) plus a virtual length. The
// sender cuts segments at span boundaries so materialized bytes always sit
// at the start of a segment, exactly as application writes map to segments
// on a real stack with PSH set.
package tcpsim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/wire"
)

// DefaultIW is the initial congestion window, in segments, of a 2012-era
// Linux stack. It is the one setting that differs between the Mar/Apr and
// Jun/Jul datasets: the paper computes θ with IW=3, and pre-1.4.0 Dropbox
// servers paused during the SSL handshake because of a smaller IW.
const DefaultIW = 3

// The rest of a 2012-era Linux client talking to the simulated service.
const (
	// minRTO floors the retransmission timeout (Linux-style 200 ms).
	minRTO = 200 * time.Millisecond
	// initialRTO applies before any RTT sample (RFC 6298: 1 s).
	initialRTO = time.Second
	// recvWindow is the advertised receive window in bytes. 320 kB:
	// comfortably above the bandwidth-delay product of the paths under
	// study (10 Mbit/s × 90 ms ≈ 112 kB) while keeping queue overshoot
	// below typical drop-tail buffers, as 2012 Linux auto-tuning did.
	recvWindow = 320 << 10
	// delayedAckTimeout flushes a pending ACK if no second segment arrives.
	delayedAckTimeout = 40 * time.Millisecond
)

// Stack is the per-host TCP layer. It installs itself as the host's frame
// receiver and demultiplexes to connections and listeners.
type Stack struct {
	Host  *netem.Host
	sched *simtime.Scheduler
	rng   *simrand.Source
	iw    int // initial congestion window in segments

	conns     map[connKey]*Conn
	listeners map[uint16]func(*Conn)
	nextPort  uint16
}

type connKey struct {
	localPort  uint16
	remoteIP   wire.IP
	remotePort uint16
}

// NewStack attaches a TCP layer to the host, whose connections open with
// an initial congestion window of iw segments (DefaultIW for a client).
func NewStack(host *netem.Host, sched *simtime.Scheduler, rng *simrand.Source, iw int) *Stack {
	if iw < 1 {
		panic(fmt.Sprintf("tcpsim: initial window %d on %s, want at least 1 segment", iw, host.IP))
	}
	s := &Stack{
		Host:      host,
		sched:     sched,
		rng:       rng.Fork("tcp/" + host.IP.String()),
		iw:        iw,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]func(*Conn)),
		nextPort:  32768,
	}
	host.Receive = s.receive
	return s
}

// Listen registers an accept callback for a local port. The callback runs
// when a connection reaches the established state.
func (s *Stack) Listen(port uint16, accept func(*Conn)) {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("tcpsim: duplicate listener on %s:%d", s.Host.IP, port))
	}
	s.listeners[port] = accept
}

// Dial opens a connection to the remote endpoint. The returned Conn is in
// the SYN-SENT state; OnEstablished fires when the handshake completes.
func (s *Stack) Dial(remote wire.IP, remotePort uint16) *Conn {
	port := s.allocPort(remote, remotePort)
	c := s.newConn(port, remote, remotePort)
	s.conns[connKey{port, remote, remotePort}] = c
	c.state = stateSynSent
	c.sendSyn(wire.FlagSYN, 0)
	return c
}

func (s *Stack) allocPort(remote wire.IP, remotePort uint16) uint16 {
	for i := 0; i < 65536; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		if _, used := s.conns[connKey{p, remote, remotePort}]; !used && s.listeners[p] == nil {
			return p
		}
	}
	panic("tcpsim: ephemeral ports exhausted")
}

// ConnState is the TCP state machine position.
type ConnState uint8

// TCP states (TIME-WAIT is collapsed into Closed: the simulator frees the
// connection instead of holding 2MSL state).
const (
	stateClosed ConnState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateCloseWait
	stateLastAck
	stateClosing
)

func (st ConnState) String() string {
	switch st {
	case stateClosed:
		return "Closed"
	case stateSynSent:
		return "SynSent"
	case stateSynRcvd:
		return "SynRcvd"
	case stateEstablished:
		return "Established"
	case stateFinWait1:
		return "FinWait1"
	case stateFinWait2:
		return "FinWait2"
	case stateCloseWait:
		return "CloseWait"
	case stateLastAck:
		return "LastAck"
	case stateClosing:
		return "Closing"
	default:
		return "?"
	}
}

// span is one application write: a materialized prefix plus virtual length.
type span struct {
	off  uint32 // starting sequence (relative to ISN+1)
	data []byte // materialized prefix
	size int    // true length
	push bool
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack  *Stack
	local  wire.Endpoint
	remote wire.Endpoint
	state  ConnState

	// Application callbacks. All optional.
	OnEstablished func()
	// OnRecv delivers in-order payload: the materialized prefix and the true
	// segment size, with the sender's PSH flag.
	OnRecv      func(data []byte, size int, push bool)
	OnPeerClose func() // FIN received (peer will send no more data)
	OnReset     func() // RST received
	OnClosed    func() // connection fully terminated
	// OnDrained fires when an ACK leaves no written byte unacknowledged
	// on a connection still open for writing: its send side went quiet.
	OnDrained func()

	// Send state (relative sequence space: 0 = ISN, data starts at 1).
	iss        uint32
	sndUna     uint32
	sndNxt     uint32
	spans      []span // unacked + unsent spans, in order
	finQueued  bool
	finSeq     uint32
	cwnd       int
	ssthresh   int
	peerWnd    int
	dupAcks    int
	recoverTo  uint32
	inRecovery bool

	// Receive state.
	irs      uint32
	rcvNxt   uint32
	oob      map[uint32]wire.Frame // out-of-order segments by seq
	ackPend  int                   // segments received since last ACK
	delAckID simtime.EventID
	peerFin  bool

	// RTT estimation (RFC 6298).
	srtt, rttvar time.Duration
	rto          time.Duration
	rtoID        simtime.EventID
	rtoBackoff   int
	// timing samples, sorted by the relative seq that acknowledges them.
	timed []rttSample

	// Timer callbacks, bound once so arming a timer does not allocate.
	onRTOFn, sendAckFn func()

	// Metrics.
	retransmits int
}

func (s *Stack) newConn(localPort uint16, remote wire.IP, remotePort uint16) *Conn {
	c := &Conn{
		stack:    s,
		local:    wire.Endpoint{Addr: s.Host.IP, Port: localPort},
		remote:   wire.Endpoint{Addr: remote, Port: remotePort},
		iss:      uint32(s.rng.Uint64()),
		cwnd:     s.iw * wire.MSS,
		ssthresh: 1 << 30,
		peerWnd:  64 * 1024,
		oob:      make(map[uint32]wire.Frame),
		rto:      initialRTO,
	}
	c.onRTOFn, c.sendAckFn = c.onRTO, c.sendAck
	return c
}

// LocalEndpoint returns the local address/port.
func (c *Conn) LocalEndpoint() wire.Endpoint { return c.local }

// RemoteEndpoint returns the peer address/port.
func (c *Conn) RemoteEndpoint() wire.Endpoint { return c.remote }

// Write queues an application span: a materialized prefix (may be nil) plus
// the true size in bytes. push marks the final segment of the span with PSH,
// as a flushing application write does.
func (c *Conn) Write(data []byte, size int, push bool) {
	if size < len(data) {
		panic("tcpsim: span size below materialized length")
	}
	if size == 0 {
		return
	}
	if c.state != stateEstablished && c.state != stateSynSent && c.state != stateSynRcvd && c.state != stateCloseWait {
		return // writes after close are dropped
	}
	if c.finQueued {
		return
	}
	off := uint32(1)
	if n := len(c.spans); n > 0 {
		last := c.spans[n-1]
		off = last.off + uint32(last.size)
	} else if c.sndNxt > 0 {
		off = c.sndNxt
	}
	c.spans = append(c.spans, span{off: off, data: data, size: size, push: push})
	c.trySend()
}

// Close performs an orderly shutdown: a FIN is queued after pending data.
func (c *Conn) Close() {
	switch c.state {
	case stateEstablished, stateSynRcvd, stateSynSent:
		c.finQueued = true
		c.state = stateFinWait1
		c.trySend()
	case stateCloseWait:
		c.finQueued = true
		c.state = stateLastAck
		c.trySend()
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.send(wire.FlagRST|wire.FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
	c.teardown(false)
}

func (c *Conn) teardown(notifyReset bool) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.rtoID.Cancel()
	c.delAckID.Cancel()
	delete(c.stack.conns, connKey{c.local.Port, c.remote.Addr, c.remote.Port})
	if notifyReset && c.OnReset != nil {
		c.OnReset()
	}
	if c.OnClosed != nil {
		c.OnClosed()
	}
}

// ---------- frame construction ----------

// send puts one segment on the wire. The frame lives on this stack frame:
// netem's Send copies it.
func (c *Conn) send(flags wire.TCPFlags, relSeq, relAck uint32, data []byte, size int) {
	var ack uint32
	if flags.Has(wire.FlagACK) {
		ack = c.irs + relAck
	}
	f := wire.Frame{
		IP: wire.IPv4Header{Src: c.local.Addr, Dst: c.remote.Addr},
		TCP: wire.TCPHeader{
			SrcPort: c.local.Port, DstPort: c.remote.Port,
			Seq: c.iss + relSeq, Ack: ack,
			Flags: flags, Window: recvWindow / 8, // window-scale factor 8, as a 2012 stack
		},
		Payload:    data,
		PayloadLen: size,
	}
	c.stack.Host.Send(&f)
}

// sendSyn opens the handshake: a SYN (relAck 0) or, on the passive side,
// a SYN-ACK (relAck 1).
func (c *Conn) sendSyn(flags wire.TCPFlags, relAck uint32) {
	c.startRTT(1) // acked by relative ACK 1
	c.send(flags, 0, relAck, nil, 0)
	c.sndNxt = 1
	c.armRTO()
}

// ---------- sending data ----------

// trySend emits as many segments as the congestion and peer windows allow.
func (c *Conn) trySend() {
	if c.state == stateClosed || c.state == stateSynSent || c.state == stateSynRcvd {
		return
	}
	for {
		inFlight := int(c.sndNxt - c.sndUna)
		wnd := c.cwnd
		if c.peerWnd < wnd {
			wnd = c.peerWnd
		}
		budget := wnd - inFlight
		if budget <= 0 {
			break
		}
		seg, ok := c.nextSegment(c.sndNxt, budget)
		if !ok {
			break
		}
		c.transmit(seg, false)
	}
	c.maybeSendFin()
}

// segment describes bytes to place on the wire.
type segment struct {
	relSeq uint32
	data   []byte
	size   int
	push   bool
}

// nextSegment builds the segment starting at relSeq, honoring MSS, span
// boundaries (so materialized bytes stay segment prefixes) and the window
// budget.
func (c *Conn) nextSegment(relSeq uint32, budget int) (segment, bool) {
	sp := c.spanAt(relSeq)
	if sp == nil {
		return segment{}, false
	}
	offInSpan := int(relSeq - sp.off)
	remain := sp.size - offInSpan
	n := wire.MSS
	if remain < n {
		n = remain
	}
	if budget < n {
		n = budget
	}
	if n <= 0 {
		return segment{}, false
	}
	var data []byte
	if offInSpan < len(sp.data) {
		end := offInSpan + n
		if end > len(sp.data) {
			end = len(sp.data)
		}
		data = sp.data[offInSpan:end]
	}
	push := sp.push && offInSpan+n == sp.size
	return segment{relSeq: relSeq, data: data, size: n, push: push}, true
}

func (c *Conn) spanAt(relSeq uint32) *span {
	for i := range c.spans {
		sp := &c.spans[i]
		if relSeq >= sp.off && relSeq < sp.off+uint32(sp.size) {
			return sp
		}
	}
	return nil
}

func (c *Conn) transmit(seg segment, retrans bool) {
	flags := wire.FlagACK
	if seg.push {
		flags |= wire.FlagPSH
	}
	c.send(flags, seg.relSeq, c.rcvNxt, seg.data, seg.size)
	if retrans {
		c.retransmits++
	} else {
		if seg.relSeq == c.sndNxt {
			c.sndNxt += uint32(seg.size)
		}
		// Karn: only time first transmissions.
		c.startRTT(seg.relSeq + uint32(seg.size))
	}
	c.delAckID.Cancel() // data segments carry the ACK
	c.ackPend = 0
	c.armRTO()
}

func (c *Conn) maybeSendFin() {
	if !c.finQueued {
		return
	}
	// All data must be sent and segment space available.
	if c.spanAt(c.sndNxt) != nil {
		return
	}
	if c.finSeq != 0 {
		return // FIN already sent
	}
	c.finSeq = c.sndNxt
	c.send(wire.FlagFIN|wire.FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
	c.sndNxt++
	c.startRTT(c.sndNxt)
	c.armRTO()
}

// ---------- timers ----------

// rttSample is a timed segment: the relative seq whose ACK completes the
// sample and the segment's send time.
type rttSample struct {
	ack  uint32
	sent simtime.Time
}

// sampleAt returns the index of the first sample at or above ack and
// whether that sample is exactly ack.
func (c *Conn) sampleAt(ack uint32) (int, bool) {
	return slices.BinarySearchFunc(c.timed, ack, func(x rttSample, ack uint32) int { return cmp.Compare(x.ack, ack) })
}

// startRTT starts (or restarts) the RTT sample completed by relative ack.
func (c *Conn) startRTT(ack uint32) {
	now := c.stack.sched.Now()
	if i, exact := c.sampleAt(ack); exact {
		c.timed[i].sent = now
	} else {
		c.timed = slices.Insert(c.timed, i, rttSample{ack, now})
	}
}

func (c *Conn) armRTO() {
	c.rtoID.Cancel()
	if c.sndUna == c.sndNxt {
		return // nothing outstanding
	}
	rto := min(c.rto<<uint(c.rtoBackoff), 60*time.Second)
	c.rtoID = c.stack.sched.After(rto, c.onRTOFn)
}

func (c *Conn) onRTO() {
	if c.state == stateClosed {
		return
	}
	c.rtoBackoff++
	if c.rtoBackoff > 7 {
		// Give up, as a real stack eventually does.
		c.teardown(true)
		return
	}
	inFlight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(inFlight/2, 2*wire.MSS)
	c.cwnd = wire.MSS
	c.dupAcks = 0
	c.inRecovery = false
	c.timed = c.timed[:0] // Karn: discard samples across a timeout
	c.retransmitFirst()
}

func (c *Conn) retransmitFirst() {
	switch {
	case c.state == stateSynSent:
		c.send(wire.FlagSYN, 0, 0, nil, 0)
	case c.state == stateSynRcvd:
		c.send(wire.FlagSYN|wire.FlagACK, 0, 1, nil, 0)
	case c.finSeq != 0 && c.sndUna == c.finSeq:
		c.send(wire.FlagFIN|wire.FlagACK, c.finSeq, c.rcvNxt, nil, 0)
	default:
		if seg, ok := c.nextSegment(c.sndUna, wire.MSS); ok {
			c.transmit(seg, true)
		}
		c.armRTO()
		return
	}
	c.retransmits++
	c.armRTO()
}

func (c *Conn) scheduleDelAck() {
	if c.delAckID.Pending() {
		return
	}
	c.delAckID = c.stack.sched.After(delayedAckTimeout, c.sendAckFn)
}

func (c *Conn) sendAck() {
	c.delAckID.Cancel()
	c.ackPend = 0
	c.send(wire.FlagACK, c.sndNxt, c.rcvNxt, nil, 0)
}

// ---------- receiving ----------

func (s *Stack) receive(now simtime.Time, f *wire.Frame) {
	key := connKey{f.TCP.DstPort, f.IP.Src, f.TCP.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.handle(f)
		return
	}
	// New connection?
	if f.TCP.Flags.Has(wire.FlagSYN) && !f.TCP.Flags.Has(wire.FlagACK) {
		if _, ok := s.listeners[f.TCP.DstPort]; ok {
			c := s.newConn(f.TCP.DstPort, f.IP.Src, f.TCP.SrcPort)
			c.irs = f.TCP.Seq
			c.rcvNxt = 1
			c.state = stateSynRcvd
			s.conns[key] = c
			c.sendSyn(wire.FlagSYN|wire.FlagACK, 1)
			return
		}
	}
	// No listener / unknown conn: RST unless the packet is itself a RST.
	if !f.TCP.Flags.Has(wire.FlagRST) {
		s.sendRawRST(f)
	}
}

func (s *Stack) sendRawRST(in *wire.Frame) {
	out := wire.Frame{
		IP: wire.IPv4Header{Src: in.IP.Dst, Dst: in.IP.Src},
		TCP: wire.TCPHeader{
			SrcPort: in.TCP.DstPort, DstPort: in.TCP.SrcPort,
			Seq: in.TCP.Ack, Ack: in.TCP.Seq + 1,
			Flags: wire.FlagRST | wire.FlagACK,
		},
	}
	s.Host.Send(&out)
}

func (c *Conn) handle(f *wire.Frame) {
	if c.state == stateClosed {
		return
	}
	if f.TCP.Flags.Has(wire.FlagRST) {
		c.teardown(true)
		return
	}

	switch c.state {
	case stateSynSent:
		if f.TCP.Flags.Has(wire.FlagSYN) && f.TCP.Flags.Has(wire.FlagACK) {
			c.irs = f.TCP.Seq
			c.rcvNxt = 1
			c.processAck(f)
			c.state = stateEstablished
			c.sendAck()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.trySend()
		}
		return
	case stateSynRcvd:
		if f.TCP.Flags.Has(wire.FlagACK) && f.TCP.Ack-c.iss >= 1 {
			c.processAck(f)
			c.state = stateEstablished
			if accept := c.stack.listeners[c.local.Port]; accept != nil {
				accept(c)
			}
			// The ACK completing the handshake may carry data.
			if f.PayloadLen > 0 || f.TCP.Flags.Has(wire.FlagFIN) {
				c.processData(f)
			}
			c.trySend()
		}
		return
	}

	if f.TCP.Flags.Has(wire.FlagACK) {
		c.processAck(f)
	}
	if f.PayloadLen > 0 || f.TCP.Flags.Has(wire.FlagFIN) {
		c.processData(f)
	}
	if c.state == stateClosed {
		return
	}
	c.trySend()
	c.checkCloseProgress(f)
}

func (c *Conn) processAck(f *wire.Frame) {
	relAck := f.TCP.Ack - c.iss
	c.peerWnd = int(f.TCP.Window) * 8

	if relAck > c.sndNxt {
		return // acks data we never sent; ignore
	}
	if relAck > c.sndUna {
		acked := int(relAck - c.sndUna)
		c.sndUna = relAck
		c.dupAcks = 0
		c.rtoBackoff = 0
		c.dropAckedSpans()
		// RTT sample, then drop every sample at or below relAck.
		i, exact := c.sampleAt(relAck)
		if exact {
			c.updateRTT(c.stack.sched.Now().Sub(c.timed[i].sent))
			i++
		}
		c.timed = c.timed[:copy(c.timed, c.timed[i:])]
		if c.inRecovery {
			if relAck >= c.recoverTo {
				// Full recovery: deflate to ssthresh (NewReno).
				c.inRecovery = false
				c.cwnd = c.ssthresh
			} else {
				// Partial ACK: the next hole is lost too — retransmit it
				// immediately instead of waiting for an RTO.
				if seg, ok := c.nextSegment(c.sndUna, wire.MSS); ok {
					c.transmit(seg, true)
				}
			}
		} else if c.cwnd < c.ssthresh {
			c.cwnd += acked // slow start (byte counting)
		} else {
			c.cwnd += max(wire.MSS*wire.MSS/c.cwnd, 1)
		}
		c.armRTO()
		if c.sndUna == c.sndNxt && len(c.spans) == 0 && !c.finQueued && c.OnDrained != nil {
			c.OnDrained()
		}
	} else if relAck == c.sndUna && c.sndNxt > c.sndUna && f.PayloadLen == 0 {
		c.dupAcks++
		if c.dupAcks == 3 && !c.inRecovery {
			// Fast retransmit + NewReno recovery.
			inFlight := int(c.sndNxt - c.sndUna)
			c.ssthresh = max(inFlight/2, 2*wire.MSS)
			c.cwnd = c.ssthresh + 3*wire.MSS
			c.recoverTo = c.sndNxt
			c.inRecovery = true
			if seg, ok := c.nextSegment(c.sndUna, wire.MSS); ok {
				c.transmit(seg, true)
			} else if c.finSeq != 0 && c.sndUna == c.finSeq {
				c.send(wire.FlagFIN|wire.FlagACK, c.finSeq, c.rcvNxt, nil, 0)
				c.retransmits++
			}
		}
	}
}

// dropAckedSpans releases spans fully below sndUna.
func (c *Conn) dropAckedSpans() {
	i := 0
	for ; i < len(c.spans); i++ {
		sp := &c.spans[i]
		if sp.off+uint32(sp.size) > c.sndUna {
			break
		}
	}
	if i > 0 {
		c.spans = c.spans[i:]
	}
}

func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = max(c.srtt+4*c.rttvar, minRTO)
}

func (c *Conn) processData(f *wire.Frame) {
	relSeq := f.TCP.Seq - c.irs
	if relSeq == c.rcvNxt {
		c.acceptSegment(f)
		// Drain any buffered continuation.
		for {
			next, ok := c.oob[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.oob, c.rcvNxt)
			c.acceptSegment(&next)
		}
		if c.state == stateClosed {
			return // an application callback aborted the connection
		}
		c.ackPend++
		if c.ackPend >= 2 || f.TCP.Flags.Has(wire.FlagFIN) || c.peerFin {
			c.sendAck()
		} else {
			c.scheduleDelAck()
		}
	} else if relSeq > c.rcvNxt {
		// Out of order: buffer and duplicate-ACK.
		if len(c.oob) < 4096 {
			c.oob[relSeq] = *f
		}
		c.sendAck()
	} else {
		// Duplicate (retransmission already received): re-ACK.
		c.sendAck()
	}
}

// acceptSegment consumes an in-order segment: delivers payload and handles
// FIN ordering.
func (c *Conn) acceptSegment(f *wire.Frame) {
	if f.PayloadLen > 0 {
		c.rcvNxt += uint32(f.PayloadLen)
		if c.OnRecv != nil {
			c.OnRecv(f.Payload, f.PayloadLen, f.TCP.Flags.Has(wire.FlagPSH))
		}
	}
	if f.TCP.Flags.Has(wire.FlagFIN) {
		c.rcvNxt++
		c.peerFin = true
		switch c.state {
		case stateEstablished:
			c.state = stateCloseWait
		case stateFinWait1:
			c.state = stateClosing
		case stateFinWait2:
			c.teardownAfterAck()
			return
		}
		if c.OnPeerClose != nil {
			c.OnPeerClose()
		}
	}
}

func (c *Conn) teardownAfterAck() {
	c.sendAck()
	c.teardown(false)
}

// checkCloseProgress advances the closing state machine once our FIN is
// acknowledged.
func (c *Conn) checkCloseProgress(f *wire.Frame) {
	if c.finSeq == 0 {
		return
	}
	finAcked := c.sndUna >= c.finSeq+1
	switch c.state {
	case stateFinWait1:
		if finAcked {
			c.state = stateFinWait2
		}
	case stateClosing:
		if finAcked {
			c.teardown(false)
		}
	case stateLastAck:
		if finAcked {
			c.teardown(false)
		}
	}
	if c.state == stateFinWait2 && c.peerFin {
		c.teardownAfterAck()
	}
}
