// Package tlssim runs TLS-like sessions over tcpsim connections.
//
// The handshake reproduces the byte and round-trip costs the paper measured
// (Appendix A.2): clients contribute 294 bytes across two flights, servers
// 4103 bytes, and the server's first flight (hello + certificate + done,
// 4031 bytes) needs two congestion windows when the server's initial window
// is 2 segments — the extra round trip the authors observed before Dropbox
// tuned it with the 1.4.0 deployment.
//
// Handshake records are fully materialized on the wire, so a passive probe
// can extract the SNI and the certificate common name exactly as Tstat's DPI
// did. Application data is opaque: record framing is materialized, payload
// bodies are accounted by length only. Message *semantics* (which protocol
// command a record carries) travel on an in-process side channel between the
// two endpoints — the wire carries the same bytes either way, and the
// endpoints of a real TLS connection legitimately know the plaintext.
package tlssim

import (
	"fmt"

	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/wire"
)

// Handshake flight sizes: bytes on the wire, record framing included. Both
// endpoints agree on this layout.
const (
	clientHello  = 139  // flight 1, client -> server
	clientFinish = 155  // flight 2 (key exchange + CCS + finished)
	serverFlight = 4031 // hello + certificate + hello-done
	serverFinish = 72   // CCS + finished
)

// The paper's typical handshake sizes: 294 bytes from clients, 4103 from
// servers.
const (
	// ClientHandshakeBytes is the client's total handshake contribution.
	ClientHandshakeBytes = clientHello + clientFinish
	// ServerHandshakeBytes is the server's total handshake contribution.
	ServerHandshakeBytes = serverFlight + serverFinish
)

// maxRecordPayload is the application-data record payload limit.
const maxRecordPayload = 16384

// MessageWireSize returns the on-the-wire size of an application message of
// the given plaintext length: payload plus record headers.
func MessageWireSize(size int) int {
	if size <= 0 {
		return 0
	}
	records := (size + maxRecordPayload - 1) / maxRecordPayload
	return size + records*wire.RecordHeaderLen
}

// alertWireSize is the close-notify alert record size.
const alertWireSize = wire.RecordHeaderLen + 2

// sideMsg rides the in-process side channel, mirroring stream order.
type sideMsg struct {
	meta  any
	wire  int
	alert bool
}

// Session is one endpoint of a TLS connection.
type Session struct {
	Conn   *tcpsim.Conn
	client bool
	name   string // SNI (client) or certificate CN (server)

	// OnEstablished fires when the handshake completes at this endpoint.
	OnEstablished func()
	// OnMessage delivers a complete application message: the side-channel
	// metadata and the plaintext size.
	OnMessage func(meta any, size int)
	// OnPeerAlert fires when the peer's close-notify alert arrives.
	OnPeerAlert func()
	// OnPeerClose fires on TCP FIN from the peer.
	OnPeerClose func()
	// OnReset fires on TCP RST.
	OnReset func()
	// OnClosed fires when the connection is fully gone.
	OnClosed func()
	// OnActivity fires whenever bytes arrive (servers use it to keep idle
	// timers from killing slow in-progress transfers).
	OnActivity func()

	established bool
	hsGot       int // handshake bytes received in the current wait
	hsStage     int
	peer        *Session // side channel: set by the wiring helper

	inbox         []sideMsg // messages the peer has sent, in stream order
	rcvdBytes     int       // app-layer bytes received so far
	boundaryFloor int       // stream offset where inbox[0] starts
}

// NewClient starts the client side of a session on an established-or-dialing
// connection. sni is the requested server name.
func NewClient(conn *tcpsim.Conn, sni string) *Session {
	s := &Session{Conn: conn, client: true, name: sni}
	s.install()
	prev := conn.OnEstablished
	conn.OnEstablished = func() {
		if prev != nil {
			prev()
		}
		s.sendClientHello()
	}
	return s
}

// NewServer starts the server side on an accepted connection. certName is
// the certificate common name presented (e.g. "*.dropbox.com").
func NewServer(conn *tcpsim.Conn, certName string) *Session {
	s := &Session{Conn: conn, client: false, name: certName}
	s.install()
	return s
}

// Pair wires the side channels of the two endpoints of one simulated
// connection. The campaign/testbed layer calls this after accept; it stands
// in for the shared TLS key material.
func Pair(client, server *Session) {
	client.peer = server
	server.peer = client
}

func (s *Session) install() {
	s.Conn.OnRecv = s.onRecv
	s.Conn.OnPeerClose = func() {
		if s.OnPeerClose != nil {
			s.OnPeerClose()
		}
	}
	s.Conn.OnReset = func() {
		if s.OnReset != nil {
			s.OnReset()
		}
	}
	s.Conn.OnClosed = func() {
		if s.OnClosed != nil {
			s.OnClosed()
		}
	}
}

// ---------- handshake ----------

func (s *Session) sendClientHello() {
	rec := wire.BuildHandshake(wire.HandshakeClientHello, s.name, clientHello)
	s.Conn.Write(rec, len(rec), true)
	s.hsStage = 1 // waiting for server flight
}

func (s *Session) sendClientFinish() {
	ccs := wire.ChangeCipherSpec()
	fin := wire.BuildHandshake(wire.HandshakeFinished, "", clientFinish-len(ccs))
	buf := append(append([]byte(nil), ccs...), fin...)
	s.Conn.Write(buf, len(buf), true)
	s.hsStage = 2 // waiting for server finish
}

func (s *Session) sendServerFlight() {
	hello := wire.BuildHandshake(wire.HandshakeServerHello, "", 87)
	done := wire.BuildHandshake(wire.HandshakeServerHelloDone, "", 44)
	certLen := serverFlight - len(hello) - len(done)
	cert := wire.BuildHandshake(wire.HandshakeCertificate, s.name, certLen)
	buf := append(append(append([]byte(nil), hello...), cert...), done...)
	s.Conn.Write(buf, len(buf), true)
	s.hsStage = 1 // waiting for client finish
}

func (s *Session) sendServerFinish() {
	ccs := wire.ChangeCipherSpec()
	fin := wire.BuildHandshake(wire.HandshakeFinished, "", serverFinish-len(ccs))
	buf := append(append([]byte(nil), ccs...), fin...)
	s.Conn.Write(buf, len(buf), true)
	s.markEstablished()
}

func (s *Session) markEstablished() {
	s.established = true
	if s.OnEstablished != nil {
		s.OnEstablished()
	}
}

func (s *Session) onRecv(data []byte, size int, push bool) {
	if s.OnActivity != nil {
		s.OnActivity()
	}
	if s.established {
		s.onAppBytes(size)
		return
	}
	s.hsGot += size
	if s.client {
		switch s.hsStage {
		case 1: // expecting server flight
			if s.hsGot >= serverFlight {
				s.hsGot -= serverFlight
				s.sendClientFinish()
			}
		case 2: // expecting server finish
			if s.hsGot >= serverFinish {
				extra := s.hsGot - serverFinish
				s.hsGot = 0
				s.markEstablished()
				if extra > 0 {
					s.onAppBytes(extra)
				}
			}
		}
		return
	}
	// Server side.
	switch s.hsStage {
	case 0: // expecting client hello
		if s.hsGot >= clientHello {
			s.hsGot -= clientHello
			s.sendServerFlight()
		}
	case 1: // expecting client finish
		if s.hsGot >= clientFinish {
			extra := s.hsGot - clientFinish
			s.hsGot = 0
			s.sendServerFinish()
			if extra > 0 {
				s.onAppBytes(extra)
			}
		}
	}
}

// ---------- application data ----------

// Send transmits one application message of the given plaintext size with
// the metadata delivered to the peer's OnMessage. The final segment carries
// PSH, as a flushed application write.
func (s *Session) Send(meta any, size int) { s.SendParts(meta, size, 1) }

// SendParts transmits one logical message as parts consecutive writes (the
// client's retrieve requests appear as two PSH-marked segments on the wire,
// Fig. 19b). The peer still receives a single OnMessage.
func (s *Session) SendParts(meta any, size int, parts int) {
	if size <= 0 || parts <= 0 {
		panic(fmt.Sprintf("tlssim: bad message size=%d parts=%d", size, parts))
	}
	if parts > size {
		parts = size
	}
	total := MessageWireSize(size)
	if s.peer != nil {
		s.peer.enqueue(sideMsg{meta: meta, wire: total})
	}
	// Split the wire bytes across parts, each ending in PSH. Record headers
	// are materialized at the start of each part for DPI realism.
	base := total / parts
	rem := total % parts
	sent := 0
	for i := 0; i < parts; i++ {
		n := base
		if i == parts-1 {
			n += rem
		}
		if n == 0 {
			continue
		}
		var hdr []byte
		if sent == 0 {
			hdr = wire.AppendOpaque(nil, minInt(size, maxRecordPayload))
			if n < len(hdr) {
				hdr = hdr[:n]
			}
		}
		s.Conn.Write(hdr, n, true)
		sent += n
	}
}

func (s *Session) enqueue(m sideMsg) {
	s.inbox = append(s.inbox, m)
	s.drain()
}

func (s *Session) onAppBytes(n int) {
	s.rcvdBytes += n
	s.drain()
}

func (s *Session) drain() {
	for len(s.inbox) > 0 {
		head := s.inbox[0]
		end := s.boundaryFloor + head.wire
		if s.rcvdBytes < end {
			return
		}
		s.inbox = s.inbox[1:]
		s.boundaryFloor = end
		if head.alert {
			if s.OnPeerAlert != nil {
				s.OnPeerAlert()
			}
		} else if s.OnMessage != nil {
			s.OnMessage(head.meta, head.wire-wireOverhead(head.wire))
		}
	}
}

// wireOverhead back-computes record header bytes for a wire size.
func wireOverhead(wireSize int) int {
	// wireSize = size + 5*ceil(size/16384); invert by trying record counts.
	for records := 1; ; records++ {
		size := wireSize - records*wire.RecordHeaderLen
		if size <= 0 {
			return wireSize // degenerate; treat all as overhead
		}
		if (size+maxRecordPayload-1)/maxRecordPayload == records {
			return records * wire.RecordHeaderLen
		}
	}
}

// CloseNotify sends the close-notify alert and closes the connection
// gracefully (the server's end-of-flow behaviour in Fig. 19).
func (s *Session) CloseNotify() {
	if s.peer != nil {
		s.peer.enqueue(sideMsg{alert: true, wire: alertWireSize})
	}
	rec := wire.AlertClose()
	s.Conn.Write(rec, len(rec), true)
	s.Conn.Close()
}

// Abort resets the connection (the client's teardown in Fig. 19).
func (s *Session) Abort() { s.Conn.Abort() }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
