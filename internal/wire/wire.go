// Package wire defines the packets that cross the simulated network.
//
// A Frame is the in-memory form the simulator and the passive probe
// exchange directly, with zero serialization cost. Only the payload prefix
// that deep packet inspection needs is ever materialized: TLS handshake
// records (tls.go) and the cleartext notification request (notify.go),
// whose codecs live here so the endpoints and the probe share them. Bulk
// data bytes are represented by length only, keeping multi-gigabyte
// simulations cheap while every byte remains accounted for in flow
// metrics — the way a production probe such as Tstat captures traffic
// under a snap length.
package wire

import (
	"fmt"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// MakeIP builds an address from dotted-quad components.
func MakeIP(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// TCPFlags is the TCP flag bitfield.
type TCPFlags uint8

// TCP flag bits, in header order.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all bits in f are set.
func (t TCPFlags) Has(f TCPFlags) bool { return t&f == f }

func (t TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagPSH, "PSH"},
		{FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagURG, "URG"},
	}
	out := ""
	for _, n := range names {
		if t.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// Header sizes. The simulator uses option-less fixed-size headers; byte
// accounting for TCP options (absent in the paper's models too — Tstat
// reports payload bytes) would only shift totals by a constant.
const (
	IPv4HeaderLen = 20
	TCPHeaderLen  = 20
	HeadersLen    = IPv4HeaderLen + TCPHeaderLen

	// MSS is the TCP maximum segment size used throughout the simulation
	// (Ethernet MTU 1500 minus the 40 header bytes).
	MSS = 1460
)

// IPv4Header holds the addresses of an IPv4 header: the only fields the
// simulation routes or classifies on.
type IPv4Header struct {
	Src, Dst IP
}

// TCPHeader is an option-less TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
}

// Frame is one TCP/IPv4 packet in flight. PayloadLen is the true payload
// size on the wire; Payload holds only the materialized prefix available to
// deep packet inspection (len(Payload) <= PayloadLen).
type Frame struct {
	IP         IPv4Header
	TCP        TCPHeader
	Payload    []byte
	PayloadLen int
}

// WireLen returns the total on-the-wire packet size in bytes.
func (f *Frame) WireLen() int { return HeadersLen + f.PayloadLen }

func (f *Frame) String() string {
	return fmt.Sprintf("%s:%d > %s:%d [%s] seq=%d ack=%d len=%d",
		f.IP.Src, f.TCP.SrcPort, f.IP.Dst, f.TCP.DstPort,
		f.TCP.Flags, f.TCP.Seq, f.TCP.Ack, f.PayloadLen)
}

// Endpoint identifies one side of a transport conversation,
// gopacket-style: protocol-independent address plus port.
type Endpoint struct {
	Addr IP
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Less orders endpoints lexicographically (address, then port), used for
// canonical bidirectional flow keys.
func (e Endpoint) Less(o Endpoint) bool {
	if e.Addr != o.Addr {
		return e.Addr < o.Addr
	}
	return e.Port < o.Port
}

// FlowKey is the canonical bidirectional key: both directions of a
// conversation map to the same key. Dir reports which direction a given
// frame traveled.
type FlowKey struct {
	A, B Endpoint // A < B in Endpoint.Less order
}

// Direction labels which way a frame traveled relative to its FlowKey.
type Direction uint8

// Directions relative to the canonical FlowKey ordering.
const (
	DirAToB Direction = iota
	DirBToA
)

// Canonical returns the bidirectional key for a frame and the direction the
// frame traveled.
func Canonical(f *Frame) (FlowKey, Direction) {
	src := Endpoint{Addr: f.IP.Src, Port: f.TCP.SrcPort}
	dst := Endpoint{Addr: f.IP.Dst, Port: f.TCP.DstPort}
	if src.Less(dst) {
		return FlowKey{A: src, B: dst}, DirAToB
	}
	return FlowKey{A: dst, B: src}, DirBToA
}
