package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements the TLS record framing used on simulated HTTPS
// connections. The format is a simplified-but-parseable TLS 1.0 layout: real
// 5-byte record headers and handshake framing, with ClientHello carrying a
// server name (SNI) and Certificate carrying the subject common name — the
// two fields the paper's probe extracts with "a classic DPI approach"
// (Sec. 3.1: the string *.dropbox.com signs all communications).
// Everything after the handshake is opaque application data, as it was to
// the authors.

// ContentType is the TLS record content type.
type ContentType uint8

// TLS record content types (RFC 5246 values).
const (
	RecordChangeCipherSpec ContentType = 20
	RecordAlert            ContentType = 21
	RecordHandshake        ContentType = 22
	RecordApplicationData  ContentType = 23
)

func (c ContentType) String() string {
	switch c {
	case RecordChangeCipherSpec:
		return "ChangeCipherSpec"
	case RecordAlert:
		return "Alert"
	case RecordHandshake:
		return "Handshake"
	case RecordApplicationData:
		return "ApplicationData"
	default:
		return fmt.Sprintf("ContentType(%d)", uint8(c))
	}
}

// HandshakeType identifies a handshake message.
type HandshakeType uint8

// Handshake message types (RFC 5246 values).
const (
	HandshakeClientHello     HandshakeType = 1
	HandshakeServerHello     HandshakeType = 2
	HandshakeCertificate     HandshakeType = 11
	HandshakeServerHelloDone HandshakeType = 14
	HandshakeFinished        HandshakeType = 20
)

// tlsVersion is the record-layer version we stamp (TLS 1.0, as in 2012).
const tlsVersion = 0x0301

// RecordHeaderLen is the size of a TLS record header.
const RecordHeaderLen = 5

// Record is one parsed TLS record.
type Record struct {
	Type    ContentType
	Payload []byte
}

// AppendRecord appends a serialized record to dst and returns the result.
func AppendRecord(dst []byte, typ ContentType, payload []byte) []byte {
	if len(payload) > 0xffff {
		panic("wire: TLS record payload exceeds 64KiB")
	}
	dst = append(dst, byte(typ), byte(tlsVersion>>8), byte(tlsVersion&0xff))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return append(dst, payload...)
}

// ErrPartialRecord reports a record extending past the captured bytes.
var ErrPartialRecord = errors.New("wire: partial TLS record")

// ParseRecord parses the first record in data, returning it and the
// remaining bytes. A header whose declared payload extends past data yields
// ErrPartialRecord together with the partial record (type and the available
// payload prefix) — snap-length captures routinely truncate records.
func ParseRecord(data []byte) (Record, []byte, error) {
	if len(data) < RecordHeaderLen {
		return Record{}, nil, ErrPartialRecord
	}
	typ := ContentType(data[0])
	if typ < RecordChangeCipherSpec || typ > RecordApplicationData {
		return Record{}, nil, fmt.Errorf("wire: invalid TLS content type %d", data[0])
	}
	n := int(binary.BigEndian.Uint16(data[3:5]))
	if RecordHeaderLen+n > len(data) {
		return Record{Type: typ, Payload: data[RecordHeaderLen:]}, nil, ErrPartialRecord
	}
	return Record{Type: typ, Payload: data[RecordHeaderLen : RecordHeaderLen+n]},
		data[RecordHeaderLen+n:], nil
}

// handshake body layout: type (1B), length (3B), then for ClientHello and
// Certificate a uint16-prefixed name followed by zero padding up to length.

// BuildHandshake serializes a handshake message with the given name field,
// padded so the *record* (header included) occupies exactly recordLen bytes.
// recordLen must leave room for framing and the name.
func BuildHandshake(typ HandshakeType, name string, recordLen int) []byte {
	const overhead = RecordHeaderLen + 4 + 2 // record hdr + hs hdr + name len
	minLen := overhead + len(name)
	if recordLen < minLen {
		panic(fmt.Sprintf("wire: record length %d below minimum %d for %q", recordLen, minLen, name))
	}
	bodyLen := recordLen - RecordHeaderLen - 4
	body := make([]byte, 4+bodyLen)
	body[0] = byte(typ)
	body[1] = byte(bodyLen >> 16)
	body[2] = byte(bodyLen >> 8)
	body[3] = byte(bodyLen)
	binary.BigEndian.PutUint16(body[4:6], uint16(len(name)))
	copy(body[6:], name)
	return AppendRecord(nil, RecordHandshake, body)
}

// parseHandshake extracts (type, name) from a handshake record payload,
// tolerating truncated padding. ok is false if even the name is cut off.
func parseHandshake(payload []byte) (typ HandshakeType, name string, ok bool) {
	if len(payload) < 6 {
		return 0, "", false
	}
	typ = HandshakeType(payload[0])
	nameLen := int(binary.BigEndian.Uint16(payload[4:6]))
	if 6+nameLen > len(payload) {
		return typ, "", false
	}
	return typ, string(payload[6 : 6+nameLen]), true
}

// ExtractSNI scans captured bytes (typically the payload prefix of the first
// client packets) for a ClientHello and returns its server name.
func ExtractSNI(data []byte) (string, bool) {
	return scanHandshakeName(data, HandshakeClientHello)
}

// ExtractCertName scans captured bytes for a Certificate message and returns
// the subject common name (e.g. "*.dropbox.com").
func ExtractCertName(data []byte) (string, bool) {
	return scanHandshakeName(data, HandshakeCertificate)
}

func scanHandshakeName(data []byte, want HandshakeType) (string, bool) {
	rest := data
	for len(rest) > 0 {
		rec, r, err := ParseRecord(rest)
		if err != nil && !errors.Is(err, ErrPartialRecord) {
			return "", false
		}
		if rec.Type == RecordHandshake {
			if typ, name, ok := parseHandshake(rec.Payload); ok && typ == want {
				return name, true
			}
		}
		if err != nil { // partial record consumed everything
			return "", false
		}
		rest = r
	}
	return "", false
}

// AppendOpaque appends an application-data record of the given payload size
// whose body is not materialized beyond the record header: the returned
// slice grows by RecordHeaderLen only, while the caller accounts for size
// separately. Used when only record framing must be visible to DPI.
func AppendOpaque(dst []byte, size int) []byte {
	if size > 0xffff {
		panic("wire: opaque record exceeds 64KiB")
	}
	dst = append(dst, byte(RecordApplicationData), byte(tlsVersion>>8), byte(tlsVersion&0xff))
	return binary.BigEndian.AppendUint16(dst, uint16(size))
}

// AlertClose returns the serialized close-notify alert record (the
// "SSL_alert" packet visible at connection teardown in Fig. 19).
func AlertClose() []byte {
	return AppendRecord(nil, RecordAlert, []byte{1 /* warning */, 0 /* close_notify */})
}

// ChangeCipherSpec returns a serialized ChangeCipherSpec record.
func ChangeCipherSpec() []byte {
	return AppendRecord(nil, RecordChangeCipherSpec, []byte{1})
}
