package wire

import (
	"bytes"
	"errors"
	"testing"
)

func sampleFrame() *Frame {
	return &Frame{
		IP: IPv4Header{Src: MakeIP(10, 0, 1, 2), Dst: MakeIP(184, 72, 1, 9)},
		TCP: TCPHeader{
			SrcPort: 51234, DstPort: 443,
			Seq: 1000, Ack: 2000,
			Flags: FlagACK | FlagPSH, Window: 65535,
		},
		Payload:    []byte("hello world"),
		PayloadLen: 11,
	}
}

func TestIPString(t *testing.T) {
	ip := MakeIP(192, 168, 1, 200)
	if got := ip.String(); got != "192.168.1.200" {
		t.Fatalf("IP string = %q", got)
	}
}

func TestFlagsString(t *testing.T) {
	f := FlagSYN | FlagACK
	if got := f.String(); got != "SYN|ACK" {
		t.Fatalf("flags = %q", got)
	}
	if TCPFlags(0).String() != "none" {
		t.Fatal("zero flags should print none")
	}
	if !f.Has(FlagSYN) || f.Has(FlagPSH) {
		t.Fatal("Has misbehaves")
	}
}

func TestCanonicalFlowKey(t *testing.T) {
	f := sampleFrame()
	key1, dir1 := Canonical(f)
	rev := sampleFrame()
	rev.IP.Src, rev.IP.Dst = f.IP.Dst, f.IP.Src
	rev.TCP.SrcPort, rev.TCP.DstPort = f.TCP.DstPort, f.TCP.SrcPort
	key2, dir2 := Canonical(rev)
	if key1 != key2 {
		t.Fatalf("bidirectional keys differ: %v vs %v", key1, key2)
	}
	if dir1 == dir2 {
		t.Fatal("directions should differ for reversed frame")
	}
}

func TestTLSRecordRoundTrip(t *testing.T) {
	payload := []byte("abcdef")
	data := AppendRecord(nil, RecordApplicationData, payload)
	rec, rest, err := ParseRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Type != RecordApplicationData || !bytes.Equal(rec.Payload, payload) {
		t.Fatalf("record = %v %q", rec.Type, rec.Payload)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
}

func TestTLSPartialRecord(t *testing.T) {
	data := AppendRecord(nil, RecordHandshake, bytes.Repeat([]byte{1}, 100))
	rec, _, err := ParseRecord(data[:50])
	if !errors.Is(err, ErrPartialRecord) {
		t.Fatalf("err = %v", err)
	}
	if rec.Type != RecordHandshake || len(rec.Payload) != 45 {
		t.Fatalf("partial rec: %v %d", rec.Type, len(rec.Payload))
	}
	if _, _, err := ParseRecord(data[:3]); !errors.Is(err, ErrPartialRecord) {
		t.Fatal("short header should be partial")
	}
}

func TestTLSInvalidContentType(t *testing.T) {
	if _, _, err := ParseRecord([]byte{99, 3, 1, 0, 0}); err == nil {
		t.Fatal("invalid content type accepted")
	}
}

func TestBuildHandshakeExactSize(t *testing.T) {
	for _, n := range []int{60, 294, 1000, 4103} {
		rec := BuildHandshake(HandshakeClientHello, "client-lb.dropbox.com", n)
		if len(rec) != n {
			t.Fatalf("handshake record size = %d, want %d", len(rec), n)
		}
	}
}

func TestExtractSNIAndCert(t *testing.T) {
	var stream []byte
	stream = append(stream, BuildHandshake(HandshakeClientHello, "dl-client37.dropbox.com", 294)...)
	stream = append(stream, ChangeCipherSpec()...)
	if sni, ok := ExtractSNI(stream); !ok || sni != "dl-client37.dropbox.com" {
		t.Fatalf("SNI = %q %v", sni, ok)
	}
	if _, ok := ExtractCertName(stream); ok {
		t.Fatal("no certificate in stream")
	}

	var server []byte
	server = append(server, BuildHandshake(HandshakeServerHello, "", 80)...)
	server = append(server, BuildHandshake(HandshakeCertificate, "*.dropbox.com", 3900)...)
	if cn, ok := ExtractCertName(server); !ok || cn != "*.dropbox.com" {
		t.Fatalf("cert = %q %v", cn, ok)
	}
}

func TestExtractFromTruncatedCapture(t *testing.T) {
	// Certificate record truncated mid-padding: the name sits early in the
	// record so DPI should still find it.
	rec := BuildHandshake(HandshakeCertificate, "*.dropbox.com", 3900)
	if cn, ok := ExtractCertName(rec[:100]); !ok || cn != "*.dropbox.com" {
		t.Fatalf("truncated cert = %q %v", cn, ok)
	}
	// Truncated before the name completes: not extractable, not a crash.
	if _, ok := ExtractCertName(rec[:8]); ok {
		t.Fatal("should not extract from 8 bytes")
	}
}

func TestAppendOpaque(t *testing.T) {
	hdr := AppendOpaque(nil, 4096)
	if len(hdr) != RecordHeaderLen {
		t.Fatalf("opaque header = %d bytes", len(hdr))
	}
	rec, _, err := ParseRecord(hdr)
	if !errors.Is(err, ErrPartialRecord) || rec.Type != RecordApplicationData {
		t.Fatalf("opaque parse: %v %v", rec.Type, err)
	}
}

func TestAlertAndCCS(t *testing.T) {
	rec, _, err := ParseRecord(AlertClose())
	if err != nil || rec.Type != RecordAlert {
		t.Fatalf("alert: %v %v", rec.Type, err)
	}
	rec, _, err = ParseRecord(ChangeCipherSpec())
	if err != nil || rec.Type != RecordChangeCipherSpec {
		t.Fatalf("ccs: %v %v", rec.Type, err)
	}
}

// TestNotifyRequestRoundTrip: the one notification-request codec the
// client, the server and the probe share recovers what it encoded and
// refuses bytes that are not a long-poll request.
func TestNotifyRequestRoundTrip(t *testing.T) {
	req := NotifyRequest{Host: 98765, Namespaces: []uint32{3, 14, 159}}
	got, ok := ParseNotifyRequest(EncodeNotifyRequest(req))
	if !ok || got.Host != req.Host || len(got.Namespaces) != 3 || got.Namespaces[2] != 159 {
		t.Fatalf("round trip = %+v %v", got, ok)
	}
	for _, junk := range []string{"garbage", "GET / HTTP/1.1\r\n\r\n"} {
		if _, ok := ParseNotifyRequest([]byte(junk)); ok {
			t.Fatalf("%q parsed", junk)
		}
	}
}
