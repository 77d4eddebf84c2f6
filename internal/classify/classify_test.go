package classify

import (
	"testing"
	"time"

	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

func TestProviderOf(t *testing.T) {
	cases := []struct {
		cert, sni, fqdn string
		want            Provider
	}{
		{CertDropbox, "", "", ProvDropbox},
		{"", "dl-client7.dropbox.com", "", ProvDropbox},
		{CertICloud, "", "", ProvICloud},
		{CertSkyDrive, "", "", ProvSkyDrive},
		{CertGoogleDrive, "", "", ProvGoogleDrive},
		{CertSugarSync, "", "", ProvOtherCloud},
		{CertBox, "", "", ProvOtherCloud},
		{CertYouTube, "", "", ProvYouTube},
		{"", "", "", ProvUnknown},
		{"*.example.com", "", "", ProvUnknown},
	}
	for _, c := range cases {
		r := &traces.FlowRecord{CertName: c.cert, SNI: c.sni, FQDN: c.fqdn}
		if got := ProviderOf(r); got != c.want {
			t.Errorf("ProviderOf(%q,%q,%q) = %v, want %v", c.cert, c.sni, c.fqdn, got, c.want)
		}
	}
}

func TestDropboxServiceFallbacks(t *testing.T) {
	r := &traces.FlowRecord{FQDN: "dl-client3.dropbox.com"}
	if got := DropboxService(r); got != dnssim.SvcClientStorage {
		t.Fatalf("by FQDN = %v", got)
	}
	// No DNS (Campus 2): SNI substitutes.
	r = &traces.FlowRecord{SNI: "client-lb.dropbox.com"}
	if got := DropboxService(r); got != dnssim.SvcClientControl {
		t.Fatalf("by SNI = %v", got)
	}
	// Cleartext notify flow: port 80 + extracted host_int.
	r = &traces.FlowRecord{ServerPort: 80, NotifyHost: 42}
	if got := DropboxService(r); got != dnssim.SvcNotify {
		t.Fatalf("notify = %v", got)
	}
}

func TestFBoundary(t *testing.T) {
	// At u=294 (pure client handshake), f = 4103: a flow downloading more
	// than the server handshake is a retrieve.
	if F(294) != 4103 {
		t.Fatalf("F(294) = %f", F(294))
	}
	store := &traces.FlowRecord{BytesUp: 1_000_000, BytesDown: 6_000}
	if TagStorage(store) != DirStore {
		t.Fatal("upload-heavy flow tagged retrieve")
	}
	retr := &traces.FlowRecord{BytesUp: 2_000, BytesDown: 1_000_000}
	if TagStorage(retr) != DirRetrieve {
		t.Fatal("download-heavy flow tagged store")
	}
}

func TestPayloadSubtractsHandshake(t *testing.T) {
	r := &traces.FlowRecord{BytesUp: 10_294, BytesDown: 14_103}
	if got := Payload(r, DirStore); got != 10_000 {
		t.Fatalf("store payload = %d", got)
	}
	if got := Payload(r, DirRetrieve); got != 10_000 {
		t.Fatalf("retrieve payload = %d", got)
	}
	tiny := &traces.FlowRecord{BytesUp: 100, BytesDown: 100}
	if Payload(tiny, DirStore) != 0 || Payload(tiny, DirRetrieve) != 0 {
		t.Fatal("payload must floor at zero")
	}
}

// The probe side subtracts the handshake the simulated TLS endpoints send:
// the two packages must hold the same Appendix A.2 sizes.
func TestHandshakeSizesMatchTLSSim(t *testing.T) {
	if SSLClientHandshake != tlssim.ClientHandshakeBytes || SSLServerHandshake != tlssim.ServerHandshakeBytes {
		t.Fatalf("classify subtracts %d/%d handshake bytes, tlssim sends %d/%d",
			SSLClientHandshake, SSLServerHandshake, tlssim.ClientHandshakeBytes, tlssim.ServerHandshakeBytes)
	}
}

func TestEstimateChunks(t *testing.T) {
	// Store flow, server passively closed: c = s - 3.
	r := &traces.FlowRecord{PSHDown: 8, ServerClosed: true}
	if got := EstimateChunks(r, DirStore); got != 5 {
		t.Fatalf("store chunks = %d, want 5", got)
	}
	// Client closed first: c = s - 2.
	r = &traces.FlowRecord{PSHDown: 8}
	if got := EstimateChunks(r, DirStore); got != 6 {
		t.Fatalf("store chunks = %d, want 6", got)
	}
	// Retrieve: c = (s-2)/2.
	r = &traces.FlowRecord{PSHUp: 12}
	if got := EstimateChunks(r, DirRetrieve); got != 5 {
		t.Fatalf("retrieve chunks = %d, want 5", got)
	}
	// Clamping.
	if EstimateChunks(&traces.FlowRecord{PSHDown: 1}, DirStore) != 1 {
		t.Fatal("clamp low")
	}
	if EstimateChunks(&traces.FlowRecord{PSHDown: 300, ServerClosed: true}, DirStore) != 100 {
		t.Fatal("clamp high")
	}
}

func TestTransferDuration(t *testing.T) {
	r := &traces.FlowRecord{
		FirstPacket:     time.Second,
		LastPayloadUp:   11 * time.Second,
		LastPayloadDown: 9 * time.Second,
		LastPacket:      80 * time.Second,
	}
	if got := TransferDuration(r, DirStore); got != 10*time.Second {
		t.Fatalf("store duration = %v", got)
	}
	// Retrieve with the 60s idle-close compensation.
	r = &traces.FlowRecord{
		FirstPacket:     time.Second,
		LastPayloadUp:   3 * time.Second,
		LastPayloadDown: 70 * time.Second, // server alert 67s after client
	}
	if got := TransferDuration(r, DirRetrieve); got != 9*time.Second {
		t.Fatalf("retrieve duration = %v", got)
	}
	// No compensation under 60s.
	r.LastPayloadDown = 40 * time.Second
	if got := TransferDuration(r, DirRetrieve); got != 39*time.Second {
		t.Fatalf("retrieve duration = %v", got)
	}
}

func TestThroughput(t *testing.T) {
	r := &traces.FlowRecord{
		BytesUp:       1_000_294,
		FirstPacket:   0,
		LastPayloadUp: 8 * time.Second,
	}
	got := Throughput(r, DirStore)
	if got < 0.99e6 || got > 1.01e6 {
		t.Fatalf("throughput = %f, want 1 Mbit/s", got)
	}
}

func TestSessionsMergeChainedFlows(t *testing.T) {
	ip := wire.MakeIP(10, 0, 0, 1)
	flows := []Session{
		// A separate session hours later.
		{Host: 1, Client: ip, Start: 5 * time.Hour, End: 6 * time.Hour},
		{Host: 1, Client: ip, Start: 0, End: 10 * time.Minute},
		// NAT killed the connection; re-established 30s later.
		{Host: 1, Client: ip, Start: 10*time.Minute + 30*time.Second, End: 30 * time.Minute},
		// Another device.
		{Host: 2, Client: ip, Start: time.Hour, End: 2 * time.Hour},
	}
	sessions := Sessions(flows, 5*time.Minute)
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d, want 3", len(sessions))
	}
	if d := sessions[0].End - sessions[0].Start; d != 30*time.Minute {
		t.Fatalf("merged session duration = %v", d)
	}
}

func TestGroupOf(t *testing.T) {
	cases := []struct {
		store, retr int64
		want        UserGroup
	}{
		{0, 0, GroupOccasional},
		{5_000, 9_000, GroupOccasional},
		{1e9, 1e6, GroupUploadOnly},
		{1e6, 1e9, GroupDownloadOnly},
		{1e9, 0, GroupUploadOnly},
		{0, 1e9, GroupDownloadOnly},
		{1e8, 1e8, GroupHeavy},
		{50_000, 20_000, GroupHeavy},
	}
	for _, c := range cases {
		if got := GroupOf(c.store, c.retr); got != c.want {
			t.Errorf("GroupOf(%d,%d) = %v, want %v", c.store, c.retr, got, c.want)
		}
	}
}

func TestGroupStrings(t *testing.T) {
	for g := GroupOccasional; g <= GroupHeavy; g++ {
		if g.String() == "" {
			t.Fatal("empty group name")
		}
	}
	if DirStore.String() != "store" || DirRetrieve.String() != "retrieve" {
		t.Fatal("direction names")
	}
	for p := ProvUnknown; p <= ProvYouTube; p++ {
		if p.String() == "" {
			t.Fatal("empty provider name")
		}
	}
}
