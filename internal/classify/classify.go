// Package classify implements the measurement methodology of the paper:
// traffic classification by TLS certificate / DNS name (Sec. 3.1 and
// Table 1), the store-vs-retrieve tagging function f(u) of Appendix A.2,
// chunk-count estimation from PSH flags (Appendix A.3), duration and
// throughput accounting (Appendix A.4), notification-based session and
// device reconstruction (Sec. 2.3.1), and the user-group heuristics of
// Table 5.
package classify

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

// Provider is a cloud-storage provider (Fig. 2) or competing service.
type Provider int

// Providers under comparison.
const (
	ProvUnknown Provider = iota
	ProvDropbox
	ProvICloud
	ProvSkyDrive
	ProvGoogleDrive
	ProvOtherCloud // SugarSync, Box.com, UbuntuOne, ...
	ProvYouTube
)

func (p Provider) String() string {
	switch p {
	case ProvDropbox:
		return "Dropbox"
	case ProvICloud:
		return "iCloud"
	case ProvSkyDrive:
		return "SkyDrive"
	case ProvGoogleDrive:
		return "Google Drive"
	case ProvOtherCloud:
		return "Others"
	case ProvYouTube:
		return "YouTube"
	default:
		return "Unknown"
	}
}

// Certificate names used to classify flows (the probe extracts these via
// DPI; the workload generator stamps them on synthesized flows).
const (
	CertDropbox     = "*.dropbox.com"
	CertICloud      = "*.icloud.com"
	CertSkyDrive    = "*.livefilestore.com"
	CertGoogleDrive = "drive.google.com"
	CertSugarSync   = "*.sugarsync.com"
	CertBox         = "*.box.com"
	CertUbuntuOne   = "one.ubuntu.com"
	CertYouTube     = "*.youtube.com"
)

// ProviderOf classifies a flow by TLS certificate, SNI, or FQDN. Cleartext
// notification flows carry no TLS name but are identified by their payload
// (a parsed host_int) — which is how Campus 2's devices remain countable
// without DNS visibility.
func ProviderOf(r *traces.FlowRecord) Provider {
	if r.NotifyHost != 0 {
		return ProvDropbox
	}
	for _, name := range []string{r.CertName, r.SNI, r.FQDN} {
		if name == "" {
			continue
		}
		switch {
		case name == CertDropbox || strings.HasSuffix(name, ".dropbox.com"):
			return ProvDropbox
		case name == CertICloud || strings.HasSuffix(name, ".icloud.com"):
			return ProvICloud
		case name == CertSkyDrive || strings.HasSuffix(name, ".livefilestore.com"):
			return ProvSkyDrive
		case name == CertGoogleDrive || strings.HasSuffix(name, "drive.google.com"):
			return ProvGoogleDrive
		case name == CertSugarSync || name == CertBox || name == CertUbuntuOne ||
			strings.HasSuffix(name, ".sugarsync.com") || strings.HasSuffix(name, ".box.com") ||
			strings.HasSuffix(name, "one.ubuntu.com"):
			return ProvOtherCloud
		case name == CertYouTube || strings.HasSuffix(name, ".youtube.com"):
			return ProvYouTube
		}
	}
	return ProvUnknown
}

// DropboxService maps a Dropbox flow to its server group (Fig. 4). The
// FQDN is preferred; without DNS (Campus 2) the SNI substitutes; a bare
// *.dropbox.com certificate on port 80 is the notification service.
func DropboxService(r *traces.FlowRecord) dnssim.Service {
	if svc := dnssim.Classify(r.FQDN); svc != dnssim.SvcUnknown {
		return svc
	}
	if svc := dnssim.Classify(r.SNI); svc != dnssim.SvcUnknown {
		return svc
	}
	if r.ServerPort == 80 && r.NotifyHost != 0 {
		return dnssim.SvcNotify
	}
	return dnssim.SvcUnknown
}

// SSL handshake byte constants of Appendix A.2.
const (
	SSLClientHandshake = 294
	SSLServerHandshake = 4103
)

// F is the store/retrieve boundary of Appendix A.2:
// f(u) = 0.67(u-294) + 4103, u = uploaded bytes.
func F(u float64) float64 { return 0.67*(u-SSLClientHandshake) + SSLServerHandshake }

// Direction tags a storage flow.
type Direction int

// Storage flow directions.
const (
	DirStore Direction = iota
	DirRetrieve
)

func (d Direction) String() string {
	if d == DirStore {
		return "store"
	}
	return "retrieve"
}

// TagStorage labels a storage flow store or retrieve by comparing the
// downloaded bytes against f(uploaded).
func TagStorage(r *traces.FlowRecord) Direction {
	if float64(r.BytesDown) > F(float64(r.BytesUp)) {
		return DirRetrieve
	}
	return DirStore
}

// Payload returns the transferred payload net of typical SSL handshake
// overhead for the tagged direction, floored at zero.
func Payload(r *traces.FlowRecord, d Direction) int64 {
	var v int64
	if d == DirStore {
		v = r.BytesUp - SSLClientHandshake
	} else {
		v = r.BytesDown - SSLServerHandshake
	}
	if v < 0 {
		v = 0
	}
	return v
}

// EstimateChunks recovers the chunk count from PSH flags in the reverse
// direction of the transfer (Appendix A.3): store flows count server PSH
// segments (c = s-3 when the server passively closed, else s-2); retrieve
// flows count client PSH segments (c = (s-2)/2).
func EstimateChunks(r *traces.FlowRecord, d Direction) int {
	var c int
	if d == DirStore {
		s := r.PSHDown
		if r.ServerClosed {
			c = s - 3
		} else {
			c = s - 2
		}
	} else {
		c = (r.PSHUp - 2) / 2
	}
	if c < 1 {
		c = 1
	}
	if c > 100 {
		c = 100
	}
	return c
}

// TransferDuration computes ∆t as in Appendix A.4: from the first SYN to
// the last payload packet in the transfer direction; retrieve flows whose
// server kept talking 60 s past the client (idle-close alert) are
// compensated.
func TransferDuration(r *traces.FlowRecord, d Direction) time.Duration {
	var end time.Duration
	if d == DirStore {
		end = r.LastPayloadUp
	} else {
		end = r.LastPayloadDown
		if r.LastPayloadDown-r.LastPayloadUp > 60*time.Second {
			end -= 60 * time.Second
		}
	}
	dur := end - r.FirstPacket
	if dur <= 0 {
		dur = time.Millisecond
	}
	return dur
}

// Throughput returns payload bits per second for the tagged direction.
func Throughput(r *traces.FlowRecord, d Direction) float64 {
	payload := Payload(r, d)
	dur := TransferDuration(r, d).Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(payload) * 8 / dur
}

// Session is one reconstructed device session (chained notification flows).
type Session struct {
	Host       uint64
	Client     wire.IP
	Start, End time.Duration
}

// Sessions reconstructs device sessions from notification flows, each
// given as a one-flow Session: flows of the same host_int chained with
// gaps below maxGap merge into one session (notification connections are
// immediately re-established after network equipment kills them, Sec.
// 5.5). It sorts flows by host and start in place and returns the
// sessions in that order.
func Sessions(flows []Session, maxGap time.Duration) []Session {
	slices.SortFunc(flows, func(a, b Session) int {
		return cmp.Or(cmp.Compare(a.Host, b.Host), cmp.Compare(a.Start, b.Start))
	})
	var out []Session
	for i, f := range flows {
		if last := len(out) - 1; i > 0 && flows[i-1].Host == f.Host && f.Start-out[last].End <= maxGap {
			out[last].End = max(out[last].End, f.End)
			continue
		}
		out = append(out, f)
	}
	return out
}

// UserGroup is the Table 5 behaviour class of a household.
type UserGroup int

// User groups.
const (
	GroupOccasional UserGroup = iota
	GroupUploadOnly
	GroupDownloadOnly
	GroupHeavy
)

func (g UserGroup) String() string {
	switch g {
	case GroupOccasional:
		return "Occasional"
	case GroupUploadOnly:
		return "Upload-only"
	case GroupDownloadOnly:
		return "Download-only"
	default:
		return "Heavy"
	}
}

// GroupOf applies the Table 5 heuristics to a household's total store and
// retrieve volumes: under 10 kB both ways is occasional; more than three
// orders of magnitude of imbalance is upload- or download-only; the rest
// are heavy.
func GroupOf(storeBytes, retrieveBytes int64) UserGroup {
	const small = 10 * 1000
	if storeBytes < small && retrieveBytes < small {
		return GroupOccasional
	}
	s := float64(storeBytes)
	r := float64(retrieveBytes)
	if s < 1 {
		s = 1
	}
	if r < 1 {
		r = 1
	}
	switch {
	case s/r >= 1000:
		return GroupUploadOnly
	case r/s >= 1000:
		return GroupDownloadOnly
	default:
		return GroupHeavy
	}
}
