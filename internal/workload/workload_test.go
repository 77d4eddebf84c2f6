package workload

import (
	"math"
	"testing"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

func home1Small(t *testing.T) *Dataset {
	t.Helper()
	cfg := Home1(0.08) // ~1500 IPs
	return Generate(cfg, 42)
}

// isStorage reports whether a service moves file data.
func isStorage(s dnssim.Service) bool {
	return s == dnssim.SvcClientStorage || s == dnssim.SvcWebStorage || s == dnssim.SvcAPIStorage
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Campus1(0.3)
	a := Generate(cfg, 7)
	b := Generate(cfg, 7)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	if a.Records[0].BytesUp != b.Records[0].BytesUp {
		t.Fatal("same seed produced different records")
	}
	c := Generate(cfg, 8)
	if len(c.Records) == len(a.Records) {
		t.Log("different seeds produced equal counts (possible but unlikely)")
	}
}

func TestRecordsWithinHorizonAndSorted(t *testing.T) {
	ds := home1Small(t)
	horizon := time.Duration(ds.Cfg.Days) * 24 * time.Hour
	prev := time.Duration(-1)
	for _, r := range ds.Records {
		if r.FirstPacket < prev {
			t.Fatal("records not sorted by start time")
		}
		prev = r.FirstPacket
		if r.FirstPacket < 0 || r.FirstPacket >= horizon {
			t.Fatalf("record starts outside horizon: %v", r.FirstPacket)
		}
	}
	if len(ds.Records) < 1000 {
		t.Fatalf("suspiciously few records: %d", len(ds.Records))
	}
}

func TestDropboxPenetration(t *testing.T) {
	ds := home1Small(t)
	frac := float64(ds.DropboxHouseholds) / float64(ds.Cfg.TotalIPs)
	if frac < 0.045 || frac > 0.095 {
		t.Fatalf("dropbox penetration = %.3f, want ≈ 0.069", frac)
	}
}

func TestOutageDayEmpty(t *testing.T) {
	ds := home1Small(t)
	for _, r := range ds.Records {
		if DayOfRecord(r) == 28 {
			t.Fatalf("record on outage day: %v", r.FirstPacket)
		}
	}
	if ds.BackgroundByDay[28] != 0 || ds.YouTubeByDay[28] != 0 {
		t.Fatal("background volume on outage day")
	}
}

func TestGoogleDriveLaunch(t *testing.T) {
	ds := home1Small(t)
	for _, r := range ds.Records {
		if classify.ProviderOf(r) == classify.ProvGoogleDrive && DayOfRecord(r) < 31 {
			t.Fatalf("Google Drive flow before launch day: day %d", DayOfRecord(r))
		}
	}
}

func TestStorageFlowCap(t *testing.T) {
	ds := home1Small(t)
	maxBytes := int64(0)
	for _, r := range ds.Records {
		if classify.ProviderOf(r) != classify.ProvDropbox {
			continue
		}
		if isStorage(classify.DropboxService(r)) && r.ServerPort == 443 {
			if v := r.BytesUp + r.BytesDown; v > maxBytes {
				maxBytes = v
			}
		}
	}
	// 100 chunks x 4 MB plus overheads: nothing should exceed ~420 MB.
	if maxBytes > 440e6 {
		t.Fatalf("storage flow of %d bytes exceeds the batch cap", maxBytes)
	}
	if maxBytes < 10e6 {
		t.Fatalf("no large storage flows at all (max %d)", maxBytes)
	}
}

// TestGroupMixSumsToOne: the generator draws Heavy as the remainder of
// the other three shares, so a calibrated mix that did not sum to 1 would
// generate a Heavy share other than Table 5's.
func TestGroupMixSumsToOne(t *testing.T) {
	for _, name := range VantagePoints() {
		cfg, _ := ByName(name, 1)
		m := cfg.Groups
		if sum := m.Occasional + m.UploadOnly + m.DownloadOnly + m.Heavy; math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: Table 5 mix %+v sums to %v, want 1", name, m, sum)
		}
	}
}

func TestGroupRecovery(t *testing.T) {
	// The probe-side Table 5 heuristics should recover a group mixture
	// close to the configured one.
	ds := home1Small(t)
	store := make(map[wire.IP]int64)
	retr := make(map[wire.IP]int64)
	hasClient := make(map[wire.IP]bool)
	for _, r := range ds.Records {
		if classify.ProviderOf(r) != classify.ProvDropbox {
			continue
		}
		if r.NotifyHost != 0 {
			hasClient[r.Client] = true
		}
		if svc := classify.DropboxService(r); svc.String() == "Client (storage)" {
			switch classify.TagStorage(r) {
			case classify.DirStore:
				store[r.Client] += classify.Payload(r, classify.DirStore)
			case classify.DirRetrieve:
				retr[r.Client] += classify.Payload(r, classify.DirRetrieve)
			}
		}
	}
	counts := map[classify.UserGroup]int{}
	total := 0
	for ip := range hasClient {
		counts[classify.GroupOf(store[ip], retr[ip])]++
		total++
	}
	if total < 50 {
		t.Fatalf("too few classified households: %d", total)
	}
	occ := float64(counts[classify.GroupOccasional]) / float64(total)
	heavy := float64(counts[classify.GroupHeavy]) / float64(total)
	if occ < 0.15 || occ > 0.50 {
		t.Fatalf("occasional fraction = %.2f, config wants ≈ 0.31", occ)
	}
	if heavy < 0.20 || heavy > 0.55 {
		t.Fatalf("heavy fraction = %.2f, config wants ≈ 0.37", heavy)
	}
}

func TestDevicesPerHouseholdShape(t *testing.T) {
	ds := home1Small(t)
	perIP := make(map[wire.IP]map[uint64]bool)
	for _, r := range ds.Records {
		if r.NotifyHost != 0 {
			if perIP[r.Client] == nil {
				perIP[r.Client] = make(map[uint64]bool)
			}
			perIP[r.Client][r.NotifyHost] = true
		}
	}
	c := analysis.NewCounter()
	for _, hosts := range perIP {
		c.Add(len(hosts))
	}
	if c.Total() < 50 {
		t.Fatalf("too few households: %d", c.Total())
	}
	if f := c.Fraction(1); f < 0.45 || f > 0.75 {
		t.Fatalf("single-device fraction = %.2f, Fig. 12 wants ≈ 0.6", f)
	}
}

// namespaceCounts tallies devices by the length of their namespace list,
// which a device keeps for the whole capture.
func namespaceCounts(records []*traces.FlowRecord) *analysis.Counter {
	perDev := make(map[uint64]int)
	for _, r := range records {
		if n := len(r.NotifyNamespaces); n > 0 {
			perDev[r.NotifyHost] = n
		}
	}
	c := analysis.NewCounter()
	for _, n := range perDev {
		c.Add(n)
	}
	return c
}

func TestNamespaceShape(t *testing.T) {
	c := namespaceCounts(home1Small(t).Records)
	if f := c.Fraction(1); f < 0.18 || f > 0.40 {
		t.Fatalf("1-namespace fraction = %.2f, Fig. 13 wants ≈ 0.28 in homes", f)
	}
	// Campus should skew higher.
	cc := namespaceCounts(Generate(Campus1(1.0), 9).Records)
	if cc.FractionAtLeast(5) <= c.FractionAtLeast(5) {
		t.Fatalf("campus >=5-namespace share (%.2f) should exceed home (%.2f)",
			cc.FractionAtLeast(5), c.FractionAtLeast(5))
	}
}

func TestNotifySessionsChopped(t *testing.T) {
	cfg := Home1(0.02)
	cfg.NATChoppedFrac = 1.0 // force every session behind a NAT killer
	ds := Generate(cfg, 5)
	short := 0
	totalNotify := 0
	for _, r := range ds.Records {
		if r.NotifyHost != 0 {
			totalNotify++
			if r.Duration() < time.Minute {
				short++
			}
		}
	}
	if totalNotify == 0 {
		t.Fatal("no notify flows")
	}
	// Chopped connections live 15-75 s, so roughly three quarters fall
	// under the minute.
	if frac := float64(short) / float64(totalNotify); frac < 0.6 {
		t.Fatalf("chopped sessions: only %.2f of notify flows under a minute", frac)
	}
}

func TestCampus2NoDNS(t *testing.T) {
	ds := Generate(Campus2(0.15), 3)
	for _, r := range ds.Records {
		if r.FQDN != "" {
			t.Fatalf("Campus 2 record carries FQDN %q", r.FQDN)
		}
	}
	// Classification must still work via SNI/cert.
	dropboxFlows := 0
	for _, r := range ds.Records {
		if classify.ProviderOf(r) == classify.ProvDropbox {
			dropboxFlows++
		}
	}
	if dropboxFlows == 0 {
		t.Fatal("no Dropbox flows classified without DNS")
	}
}

func TestAbnormalUploaderPresence(t *testing.T) {
	ds := Generate(Home2(0.06), 11)
	// The anomaly shows as a pile of single-chunk ~4 MB store flows.
	fourMB := 0
	for _, r := range ds.Records {
		if r.ServerPort != 443 || classify.ProviderOf(r) != classify.ProvDropbox {
			continue
		}
		if classify.TagStorage(r) == classify.DirStore {
			p := classify.Payload(r, classify.DirStore)
			if p > 4<<20 && p < 4<<20+700_000 {
				fourMB++
			}
		}
	}
	if fourMB < 50 {
		t.Fatalf("abnormal uploader produced only %d single-chunk 4MB flows", fourMB)
	}
}

func TestControlFlowsDominateFlowCount(t *testing.T) {
	ds := home1Small(t)
	control, storage, all := 0, 0, 0
	for _, r := range ds.Records {
		if classify.ProviderOf(r) != classify.ProvDropbox {
			continue
		}
		all++
		svc := classify.DropboxService(r)
		if isStorage(svc) {
			storage++
		} else {
			control++
		}
	}
	if all == 0 {
		t.Fatal("no dropbox flows")
	}
	frac := float64(control) / float64(all)
	if frac < 0.6 {
		t.Fatalf("control flows = %.2f of Dropbox flows; Fig. 4 wants > 0.8", frac)
	}
}

func TestDatasetVolumeDenominators(t *testing.T) {
	ds := Generate(Campus2(0.15), 13)
	var recVol float64
	for _, r := range ds.Records {
		recVol += float64(r.BytesUp + r.BytesDown)
	}
	background := 0.0
	for _, v := range ds.BackgroundByDay {
		background += v
	}
	if background <= 0 || recVol <= 0 {
		t.Fatal("total volume must include background")
	}
	if len(ds.BackgroundByDay) != ds.Cfg.Days {
		t.Fatal("background bins wrong length")
	}
}

func traceRecordsVP(ds *Dataset) string {
	if len(ds.Records) == 0 {
		return ""
	}
	return ds.Records[0].VP
}

func TestVPStamped(t *testing.T) {
	ds := Generate(Campus1(0.5), 17)
	if traceRecordsVP(ds) != "campus1" {
		t.Fatalf("vp = %q", traceRecordsVP(ds))
	}
	var _ *traces.FlowRecord = ds.Records[0]
}

func BenchmarkGenerateCampus1(b *testing.B) {
	cfg := Campus1(0.5)
	for i := 0; i < b.N; i++ {
		ds := Generate(cfg, int64(i))
		if len(ds.Records) == 0 {
			b.Fatal("empty dataset")
		}
	}
}
