package dnssim

import (
	"strings"
	"testing"

	"insidedropbox/internal/simrand"
	"insidedropbox/internal/wire"
)

func TestClassifyTable1(t *testing.T) {
	cases := map[string]Service{
		"client-lb.dropbox.com":   SvcClientControl,
		"client7.dropbox.com":     SvcClientControl,
		"notify3.dropbox.com":     SvcNotify,
		"api.dropbox.com":         SvcAPIControl,
		"www.dropbox.com":         SvcWebControl,
		"d.dropbox.com":           SvcSystemLog,
		"dl.dropbox.com":          SvcWebStorage,
		"dl-client42.dropbox.com": SvcClientStorage,
		"dl-debug1.dropbox.com":   SvcSystemLog,
		"dl-web.dropbox.com":      SvcWebStorage,
		"api-content.dropbox.com": SvcAPIStorage,
		"evil.example.com":        SvcUnknown,
		"dropbox.com":             SvcUnknown,
	}
	for fqdn, want := range cases {
		if got := Classify(fqdn); got != want {
			t.Errorf("Classify(%q) = %v, want %v", fqdn, got, want)
		}
	}
}

func TestServiceStrings(t *testing.T) {
	for s := SvcUnknown; s <= SvcSystemLog; s++ {
		if s.String() == "" {
			t.Fatalf("service %d has empty name", s)
		}
	}
}

func TestBuildDefaultLayout(t *testing.T) {
	d := Build(DefaultLayout())
	if len(d.MetaNames) != 11 { // client-lb + client1..10
		t.Fatalf("meta names = %d", len(d.MetaNames))
	}
	if len(d.NotifyNames) != 20 {
		t.Fatalf("notify names = %d", len(d.NotifyNames))
	}
	if len(d.StorageNames) != 520 {
		t.Fatalf("storage names = %d", len(d.StorageNames))
	}
	if got := len(d.Pool("client-lb.dropbox.com")); got != 10 {
		t.Fatalf("client-lb pool = %d IPs", got)
	}
	if got := len(d.Pool("client3.dropbox.com")); got != 1 {
		t.Fatalf("clientX pool = %d IPs", got)
	}
}

func TestStorageIPCoverage(t *testing.T) {
	d := Build(DefaultLayout())
	seen := make(map[wire.IP]bool)
	for _, n := range d.StorageNames {
		for _, ip := range d.Pool(n) {
			seen[ip] = true
		}
	}
	if len(seen) != 640 {
		t.Fatalf("storage names cover %d IPs, want 640", len(seen))
	}
	for ip := range seen {
		if d.DataCenter(ip) != AmazonDC {
			t.Fatalf("storage IP %s not in Amazon DC", ip)
		}
	}
}

func TestDataCenterSplit(t *testing.T) {
	d := Build(DefaultLayout())
	byDC := allIPs(d)
	if len(byDC[DropboxDC]) < 30 {
		t.Fatalf("dropbox DC has %d IPs", len(byDC[DropboxDC]))
	}
	if len(byDC[AmazonDC]) < 640 {
		t.Fatalf("amazon DC has %d IPs", len(byDC[AmazonDC]))
	}
	for _, n := range d.MetaNames {
		for _, ip := range d.Pool(n) {
			if d.DataCenter(ip) != DropboxDC {
				t.Fatalf("meta IP %s not in Dropbox DC", ip)
			}
		}
	}
}

func TestClassifyAllDirectoryNames(t *testing.T) {
	d := Build(DefaultLayout())
	for _, n := range d.Names() {
		if Classify(n) == SvcUnknown {
			t.Fatalf("directory name %q unclassified", n)
		}
	}
}

func TestResolverRotation(t *testing.T) {
	d := Build(DefaultLayout())
	r := NewResolver(d, simrand.New(1, "t"))
	client := wire.MakeIP(10, 0, 0, 1)
	seen := make(map[wire.IP]int)
	for i := 0; i < 40; i++ {
		ip, ok := r.Resolve(0, client, "client-lb.dropbox.com")
		if !ok {
			t.Fatal("resolution failed")
		}
		seen[ip]++
	}
	if len(seen) != 10 {
		t.Fatalf("rotation reached %d of 10 IPs", len(seen))
	}
	for ip, n := range seen {
		if n != 4 {
			t.Fatalf("uneven rotation: %s hit %d times", ip, n)
		}
	}
}

func TestResolverUnknownName(t *testing.T) {
	d := Build(DefaultLayout())
	r := NewResolver(d, simrand.New(1, "t"))
	if _, ok := r.Resolve(0, 0, "nxdomain.example.com"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestResolverLog(t *testing.T) {
	d := Build(DefaultLayout())
	r := NewResolver(d, simrand.New(1, "t"))
	var events []Event
	r.Log = func(e Event) { events = append(events, e) }
	client := wire.MakeIP(10, 0, 0, 9)
	ip, _ := r.Resolve(42, client, "dl-client7.dropbox.com")
	if len(events) != 1 {
		t.Fatalf("log got %d events", len(events))
	}
	e := events[0]
	if e.Client != client || e.Server != ip || e.FQDN != "dl-client7.dropbox.com" || e.Time != 42 {
		t.Fatalf("event = %+v", e)
	}
}

func TestStorageNamePattern(t *testing.T) {
	d := Build(DefaultLayout())
	for _, n := range d.StorageNames {
		if !strings.HasPrefix(n, "dl-client") || !strings.HasSuffix(n, ".dropbox.com") {
			t.Fatalf("bad storage name %q", n)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	d := Build(DefaultLayout())
	r := NewResolver(d, simrand.New(1, "b"))
	client := wire.MakeIP(10, 0, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Resolve(0, client, "dl-client99.dropbox.com")
	}
}

// allIPs returns every address in the directory, grouped by data-center.
func allIPs(d *Directory) map[string][]wire.IP {
	out := make(map[string][]wire.IP)
	seen := make(map[wire.IP]bool)
	for _, pool := range d.pools {
		for _, ip := range pool {
			if !seen[ip] {
				seen[ip] = true
				out[d.dcOf[ip]] = append(out[d.dcOf[ip]], ip)
			}
		}
	}
	return out
}
