// Package dnssim models the DNS side of the Dropbox service: the Table 1
// sub-domain layout, the server IP pools behind each name, client-side
// round-robin rotation, and the resolution log a passive probe uses to label
// server addresses with the FQDN the client asked for (the DN-Hunter
// technique of Bermudez et al. that the paper relies on, Sec. 3.1).
package dnssim

import (
	"fmt"
	"strings"

	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/wire"
)

// Service identifies one functional group of Dropbox servers, following
// Table 1 and the traffic-share grouping of Fig. 4.
type Service int

// Services, ordered as in Fig. 4's legend.
const (
	SvcUnknown       Service = iota
	SvcClientStorage         // dl-clientX (Amazon)
	SvcWebStorage            // dl-web, dl (Amazon)
	SvcAPIStorage            // api-content (Amazon)
	SvcClientControl         // client-lb, clientX (Dropbox)
	SvcNotify                // notifyX (Dropbox)
	SvcWebControl            // www (Dropbox)
	SvcAPIControl            // api (Dropbox)
	SvcSystemLog             // d (Dropbox), dl-debugX (Amazon)
)

func (s Service) String() string {
	switch s {
	case SvcClientStorage:
		return "Client (storage)"
	case SvcWebStorage:
		return "Web (storage)"
	case SvcAPIStorage:
		return "API (storage)"
	case SvcClientControl:
		return "Client (control)"
	case SvcNotify:
		return "Notify (control)"
	case SvcWebControl:
		return "Web (control)"
	case SvcAPIControl:
		return "API (control)"
	case SvcSystemLog:
		return "System log (all)"
	default:
		return "Others"
	}
}

// Classify maps a dropbox.com FQDN to its service group (Table 1).
func Classify(fqdn string) Service {
	name, ok := strings.CutSuffix(fqdn, ".dropbox.com")
	if !ok {
		return SvcUnknown
	}
	// Strip the instance number by hand: this runs once or twice per
	// record on the aggregation hot path, where strings.TrimRight's
	// per-call ASCII-set build is measurable.
	base := name
	for len(base) > 0 {
		if c := base[len(base)-1]; c < '0' || c > '9' {
			break
		}
		base = base[:len(base)-1]
	}
	switch base {
	case "client-lb", "client":
		return SvcClientControl
	case "notify":
		return SvcNotify
	case "api":
		return SvcAPIControl
	case "www":
		return SvcWebControl
	case "d":
		return SvcSystemLog
	case "dl":
		return SvcWebStorage
	case "dl-client":
		return SvcClientStorage
	case "dl-debug":
		return SvcSystemLog
	case "dl-web":
		return SvcWebStorage
	case "api-content":
		return SvcAPIStorage
	default:
		return SvcUnknown
	}
}

// Directory holds the authoritative name -> IP-pool mapping and the
// data-center each address lives in.
type Directory struct {
	pools map[string][]wire.IP
	// dcOf records which data-center an IP belongs to ("dropbox-dc" or
	// "amazon-dc" in the default layout).
	dcOf map[wire.IP]string

	MetaNames    []string // client-lb + clientX
	NotifyNames  []string // notifyX
	StorageNames []string // dl-clientX
}

// Layout sizes the default directory. Values default to the paper's
// observations: 10 meta-data IPs, 20 notification IPs, >500 storage names
// over >600 storage IPs.
type Layout struct {
	MetaIPs      int
	NotifyIPs    int
	StorageNames int
	StorageIPs   int
}

// DefaultLayout matches Sec. 4.2.1.
func DefaultLayout() Layout {
	return Layout{MetaIPs: 10, NotifyIPs: 20, StorageNames: 520, StorageIPs: 640}
}

// Data-center site names used by the default directory.
const (
	DropboxDC = "dropbox-dc"
	AmazonDC  = "amazon-dc"
)

// Build constructs the Table 1 name space. Dropbox-controlled services live
// in 199.47.216.0/22-style space; Amazon services in 184.72.0.0/16-style
// space (the actual 2012 allocations).
func Build(l Layout) *Directory {
	d := &Directory{
		pools: make(map[string][]wire.IP),
		dcOf:  make(map[wire.IP]string),
	}
	dropboxIP := func(i int) wire.IP {
		ip := wire.MakeIP(199, 47, 216+byte(i/256), byte(i%256))
		d.dcOf[ip] = DropboxDC
		return ip
	}
	amazonIP := func(i int) wire.IP {
		ip := wire.MakeIP(184, 72, byte(i/256), byte(i%256))
		d.dcOf[ip] = AmazonDC
		return ip
	}

	// Meta-data: client-lb resolves to the whole pool; clientX to one IP
	// each ("Meta-data servers are addressed in both ways", Sec. 4.2.1).
	metaPool := make([]wire.IP, l.MetaIPs)
	for i := range metaPool {
		metaPool[i] = dropboxIP(i)
	}
	d.pools["client-lb.dropbox.com"] = metaPool
	d.MetaNames = append(d.MetaNames, "client-lb.dropbox.com")
	for i := 0; i < l.MetaIPs; i++ {
		name := fmt.Sprintf("client%d.dropbox.com", i+1)
		d.pools[name] = []wire.IP{metaPool[i]}
		d.MetaNames = append(d.MetaNames, name)
	}

	// Notification: notifyX, one IP each.
	for i := 0; i < l.NotifyIPs; i++ {
		name := fmt.Sprintf("notify%d.dropbox.com", i+1)
		d.pools[name] = []wire.IP{dropboxIP(l.MetaIPs + i)}
		d.NotifyNames = append(d.NotifyNames, name)
	}

	// Other Dropbox-hosted services.
	base := l.MetaIPs + l.NotifyIPs
	d.pools["www.dropbox.com"] = []wire.IP{dropboxIP(base), dropboxIP(base + 1)}
	d.pools["d.dropbox.com"] = []wire.IP{dropboxIP(base + 2)}
	d.pools["api.dropbox.com"] = []wire.IP{dropboxIP(base + 3), dropboxIP(base + 4)}

	// Storage: StorageNames names spread over StorageIPs addresses; each
	// name resolves to a small pool so every address is reachable.
	storageIPs := make([]wire.IP, l.StorageIPs)
	for i := range storageIPs {
		storageIPs[i] = amazonIP(i)
	}
	for i := 0; i < l.StorageNames; i++ {
		name := fmt.Sprintf("dl-client%d.dropbox.com", i+1)
		pool := []wire.IP{storageIPs[i%l.StorageIPs]}
		if second := (i + l.StorageNames) % l.StorageIPs; second != i%l.StorageIPs {
			pool = append(pool, storageIPs[second])
		}
		d.pools[name] = pool
		d.StorageNames = append(d.StorageNames, name)
	}

	// Remaining Amazon-hosted services.
	na := l.StorageIPs
	d.pools["dl.dropbox.com"] = []wire.IP{amazonIP(na), amazonIP(na + 1)}
	d.pools["dl-web.dropbox.com"] = []wire.IP{amazonIP(na + 2), amazonIP(na + 3)}
	d.pools["api-content.dropbox.com"] = []wire.IP{amazonIP(na + 4)}
	d.pools["dl-debug1.dropbox.com"] = []wire.IP{amazonIP(na + 5)}
	return d
}

// Pool returns the addresses behind a name (nil if unknown).
func (d *Directory) Pool(fqdn string) []wire.IP { return d.pools[fqdn] }

// Names returns every FQDN in the directory.
func (d *Directory) Names() []string {
	out := make([]string, 0, len(d.pools))
	for n := range d.pools {
		out = append(out, n)
	}
	return out
}

// DataCenter reports which data-center site an address belongs to.
func (d *Directory) DataCenter(ip wire.IP) string { return d.dcOf[ip] }

// Event is one DNS resolution visible to the probe.
type Event struct {
	Time   simtime.Time
	Client wire.IP
	FQDN   string
	Server wire.IP
}

// Resolver answers queries with round-robin rotation over each pool and
// reports resolutions to an optional log sink. One resolver serves a whole
// vantage point (clients share the ISP/campus resolver).
type Resolver struct {
	dir *Directory
	rr  map[string]int
	rng *simrand.Source
	// Log receives every resolution; the probe's FQDN labeler subscribes.
	Log func(Event)
}

// NewResolver builds a resolver over the directory.
func NewResolver(dir *Directory, rng *simrand.Source) *Resolver {
	return &Resolver{dir: dir, rr: make(map[string]int), rng: rng.Fork("dns")}
}

// Resolve returns the next address for fqdn, rotating through the pool, and
// logs the resolution. It returns false for names outside the directory.
func (r *Resolver) Resolve(now simtime.Time, client wire.IP, fqdn string) (wire.IP, bool) {
	pool := r.dir.Pool(fqdn)
	if len(pool) == 0 {
		return 0, false
	}
	// Start each name at a random offset so distinct vantage points do not
	// walk pools in lockstep.
	idx, ok := r.rr[fqdn]
	if !ok {
		idx = r.rng.Intn(len(pool))
	}
	r.rr[fqdn] = (idx + 1) % len(pool)
	ip := pool[idx%len(pool)]
	if r.Log != nil {
		r.Log(Event{Time: now, Client: client, FQDN: fqdn, Server: ip})
	}
	return ip, true
}
