package experiments

import (
	"cmp"
	"context"
	"maps"
	"time"

	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// Volume counts flows and their up+down bytes.
type Volume struct{ Flows, Bytes int64 }

// sessionGap chains a device's notification flows into one session when
// the next one starts within it: the client reconnects at once after
// network equipment kills the connection (Sec. 5.5).
const sessionGap = 5 * time.Minute

// webStorageHost names the main Web interface's storage server (Fig. 17).
const webStorageHost = "dl-web.dropbox.com"

// Tally is one vantage point folded for the paper's tables and figures.
// Every renderer reads a Tally instead of re-walking records, so one pass
// per vantage point feeds all of them; the what-if lab folds one Tally per
// capability profile and reads its rows off Storage. It is a
// fleet.Aggregator: a generated population folds shard by shard and no
// record outlives its Consume. Over a trace file it is a plain sink
// (cmd/tstat-analyze).
//
// Counts and volumes are exact integers. The samples the order statistics
// need are kept: a compact sample of each client-storage flow, read only
// after FinishShard sorts its shard's, then merged, and a few numbers per
// control, notification, Web-storage and direct-link flow.
type Tally struct {
	// VPStats is the generation ground truth a fold attaches: the
	// effective config and the background volumes. It is zero on a tally
	// of a trace file.
	fleet.VPStats

	// Providers counts every flow by provider. Services counts every
	// Dropbox flow by server group (Fig. 4).
	Providers [classify.ProvYouTube + 1]Volume
	Services  [dnssim.SvcSystemLog + 1]Volume

	// Storage holds a compact sample of every client-storage flow
	// (dl-clientX), sorted per shard and merged: a fold or FinishShard
	// leaves them in first-packet order, the probe's export order.
	Storage []StorageFlow
	storage fleet.Samples[StorageFlow] // until FinishShard; then the runs to merge

	// ControlRTT holds the minimum RTT in ms of client-control flows with
	// enough RTT samples (Fig. 6). NotifySeconds holds the positive
	// durations of notification flows (Fig. 16). WebUp and WebDown hold
	// the bytes of main Web interface storage flows (Fig. 17).
	// DirectLinks holds the downloaded bytes of dl.dropbox.com flows
	// (Fig. 18).
	ControlRTT, NotifySeconds []float64
	WebUp, WebDown            []float64
	DirectLinks               []float64

	// providerDays holds bytes per campaign day and provider (Figs. 2
	// and 3). providerIPs holds the client addresses seen per cloud
	// provider and day (Fig. 2).
	providerDays [][classify.ProvYouTube + 1]int64
	providerIPs  map[providerDayIP]struct{}

	// hosts maps every notifying device to its last namespace count
	// (Fig. 13). devices holds the (household, device) pairs seen on
	// notification flows (Figs. 11 and 12, Table 5).
	hosts   map[uint64]namespaces
	devices map[householdDevice]struct{}

	// notify collects one shard's notification flows until FinishShard
	// chains them into sessions (Figs. 14 and 15, Table 5).
	notify   fleet.Samples[classify.Session]
	sessions []classify.Session
}

// StorageFlow is the sample a Tally keeps of a client-storage flow: the
// fields of its record that the storage tables and figures and the
// classify storage rules read, at their FlowRecord types.
type StorageFlow struct {
	Client, Server                                      wire.IP
	FirstPacket, LastPayloadUp, LastPayloadDown, MinRTT time.Duration
	BytesUp, BytesDown                                  int64
	PSHUp, PSHDown, RTTSamples                          int
	ServerClosed                                        bool
}

// Record returns the sample as a flow record, for the classify rules; the
// fields a StorageFlow does not keep are zero.
func (s *StorageFlow) Record() traces.FlowRecord {
	return traces.FlowRecord{Client: s.Client, Server: s.Server, FirstPacket: s.FirstPacket,
		LastPayloadUp: s.LastPayloadUp, LastPayloadDown: s.LastPayloadDown, BytesUp: s.BytesUp, BytesDown: s.BytesDown,
		PSHUp: s.PSHUp, PSHDown: s.PSHDown, MinRTT: s.MinRTT, RTTSamples: s.RTTSamples, ServerClosed: s.ServerClosed}
}

func byFirstPacket(a, b StorageFlow) int { return cmp.Compare(a.FirstPacket, b.FirstPacket) }

type providerDayIP struct {
	ip  wire.IP
	day int
	p   classify.Provider
}

type householdDevice struct {
	ip   wire.IP
	host uint64
}

// namespaces is a device's namespace count at its latest observation.
type namespaces struct {
	last time.Duration
	n    int
}

// NewTally returns an empty tally over a campaign of the given number of
// days. Per-day series ignore records outside it; 0 turns them off.
func NewTally(days int) *Tally {
	return &Tally{
		providerDays: make([][classify.ProvYouTube + 1]int64, days),
		providerIPs:  make(map[providerDayIP]struct{}),
		hosts:        make(map[uint64]namespaces),
		devices:      make(map[householdDevice]struct{}),
	}
}

// Consume implements fleet.Sink. It keeps no pointer into r.
func (t *Tally) Consume(r *traces.FlowRecord) {
	bytes := r.BytesUp + r.BytesDown
	p := classify.ProviderOf(r)
	t.Providers[p].Flows++
	t.Providers[p].Bytes += bytes
	if d := workload.DayOfRecord(r); d >= 0 && d < len(t.providerDays) {
		t.providerDays[d][p] += bytes
		if p != classify.ProvUnknown && p != classify.ProvYouTube {
			t.providerIPs[providerDayIP{r.Client, d, p}] = struct{}{}
		}
	}
	if r.FQDN == "dl.dropbox.com" {
		t.DirectLinks = append(t.DirectLinks, float64(r.BytesDown))
	}
	if p != classify.ProvDropbox {
		return
	}
	svc := classify.DropboxService(r)
	t.Services[svc].Flows++
	t.Services[svc].Bytes += bytes
	if r.NotifyHost != 0 {
		t.consumeNotify(r)
	}
	switch svc {
	case dnssim.SvcClientStorage:
		t.storage.Add(StorageFlow{Client: r.Client, Server: r.Server, FirstPacket: r.FirstPacket,
			LastPayloadUp: r.LastPayloadUp, LastPayloadDown: r.LastPayloadDown, BytesUp: r.BytesUp, BytesDown: r.BytesDown,
			PSHUp: r.PSHUp, PSHDown: r.PSHDown, MinRTT: r.MinRTT, RTTSamples: r.RTTSamples, ServerClosed: r.ServerClosed})
	case dnssim.SvcClientControl:
		if ms, ok := minRTTms(r); ok {
			t.ControlRTT = append(t.ControlRTT, ms)
		}
	case dnssim.SvcWebStorage:
		if r.ServerPort == 443 && (r.SNI == webStorageHost || r.FQDN == webStorageHost) {
			t.WebUp = append(t.WebUp, float64(r.BytesUp))
			t.WebDown = append(t.WebDown, float64(r.BytesDown))
		}
	}
}

func (t *Tally) consumeNotify(r *traces.FlowRecord) {
	if sec := r.Duration().Seconds(); sec > 0 {
		t.NotifySeconds = append(t.NotifySeconds, sec)
	}
	t.devices[householdDevice{r.Client, r.NotifyHost}] = struct{}{}
	// Namespace counts only grow, so the latest observation is the one
	// Fig. 13 plots.
	ns, seen := t.hosts[r.NotifyHost]
	if n := len(r.NotifyNamespaces); n > 0 && r.LastPacket >= ns.last {
		t.hosts[r.NotifyHost] = namespaces{r.LastPacket, n}
	} else if !seen {
		t.hosts[r.NotifyHost] = ns
	}
	t.notify.Add(classify.Session{
		Host: r.NotifyHost, Client: r.Client, Start: r.FirstPacket, End: r.LastPacket})
}

// minRTTms returns a flow's minimum RTT in milliseconds, if the probe took
// the 10 RTT samples the paper requires of it (Fig. 6).
func minRTTms(r *traces.FlowRecord) (float64, bool) {
	if r.RTTSamples < 10 || r.MinRTT <= 0 {
		return 0, false
	}
	return float64(r.MinRTT) / float64(time.Millisecond), true
}

// FinishShard implements fleet.ShardFinisher: it chains the notification
// flows consumed so far into device sessions, and stable-sorts the storage
// samples by first packet into Storage, the shard's run, on the worker
// that generated them. Households never span shards, so neither do
// sessions. A trace-file tally calls it once, after its last record.
func (t *Tally) FinishShard() {
	t.sessions = append(t.sessions, classify.Sessions(t.notify.Take(), sessionGap)...)
	t.Storage = t.storage.FinishShard()
	sortByFirstPacket(t.Storage)
}

// sortByFirstPacket stable-sorts samples by first packet. It radix sorts
// (first packet, position) keys, which are unique, with fleet.SortRun, and
// then moves each sample once along the cycles of the sorted permutation:
// a stable sort of the 88-byte samples themselves moves each many times.
func sortByFirstPacket(s []StorageFlow) {
	type key struct {
		at time.Duration
		i  int
	}
	keys := make([]key, len(s))
	for i := range s {
		keys[i] = key{s[i].FirstPacket, i}
	}
	fleet.SortRun(keys, func(k key) int64 { return int64(k.at) },
		func(a, b key) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.i, b.i)) })
	// The sample at keys[j].i belongs at j; a placed sample's key is -1.
	for j := range keys {
		if keys[j].i < 0 {
			continue
		}
		tmp, k := s[j], j
		for keys[k].i != j {
			src := keys[k].i
			s[k] = s[src]
			keys[k].i = -1
			k = src
		}
		s[k], keys[k].i = tmp, -1
	}
}

// Merge implements fleet.Aggregator. other's sorted storage runs join the
// receiver's, in shard order, for the fold to merge once.
func (t *Tally) Merge(other fleet.Aggregator) {
	o := other.(*Tally)
	for p, v := range o.Providers {
		t.Providers[p].Flows += v.Flows
		t.Providers[p].Bytes += v.Bytes
	}
	for s, v := range o.Services {
		t.Services[s].Flows += v.Flows
		t.Services[s].Bytes += v.Bytes
	}
	for d := range t.providerDays {
		for p, b := range o.providerDays[d] {
			t.providerDays[d][p] += b
		}
	}
	t.storage.Merge(&o.storage)
	t.ControlRTT = append(t.ControlRTT, o.ControlRTT...)
	t.NotifySeconds = append(t.NotifySeconds, o.NotifySeconds...)
	t.WebUp = append(t.WebUp, o.WebUp...)
	t.WebDown = append(t.WebDown, o.WebDown...)
	t.DirectLinks = append(t.DirectLinks, o.DirectLinks...)
	maps.Copy(t.providerIPs, o.providerIPs)
	maps.Copy(t.hosts, o.hosts)
	maps.Copy(t.devices, o.devices)
	t.sessions = append(t.sessions, o.sessions...)
}

// Flows returns the number of flows consumed.
func (t *Tally) Flows() int64 {
	var n int64
	for _, v := range t.Providers {
		n += v.Flows
	}
	return n
}

// HouseholdVolumes returns the store and retrieve payload of each client
// address's storage flows.
func (t *Tally) HouseholdVolumes() (store, retr map[wire.IP]int64) {
	store = make(map[wire.IP]int64)
	retr = make(map[wire.IP]int64)
	for i := range t.Storage {
		r := t.Storage[i].Record()
		switch d := classify.TagStorage(&r); d {
		case classify.DirStore:
			store[r.Client] += classify.Payload(&r, d)
		case classify.DirRetrieve:
			retr[r.Client] += classify.Payload(&r, d)
		}
	}
	return store, retr
}

// DevicesPerHousehold counts the devices seen behind each address with a
// Dropbox client (Fig. 12). Its keys are those addresses.
func (t *Tally) DevicesPerHousehold() map[wire.IP]int {
	out := make(map[wire.IP]int)
	for hd := range t.devices {
		out[hd.ip]++
	}
	return out
}

// StorageSizes returns the flow sizes of storage flows in their transfer
// direction: bytes up for stores, bytes down for retrieves (Fig. 7).
func (t *Tally) StorageSizes() (store, retr []float64) {
	for i := range t.Storage {
		r := t.Storage[i].Record()
		if classify.TagStorage(&r) == classify.DirStore {
			store = append(store, float64(r.BytesUp))
		} else {
			retr = append(retr, float64(r.BytesDown))
		}
	}
	return store, retr
}

// StorageRTT returns the minimum RTT in ms of the storage flows with
// enough RTT samples (Fig. 6).
func (t *Tally) StorageRTT() []float64 {
	var out []float64
	for i := range t.Storage {
		r := t.Storage[i].Record()
		if ms, ok := minRTTms(&r); ok {
			out = append(out, ms)
		}
	}
	return out
}

// fold generates the populations on one fleet pool into one Tally each,
// a tally per shard merged in shard order. Cancelling ctx aborts at shard
// granularity and returns ctx.Err() with nil tallies.
func fold(ctx context.Context, pops []fleet.Population, fc fleet.Config) (Tallies, error) {
	aggs, stats, err := fleet.Aggregate(ctx, pops, fc, func(p, _ int) fleet.Aggregator { return NewTally(pops[p].VP.Days) })
	if err != nil {
		return nil, err
	}
	ts := make(Tallies, len(aggs))
	for p, agg := range aggs {
		ts[p] = agg.(*Tally)
		ts[p].VPStats = stats[p]
		// The probe's export order, which Table 4's means sum in: ties go
		// to the lower shard, as in a stable sort of the shards' samples.
		ts[p].Storage = ts[p].storage.Merged(byFirstPacket)
	}
	return ts, nil
}

// Tallies are the study's four vantage points, in campus1, campus2, home1,
// home2 order.
type Tallies []*Tally

// Fold folds the four vantage points on one fleet pool of fc.Workers.
// Per-VP seeds are seed+1 … seed+4, stable since the first release.
// fc.Shards == 1 folds the historical sequential populations.
func Fold(ctx context.Context, seed int64, sc ScaleConfig, fc fleet.Config) (Tallies, error) {
	return fold(ctx, vantagePoints(seed, sc), fc)
}

// ByName returns a vantage point's tally (nil if absent).
func (ts Tallies) ByName(name string) *Tally {
	for _, t := range ts {
		if t.Cfg.Name == name {
			return t
		}
	}
	return nil
}
