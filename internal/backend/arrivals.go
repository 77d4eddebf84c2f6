package backend

import (
	"cmp"
	"time"

	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
)

// Class is the backend service a request lands on, mirroring the paper's
// server-side split: the control plane (meta/login/api), the storage
// nodes, and the notification servers.
type Class uint8

const (
	ClassControl Class = iota
	ClassStorage
	ClassNotify
	numClasses
)

// String returns the class label used in reports and metric names.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassStorage:
		return "storage"
	case ClassNotify:
		return "notify"
	}
	return "unknown"
}

// Request is one client flow translated into backend work: it arrives at
// Arrive and demands Work service units from one node of its Class.
// Requests are plain values — deriving one from a pooled FlowRecord copies
// everything it keeps, so Collector is safe on the pooled Aggregate path.
type Request struct {
	// Arrive is the flow's first packet, as an offset from campaign start.
	Arrive time.Duration
	// Class selects the server pool.
	Class Class
	// Work is the service demand in the class's units: payload bytes for
	// storage transfers, one operation for control and notification hits.
	Work float64
	// Region is a stable locality tag derived from the client address;
	// the region-affine routing policy keys on it.
	Region uint8
	// Key is a content hash of the originating flow. It makes the
	// canonical arrival order total: two requests with equal timestamps
	// sort by Key, so the simulated interleaving is a function of the
	// request multiset alone, not of shard merge order.
	Key uint64
}

// fnv64a hashes a word sequence (FNV-1a over the byte-expanded words).
func fnv64a(words ...uint64) uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// RequestOf derives the backend request of one flow record. Only Dropbox
// flows reach the backend; ok is false for everything else (background
// traffic, YouTube, other providers).
func RequestOf(r *traces.FlowRecord) (Request, bool) {
	if classify.ProviderOf(r) != classify.ProvDropbox {
		return Request{}, false
	}
	rq := Request{
		Arrive: r.FirstPacket,
		Region: uint8(r.Client >> 16),
		Key: fnv64a(uint64(r.Client)<<32|uint64(r.Server),
			uint64(r.ClientPort)<<16|uint64(r.ServerPort),
			uint64(r.FirstPacket),
			uint64(r.BytesUp)<<1^uint64(r.BytesDown)),
		Work: 1,
	}
	switch {
	case r.NotifyHost != 0:
		rq.Class = ClassNotify
	case classify.DropboxService(r) == dnssim.SvcClientStorage:
		rq.Class = ClassStorage
		// Service demand of a storage node scales with the transferred
		// payload in the tagged direction, floored at one unit.
		if p := classify.Payload(r, classify.TagStorage(r)); p > 1 {
			rq.Work = float64(p)
		}
	default:
		rq.Class = ClassControl
	}
	return rq, true
}

// compareRequests is the canonical arrival order: by arrival time, then
// content key, then class, work and region. Requests it calls equal are
// identical values, so a sorted slice is a function of the request
// multiset alone.
func compareRequests(a, b Request) int {
	if c := cmp.Compare(a.Arrive, b.Arrive); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Work, b.Work); c != 0 {
		return c
	}
	return cmp.Compare(a.Region, b.Region)
}

// SortRequests puts requests into the canonical arrival order
// (compareRequests), radix sorted by arrival time (fleet.SortRun). The
// order is total, so simulating a sorted slice is deterministic no matter
// how the slice was assembled (shard order, worker count, a re-run).
func SortRequests(reqs []Request) {
	fleet.SortRun(reqs, func(r Request) int64 { return int64(r.Arrive) }, compareRequests)
}

// Collector is the fleet.Aggregator that turns a campaign's record stream
// into backend arrivals. It retains only Request values (never the pooled
// records), so it is safe on the allocation-free Aggregate path.
//
// Each shard's collector gathers its requests in a fleet.Samples and radix
// sorts them into one run on its worker (FinishShard, SortRequests); Merge
// only gathers those sorted runs, and Arrivals combines them in one k-way
// merge. Its requests are read only after FinishShard.
type Collector struct {
	reqs fleet.Samples[Request]
}

// Consume implements fleet.Sink.
func (c *Collector) Consume(r *traces.FlowRecord) {
	if rq, ok := RequestOf(r); ok {
		c.reqs.Add(rq)
	}
}

// FinishShard implements fleet.ShardFinisher: the shard's run is sorted on
// the worker that generated it.
func (c *Collector) FinishShard() { SortRequests(c.reqs.FinishShard()) }

// Merge implements fleet.Aggregator: other's sorted runs join the
// receiver's, in shard order.
func (c *Collector) Merge(other fleet.Aggregator) { c.reqs.Merge(&other.(*Collector).reqs) }

// Arrivals returns every request of the merged, finished collectors in
// canonical order, their runs' k-way merge; it is called once.
func (c *Collector) Arrivals() []Request { return c.reqs.Merged(compareRequests) }

// ScaleLoad returns a copy of reqs with arrival times compressed by
// factor m (> 1 means m-times the offered load at the same total work):
// the saturation analysis ramps offered load without changing what each
// request demands.
func ScaleLoad(reqs []Request, m float64) []Request {
	out := append([]Request(nil), reqs...) // unlike make, not zeroed first
	for i := range out {
		out[i].Arrive = time.Duration(float64(out[i].Arrive) / m)
	}
	SortRequests(out)
	return out
}

// OfferedRate measures the per-class offered load of an arrival set in
// work units per second, over the span from campaign start to the last
// arrival. Presets use it to provision service rates relative to demand,
// so configurations stay meaningful at any population scale.
func OfferedRate(reqs []Request) [3]float64 {
	var work [3]float64
	var span time.Duration
	for _, r := range reqs {
		work[r.Class] += r.Work
		if r.Arrive > span {
			span = r.Arrive
		}
	}
	if span <= 0 {
		span = time.Second
	}
	var rate [3]float64
	for c := range rate {
		rate[c] = work[c] / span.Seconds()
	}
	return rate
}
