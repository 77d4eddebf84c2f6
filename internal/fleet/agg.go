package fleet

import (
	"context"
	"time"

	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// Aggregator is a mergeable streaming Sink. Merge folds another aggregator
// of the same concrete type into the receiver; the engine merges in shard
// order, so merged results are bit-identical across worker counts.
type Aggregator interface {
	Sink
	Merge(other Aggregator)
}

// ShardFinisher is an optional Aggregator extension for per-shard work
// that belongs off the merge's critical path. Aggregate calls FinishShard
// on the worker goroutine, right after the shard's last Consume, so it runs
// in parallel with other shards still generating (the backend collectors
// and the experiments tallies sort their shard's samples there, so only
// sorted runs are left to combine, with MergeRuns). A shard that never
// ran (a cancelled Aggregate) is never finished.
type ShardFinisher interface {
	FinishShard()
}

// Aggregate generates every shard of every population on one pool of
// fc.Workers goroutines, feeding one aggregator per shard, and returns each
// population's shard-ordered merge and stats, in pops order. Shards are
// admitted population by population, in shard order, and fc.Observer's
// ShardEvents count each population's shards apart, so a population's
// results are bit-identical to its own one-population run.
//
// This is the bounded-memory, allocation-free path: a record is recycled
// the moment Consume returns, so aggregators MUST NOT retain one (or its
// NotifyNamespaces slice) — copy what you keep. Record contents and
// aggregates are bit-identical to the unpooled generator (pinned by
// TestPooledShardMatchesUnpooled).
//
// newAgg is called once per shard, population by population in shard
// order, from the calling goroutine before anything runs; aggregators
// implementing ShardFinisher are finished on the worker that ran their
// shard. Cancelling ctx stops the run at shard granularity (in-flight
// shards finish, nothing new starts) and returns the partial merges with
// ctx.Err().
func Aggregate(ctx context.Context, pops []Population, fc Config, newAgg func(pop, shard int) Aggregator) ([]Aggregator, []VPStats, error) {
	fc = fc.normalized()
	trackers := make([]*shardTracker, len(pops))
	aggs := make([][]Aggregator, len(pops))
	for p, pop := range pops {
		trackers[p] = newShardTracker(fc, pop.VP.Name)
		aggs[p] = make([]Aggregator, fc.Shards)
		for sh := range aggs[p] {
			aggs[p][sh] = newAgg(p, sh)
		}
	}
	err := runShards(ctx, fc.Workers, len(pops)*fc.Shards, nil, func(i int) error {
		p := i / fc.Shards
		return trackers[p].run(i%fc.Shards, func(sh int) (workload.ShardStats, error) {
			st := RunShard(pops[p].VP, pops[p].Seed, sh, fc.Shards, aggs[p][sh])
			if f, ok := aggs[p][sh].(ShardFinisher); ok {
				f.FinishShard()
			}
			return st, nil
		})
	})
	roots := make([]Aggregator, len(pops))
	merged := make([]VPStats, len(pops))
	for p := range pops {
		roots[p] = aggs[p][0]
		for _, a := range aggs[p][1:] {
			roots[p].Merge(a)
		}
		merged[p] = mergeStats(pops[p].VP, fc, trackers[p].stats)
	}
	return roots, merged, err
}

// ---------- campaign summary aggregator ----------

// Summary is the standard streaming aggregate of one vantage point: per-day
// volume accumulators, online flow-size histograms, and device / namespace
// / household counters. Memory is O(days + devices), independent of the
// number of flow records.
type Summary struct {
	Days int

	// Flow and byte totals over all providers.
	Flows              int64
	BytesUp, BytesDown int64

	// Per-campaign-day volume accumulators (up+down payload bytes).
	DayVolume        []float64
	DropboxDayVolume []float64

	// Dropbox flow counts and client-storage payload totals.
	DropboxFlows              int64
	StoreBytes, RetrieveBytes int64
	StoreFlows, RetrieveFlows int64
	StoreSizes, RetrieveSizes telemetry.LogHist // per-flow payload distributions
	ControlFlows, NotifyFlows int64
	StorageServers            map[wire.IP]struct{}

	// Population counters recovered from the notification protocol.
	Devices    map[uint64]struct{}
	Namespaces map[uint32]struct{}
	Households map[wire.IP]struct{}

	// lastNotifyHost/-Client memoize the previous notify record's device:
	// notify flows arrive in per-device bursts (NAT-chopped sessions emit
	// thousands back to back), and a device's namespace list is constant,
	// so repeat records skip the map inserts entirely. Pure memoization —
	// the resulting sets are identical.
	lastNotifyHost   uint64
	lastNotifyClient wire.IP
}

// NewSummary builds a Summary for a campaign of the given length.
func NewSummary(days int) *Summary {
	return &Summary{
		Days:             days,
		DayVolume:        make([]float64, days),
		DropboxDayVolume: make([]float64, days),
		StorageServers:   make(map[wire.IP]struct{}),
		Devices:          make(map[uint64]struct{}),
		Namespaces:       make(map[uint32]struct{}),
		Households:       make(map[wire.IP]struct{}),
	}
}

// Classification is the per-record labeling aggregators key on. Wrappers
// that stack extra aggregates on top of a Summary compute it once with
// ClassifyRecord and feed every layer, instead of re-classifying the
// record on each layer of the streaming hot path.
type Classification struct {
	Dropbox bool
	Notify  bool
	Service dnssim.Service
	// Dir is the store/retrieve tag; meaningful only when Service is
	// dnssim.SvcClientStorage on a non-notify Dropbox flow.
	Dir classify.Direction
}

// Storage reports whether the record is a client-storage flow (the ones
// with a store/retrieve direction).
func (c Classification) Storage() bool {
	return c.Dropbox && !c.Notify && c.Service == dnssim.SvcClientStorage
}

// ClassifyRecord labels one record for aggregation.
func ClassifyRecord(r *traces.FlowRecord) Classification {
	c := Classification{Dropbox: classify.ProviderOf(r) == classify.ProvDropbox}
	if !c.Dropbox {
		return c
	}
	if r.NotifyHost != 0 {
		c.Notify = true
		return c
	}
	c.Service = classify.DropboxService(r)
	if c.Service == dnssim.SvcClientStorage {
		c.Dir = classify.TagStorage(r)
	}
	return c
}

// Consume implements Sink.
func (s *Summary) Consume(r *traces.FlowRecord) {
	s.ConsumeClassified(r, ClassifyRecord(r))
}

// ConsumeClassified folds one record using a pre-computed classification.
func (s *Summary) ConsumeClassified(r *traces.FlowRecord, c Classification) {
	s.Flows++
	s.BytesUp += r.BytesUp
	s.BytesDown += r.BytesDown
	if d := int(r.FirstPacket / (24 * time.Hour)); d >= 0 && d < s.Days {
		s.DayVolume[d] += float64(r.BytesUp + r.BytesDown)
		if c.Dropbox {
			s.DropboxDayVolume[d] += float64(r.BytesUp + r.BytesDown)
		}
	}
	if !c.Dropbox {
		return
	}
	s.DropboxFlows++
	if c.Notify {
		s.NotifyFlows++
		if r.NotifyHost == s.lastNotifyHost && r.Client == s.lastNotifyClient {
			return
		}
		s.lastNotifyHost, s.lastNotifyClient = r.NotifyHost, r.Client
		s.Households[r.Client] = struct{}{}
		s.Devices[r.NotifyHost] = struct{}{}
		for _, ns := range r.NotifyNamespaces {
			s.Namespaces[ns] = struct{}{}
		}
		return
	}
	if c.Service != dnssim.SvcClientStorage {
		s.ControlFlows++
		return
	}
	s.StorageServers[r.Server] = struct{}{}
	switch c.Dir {
	case classify.DirStore:
		p := classify.Payload(r, classify.DirStore)
		s.StoreFlows++
		s.StoreBytes += p
		s.StoreSizes.Observe(float64(p))
	case classify.DirRetrieve:
		p := classify.Payload(r, classify.DirRetrieve)
		s.RetrieveFlows++
		s.RetrieveBytes += p
		s.RetrieveSizes.Observe(float64(p))
	}
}

// Merge implements Aggregator.
func (s *Summary) Merge(other Aggregator) {
	o := other.(*Summary)
	s.Flows += o.Flows
	s.BytesUp += o.BytesUp
	s.BytesDown += o.BytesDown
	for d := 0; d < s.Days && d < o.Days; d++ {
		s.DayVolume[d] += o.DayVolume[d]
		s.DropboxDayVolume[d] += o.DropboxDayVolume[d]
	}
	s.DropboxFlows += o.DropboxFlows
	s.StoreBytes += o.StoreBytes
	s.RetrieveBytes += o.RetrieveBytes
	s.StoreFlows += o.StoreFlows
	s.RetrieveFlows += o.RetrieveFlows
	s.StoreSizes.MergeHist(&o.StoreSizes)
	s.RetrieveSizes.MergeHist(&o.RetrieveSizes)
	s.ControlFlows += o.ControlFlows
	s.NotifyFlows += o.NotifyFlows
	for k := range o.StorageServers {
		s.StorageServers[k] = struct{}{}
	}
	for k := range o.Devices {
		s.Devices[k] = struct{}{}
	}
	for k := range o.Namespaces {
		s.Namespaces[k] = struct{}{}
	}
	for k := range o.Households {
		s.Households[k] = struct{}{}
	}
}

// PeakDay returns the campaign day with the highest total volume.
func (s *Summary) PeakDay() int {
	best, bestV := 0, -1.0
	for d, v := range s.DayVolume {
		if v > bestV {
			best, bestV = d, v
		}
	}
	return best
}

// Metrics flattens the summary into the named-metric form the experiment
// harness consumes. All values are exact except the histogram quantiles.
func (s *Summary) Metrics() map[string]float64 {
	return map[string]float64{
		"flows":           float64(s.Flows),
		"bytes_up":        float64(s.BytesUp),
		"bytes_down":      float64(s.BytesDown),
		"dropbox_flows":   float64(s.DropboxFlows),
		"store_flows":     float64(s.StoreFlows),
		"retrieve_flows":  float64(s.RetrieveFlows),
		"store_bytes":     float64(s.StoreBytes),
		"retrieve_bytes":  float64(s.RetrieveBytes),
		"control_flows":   float64(s.ControlFlows),
		"notify_flows":    float64(s.NotifyFlows),
		"devices":         float64(len(s.Devices)),
		"namespaces":      float64(len(s.Namespaces)),
		"households":      float64(len(s.Households)),
		"storage_servers": float64(len(s.StorageServers)),
		"store_median":    s.StoreSizes.Quantile(0.5),
		"store_p90":       s.StoreSizes.Quantile(0.9),
		"retrieve_median": s.RetrieveSizes.Quantile(0.5),
		"retrieve_p90":    s.RetrieveSizes.Quantile(0.9),
		"peak_day":        float64(s.PeakDay()),
	}
}

// Summarize is the one-call streaming pipeline: generate a vantage point
// through the sharded engine and fold every record into a Summary without
// ever materializing the dataset.
func Summarize(ctx context.Context, vp workload.VPConfig, seed int64, fc Config) (*Summary, VPStats, error) {
	days := vp.Days
	aggs, stats, err := Aggregate(ctx, []Population{{vp, seed}}, fc, func(int, int) Aggregator { return NewSummary(days) })
	return aggs[0].(*Summary), stats[0], err
}
