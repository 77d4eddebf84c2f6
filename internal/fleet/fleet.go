// Package fleet is the sharded, streaming campaign engine that scales
// vantage-point simulations from thousands to millions of devices.
//
// The legacy workload generator runs one rng stream over the whole
// population and materializes every flow record in a single slice, which
// caps campaigns at what fits in memory on one core. Fleet instead
// partitions a population deterministically into shards (workload.ShardRange)
// with per-shard seeds (workload.ShardSeed), runs the shards concurrently on
// a bounded worker pool, and streams the generated records into per-shard
// sinks that are merged in shard-index order once all workers finish.
//
// The determinism contract:
//
//   - (seed, shard, nshards) fully determines a shard's record stream —
//     the worker count never changes any output, only wall-clock time;
//   - merges always happen in shard-index order, so even floating-point
//     aggregates are bit-identical across worker counts;
//   - a 1-shard run reproduces the legacy sequential workload.Generate
//     output exactly.
//
// On the streaming path (Aggregate, StreamRecords) memory stays bounded
// regardless of population size: records are consumed as they are
// generated and never accumulated.
//
// Both streaming paths are pooled: each shard draws its FlowRecords from a
// per-shard RecordPool. Aggregate and RunShard recycle a record the moment
// the sink's Consume returns; StreamRecords (and the Records iterator, and
// through them every export) hands records to the consumer in slabs of 256
// and recycles a slab's records once the consumer has drained it. Pooling
// is invisible in the results — pooled and unpooled generation emit
// bit-identical records — but it imposes one ownership rule on every
// consumer: a record (and its NotifyNamespaces slice) is valid until
// Consume or emit returns, or the range loop advances; copy what you keep.
// The rules are spelled out on RecordPool, and PERFORMANCE.md tracks what
// this buys (2.2x records/sec and 12.5x fewer allocs/record on the 8-shard
// aggregation scenario, 1.6x and 3.5x fewer on the two-core binary export).
package fleet

import (
	"context"
	"runtime"
	"sync"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Config sizes a sharded fleet run.
type Config struct {
	// Shards is the number of deterministic population partitions. The
	// shard count is part of the experiment definition: shard k draws
	// from an independent stream seeded by workload.ShardSeed(seed, k),
	// so changing Shards changes the generated population sample, while
	// changing Workers never does.
	Shards int

	// Workers bounds how many shards generate concurrently. Zero means
	// GOMAXPROCS. Workers only affects wall-clock time, never results.
	Workers int

	// DevicesScale multiplies the vantage point's subscriber population
	// (VPConfig.TotalIPs) before sharding; zero or negative means 1.0.
	// This is how campaigns grow 10-1000x beyond the paper's populations
	// without touching the calibrated per-VP configs.
	DevicesScale float64

	// Observer, when non-nil, receives one ShardEvent as each shard
	// finishes generating. Shards complete concurrently, so Observer
	// must be safe for concurrent use; it runs on the worker goroutines
	// and should return quickly. Observation only — installing an
	// observer never changes any generated output.
	Observer func(ShardEvent)
}

func (c Config) normalized() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > workload.MaxShards {
		c.Shards = workload.MaxShards
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	if c.DevicesScale <= 0 {
		c.DevicesScale = 1
	}
	return c
}

// apply scales the vantage point population per DevicesScale.
func (c Config) apply(vp workload.VPConfig) workload.VPConfig {
	if c.DevicesScale != 1 {
		vp.TotalIPs = int(float64(vp.TotalIPs) * c.DevicesScale)
		if vp.TotalIPs < 1 {
			vp.TotalIPs = 1
		}
	}
	return vp
}

// Sink consumes one shard's record stream. The engine builds one sink per
// shard and never shares one across goroutines, so implementations need no
// locking.
//
// Ownership: on the RunVP path records belong to the sink once Consume is
// called (RecordBuffer keeps them). On the pooled Aggregate path records
// are recycled the moment Consume returns — see RecordPool for the rules.
type Sink interface {
	Consume(*traces.FlowRecord)
}

// RecordPool recycles FlowRecord storage within one generating shard. It
// is not safe for concurrent use: the engine gives each shard its own
// pool, and the generator's Alloc/Free calls, the sink's Consume and the
// recycling of slabs StreamRecords' consumer has drained all run on that
// shard's worker goroutine.
//
// Ownership rules for pooled streams:
//
//   - a record obtained from Get is zero-valued and owned by the caller
//     until Put;
//   - Put zeroes the record, so the next Get needs no reset — and any
//     pointer kept past Put observes the record's next life. Consumers
//     on a pooled path must copy whatever they keep (scalar fields are
//     copies already; NotifyNamespaces must be copied element-wise, and
//     string fields are immutable so retaining them is safe);
//   - the record's NotifyNamespaces backing array is never owned by the
//     pool: generators point it at device-owned namespace lists, and
//     zeroing only drops the reference.
type RecordPool struct {
	free []*traces.FlowRecord
	// hits/misses count Get outcomes as plain ints (the pool is
	// single-goroutine by contract); flushTelemetry publishes them.
	hits, misses int
}

// Get returns a zero-valued record.
func (p *RecordPool) Get() *traces.FlowRecord {
	if n := len(p.free); n > 0 {
		p.hits++
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	p.misses++
	return new(traces.FlowRecord)
}

// flushTelemetry publishes the pool's accumulated hit/miss counts to the
// process counters and resets the local tallies. generatePooled calls it
// once per shard.
func (p *RecordPool) flushTelemetry() {
	if p.hits > 0 {
		mPoolHits.Add(uint64(p.hits))
	}
	if p.misses > 0 {
		mPoolMisses.Add(uint64(p.misses))
	}
	p.hits, p.misses = 0, 0
}

// Put zeroes r and makes it available to the next Get.
func (p *RecordPool) Put(r *traces.FlowRecord) {
	*r = traces.FlowRecord{}
	p.free = append(p.free, r)
}

// VPStats is the merged ground truth of one vantage point's fleet run.
type VPStats struct {
	// Cfg is the effective config after DevicesScale.
	Cfg    workload.VPConfig
	Shards int

	// Records counts emitted flow records across all shards.
	Records int
	// Households and Devices are the generated Dropbox ground truth.
	Households, Devices int

	// Population-level per-day background volumes (from shard 0).
	BackgroundByDay, YouTubeByDay []float64

	// Per-cohort ground truth merged across shards, keyed by cohort name
	// (nil unless the vantage point carries a cohort plan).
	CohortDevices, CohortRecords map[string]int
}

// RunVP executes one vantage point across fc.Shards shards on a bounded
// worker pool. newSink is called once per shard, up front, from the calling
// goroutine; each sink then receives exactly its shard's records, from a
// single worker goroutine. Sinks are returned in shard order so callers can
// merge deterministically. RunVP itself blocks until every shard finished.
//
// Cancelling ctx stops the run at shard granularity: shards already
// generating finish (at most one per worker), no further shards start, and
// RunVP returns ctx.Err() with partial stats and partially-filled sinks.
func RunVP(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, newSink func(shard int) Sink) (VPStats, []Sink, error) {
	fc = fc.normalized()
	vp = fc.apply(vp)

	sinks := make([]Sink, fc.Shards)
	for i := range sinks {
		sinks[i] = newSink(i)
	}
	stats, err := runShards(ctx, fc, vp.Name, func(sh int) workload.ShardStats {
		return workload.GenerateShard(vp, seed, sh, fc.Shards, sinks[sh].Consume)
	})
	return mergeStats(vp, fc, stats), sinks, err
}

// runShards executes runShard for every shard index on a pool of
// fc.Workers goroutines (fc must already be normalized) and returns the
// per-shard stats in shard order. When ctx is cancelled, not-yet-started
// shards are skipped (their stats stay zero) and ctx.Err() is returned;
// in-flight shards always run to completion so sinks never observe a
// truncated shard stream.
func runShards(ctx context.Context, fc Config, vpName string, runShard func(sh int) workload.ShardStats) ([]workload.ShardStats, error) {
	stats := make([]workload.ShardStats, fc.Shards)
	tracker := &shardTracker{fc: fc, vp: vpName}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < fc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range jobs {
				if ctx.Err() != nil {
					continue // drain the queue without generating
				}
				stats[sh] = tracker.run(sh, func() workload.ShardStats { return runShard(sh) })
			}
		}()
	}
	for sh := 0; sh < fc.Shards; sh++ {
		jobs <- sh
	}
	close(jobs)
	wg.Wait()
	return stats, ctx.Err()
}

// mergeStats folds per-shard stats in shard-index order.
func mergeStats(vp workload.VPConfig, fc Config, stats []workload.ShardStats) VPStats {
	var merged workload.ShardStats
	for _, s := range stats {
		merged.Merge(s)
	}
	return VPStats{
		Cfg:             vp,
		Shards:          fc.Shards,
		Records:         merged.Records,
		Households:      merged.Households,
		Devices:         merged.Devices,
		BackgroundByDay: merged.BackgroundByDay,
		YouTubeByDay:    merged.YouTubeByDay,
		CohortDevices:   merged.CohortDevices,
		CohortRecords:   merged.CohortRecords,
	}
}

// RecordBuffer is a Sink that materializes its shard's records — the
// compatibility path for consumers that need a full workload.Dataset.
type RecordBuffer struct {
	Records []*traces.FlowRecord
}

// Consume appends one record.
func (b *RecordBuffer) Consume(r *traces.FlowRecord) { b.Records = append(b.Records, r) }

// Dataset materializes a sharded run as a legacy workload.Dataset: shard
// buffers are concatenated in shard order and sorted by first-packet time.
// With fc.Shards == 1 the result is bit-identical to workload.Generate
// (the regression test pins this). A cancelled ctx aborts at shard
// granularity and returns a nil dataset with ctx.Err().
func Dataset(ctx context.Context, vp workload.VPConfig, seed int64, fc Config) (*workload.Dataset, error) {
	stats, sinks, err := RunVP(ctx, vp, seed, fc, func(int) Sink { return &RecordBuffer{} })
	if err != nil {
		return nil, err
	}
	var recs []*traces.FlowRecord
	if stats.Records > 0 {
		recs = make([]*traces.FlowRecord, 0, stats.Records)
	}
	for _, s := range sinks {
		recs = append(recs, s.(*RecordBuffer).Records...)
	}
	workload.SortRecords(recs)
	return &workload.Dataset{
		Cfg:               stats.Cfg,
		Records:           recs,
		BackgroundByDay:   stats.BackgroundByDay,
		YouTubeByDay:      stats.YouTubeByDay,
		DropboxHouseholds: stats.Households,
		DropboxDevices:    stats.Devices,
	}, nil
}

// WriterSink adapts a traces.RecordWriter into a Sink: records stream
// straight into the serialization with no intermediate buffering. The
// first write error latches into Err and suppresses all further writes,
// so a sink on a streaming path can be drained safely after a failure.
type WriterSink struct {
	W   traces.RecordWriter
	Err error
}

// Consume implements Sink.
func (s *WriterSink) Consume(r *traces.FlowRecord) {
	if s.Err == nil {
		s.Err = s.W.Write(r)
	}
}
