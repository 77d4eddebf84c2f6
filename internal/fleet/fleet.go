// Package fleet is the sharded, streaming campaign engine that scales
// vantage-point simulations from thousands to millions of devices.
//
// The legacy workload generator runs one rng stream over the whole
// population and materializes every flow record in a single slice, which
// caps campaigns at what fits in memory on one core. Fleet instead
// partitions a population deterministically into shards (workload.ShardRange)
// with per-shard seeds (workload.ShardSeed) and walks them with one
// executor — one bounded worker pool per call (runShards), one pooled
// generate loop (generatePooled) — under three delivery policies: unordered
// fold (Aggregate over one or more populations, Summarize: a sink per
// shard, merged in shard-index order; the experiments package folds its
// Tallies through Aggregate, while Summary is the fixed-size aggregate of
// dropsim -summary and the facade's Summarize),
// ordered stream (StreamRecords, Records: one consumer, shard order,
// bounded look-ahead) and durable part (ForEachShard with RunShard in the
// caller's per-shard task, which is how internal/campaign writes and
// checkpoints part files).
//
// A population's size is its VPConfig's alone, set by the vantage point's
// Scale and bounded by workload.CheckScale; Config shards and schedules
// the population but never resizes it.
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
// The ownership rule, the same on every path: a record handed to a
// callback (Sink.Consume, StreamRecords' emit, a Records range loop's
// body) is valid until the callback returns, then recycled — a pointer
// kept past that observes the record's next life. Copy the struct by value
// and NotifyNamespaces element-wise to keep (its backing array belongs to
// the generating device); string fields are immutable, so retaining them
// is safe. Each generating shard keeps a free list of its own
// (generatePooled), and the ordered stream holds records by value in its
// slabs, so memory stays bounded regardless of population size.
// PERFORMANCE.md tracks what recycling buys (2.2x records/sec and 12.5x
// fewer allocs/record on the 8-shard aggregation scenario, 1.6x and 3.5x
// fewer on the two-core export).
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

	// Workers bounds how many shards generate concurrently, across every
	// population of one call. Zero means GOMAXPROCS. Workers only affects
	// wall-clock time, never results.
	Workers int

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
	return c
}

// Sink consumes one shard's record stream. The engine builds one sink per
// shard and never shares one across goroutines, so implementations need no
// locking. A record is valid until Consume returns (the ownership rule of
// the package comment).
type Sink interface {
	Consume(*traces.FlowRecord)
}

// VPStats is the merged ground truth of one vantage point's fleet run.
type VPStats struct {
	// Cfg is the vantage point config that ran, sized by its Scale.
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

// Population is one vantage point and seed of an Aggregate call.
type Population struct {
	VP   workload.VPConfig
	Seed int64
}

// runShards is the engine's one executor: it runs task(0) … task(n-1) on
// a pool of up to workers goroutines. Tasks are admitted in index order
// from the calling goroutine.
//
// The first task error, or a cancelled ctx, stops admission: tasks not yet
// started are skipped, in-flight tasks always run to completion so no
// consumer observes a truncated shard, and that first error (or ctx.Err())
// is returned once every worker has exited.
func runShards(ctx context.Context, workers, n int, task func(i int) error) error {
	// run is the caller's ctx, cancelled early by the first task error.
	run, stop := context.WithCancel(ctx)
	defer stop()
	var (
		failOnce sync.Once
		failErr  error
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if run.Err() != nil {
					continue // drain the queue without running
				}
				if err := task(i); err != nil {
					failOnce.Do(func() { failErr = err })
					stop()
				}
			}
		}()
	}
	for i := range n {
		if run.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if failErr != nil {
		return failErr
	}
	return ctx.Err()
}

// ForEachShard runs task once for each listed shard index on the engine's
// worker pool, for runners that bring their own per-shard work (usually
// around RunShard). fc.Workers bounds the concurrency; fc.Observer, shard
// timings and worker occupancy report as on the engine's own paths; a task
// error or a cancelled ctx ends the run as runShards describes.
func ForEachShard(ctx context.Context, fc Config, vpName string, shards []int,
	task func(shard int) (workload.ShardStats, error)) error {

	fc = fc.normalized()
	tracker := newShardTracker(fc, vpName)
	return runShards(ctx, fc.Workers, len(shards), func(i int) error {
		return tracker.run(shards[i], task)
	})
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
