package fleet

import (
	"sync/atomic"
	"time"

	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/workload"
)

// The engine's telemetry. Everything here is flushed at shard granularity
// — one histogram observation and a handful of atomic adds per completed
// shard — so the per-record hot path carries no instrumentation beyond
// the plain-int counters that already ride inside RecordPool and the
// streaming producers. The stream metrics count slabs, the ordered path's
// unit of hand-off: fleet.stream_depth is the slabs in flight, queued
// behind the one the consumer just took, fleet.stream_stalls the slab sends
// that found the queue full and waited. fleet.pool_hits/misses cover every
// pooled path (Aggregate, RunShard, StreamRecords), once per shard.
var (
	mShardSeconds = telemetry.NewHist("fleet.shard_seconds")
	mRecords      = telemetry.NewCounter("fleet.records")
	mShardsDone   = telemetry.NewCounter("fleet.shards_done")
	mWorkersBusy  = telemetry.NewGauge("fleet.workers_busy")
	mStreamDepth  = telemetry.NewGauge("fleet.stream_depth")
	mStreamStalls = telemetry.NewCounter("fleet.stream_stalls")
	mPoolHits     = telemetry.NewCounter("fleet.pool_hits")
	mPoolMisses   = telemetry.NewCounter("fleet.pool_misses")
)

// ShardEvent reports one completed generation shard to a Config.Observer.
// Events are observation-only: the engine's output is byte-identical with
// or without an observer installed.
type ShardEvent struct {
	// VP names the vantage point being generated ("home1").
	VP string
	// Shard is this shard's index of Shards total.
	Shard, Shards int
	// Records is the number of flow records this shard emitted.
	Records int
	// Elapsed is the shard's generation wall time.
	Elapsed time.Duration
	// Done counts shards completed so far in this run, including this
	// one. Shards finish out of index order, so Done — not Shard — is
	// the progress measure.
	Done int
}

// shardTracker wraps shard execution with the engine's telemetry: wall
// time, record counts, worker occupancy, and the per-run completion count
// Observer events carry. One tracker serves one run; run is called from
// the worker goroutines.
type shardTracker struct {
	fc   Config
	vp   string
	done atomic.Int64
}

func (t *shardTracker) run(sh int, gen func() workload.ShardStats) workload.ShardStats {
	mWorkersBusy.Add(1)
	start := time.Now()
	stats := gen()
	elapsed := time.Since(start)
	mWorkersBusy.Add(-1)
	mShardSeconds.Observe(elapsed)
	mRecords.Add(uint64(stats.Records))
	mShardsDone.Inc()
	done := int(t.done.Add(1))
	if t.fc.Observer != nil {
		t.fc.Observer(ShardEvent{
			VP:      t.vp,
			Shard:   sh,
			Shards:  t.fc.Shards,
			Records: stats.Records,
			Elapsed: elapsed,
			Done:    done,
		})
	}
	return stats
}
