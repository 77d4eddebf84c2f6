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
// the plain-int counters that already ride inside generatePooled's free
// list and the streaming producers. On the ordered path, whose unit of hand-off is a
// slab of records: fleet.stream_depth is the records queued for the
// consumer, every shard together, the slab it just took included (set once
// per slab; at most streamBudget plus a slab), and fleet.stream_stalls the
// slab sends that found the stream's budget spent and waited. fleet.records, fleet.shards_done and
// fleet.pool_hits/misses are flushed by generatePooled, the one generate
// loop, so every path — and a bare RunShard call — counts a shard once.
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

// ShardEvent reports one completed shard to a Config.Observer.
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

// shardTracker wraps shard execution with the executor's telemetry: wall
// time, worker occupancy, and the per-run completion count Observer events
// carry, and keeps each completed shard's stats. Records and shards are
// counted where they are generated, in generatePooled. One tracker serves
// one population of a run; run is called from the worker goroutines. A
// shard whose task fails did not complete: it is neither timed nor
// reported, and its stats stay zero.
type shardTracker struct {
	fc    Config
	vp    string
	done  atomic.Int64
	stats []workload.ShardStats // indexed by shard
}

func newShardTracker(fc Config, vp string) *shardTracker {
	return &shardTracker{fc: fc, vp: vp, stats: make([]workload.ShardStats, fc.Shards)}
}

func (t *shardTracker) run(sh int, task func(sh int) (workload.ShardStats, error)) error {
	mWorkersBusy.Add(1)
	start := time.Now()
	stats, err := task(sh)
	elapsed := time.Since(start)
	mWorkersBusy.Add(-1)
	if err != nil {
		return err
	}
	t.stats[sh] = stats
	mShardSeconds.Observe(elapsed)
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
	return nil
}
