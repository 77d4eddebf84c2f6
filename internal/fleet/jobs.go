package fleet

import (
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// ShardJob is a contiguous shard range assigned to one generation job —
// the unit a process-level campaign runner fans out across cores or
// processes. Lo is inclusive, Hi exclusive.
type ShardJob struct {
	Job    int
	Lo, Hi int
}

// Shards returns the number of shards in the job's range.
func (j ShardJob) Shards() int { return j.Hi - j.Lo }

// SplitJobs partitions the shard index space [0, shards) into up to jobs
// contiguous, balanced ranges using the same arithmetic as
// workload.ShardRange, so every split is deterministic and covers each
// shard exactly once. When jobs exceeds shards the extra jobs are simply
// not created — every returned job owns at least one shard.
func SplitJobs(shards, jobs int) []ShardJob {
	if shards < 1 {
		shards = 1
	}
	if jobs < 1 {
		jobs = 1
	}
	if jobs > shards {
		jobs = shards
	}
	out := make([]ShardJob, jobs)
	for j := range out {
		lo, hi := workload.ShardRange(shards, j, jobs)
		out[j] = ShardJob{Job: j, Lo: lo, Hi: hi}
	}
	return out
}

// generatePooled is the engine's one generate loop: one shard on the
// calling goroutine, every record drawn from pool, the shard counted once
// (fleet.records, fleet.shards_done, pool hits and misses) when it ends. A
// record consume did not keep is recycled the moment consume returns; a
// kept one is the caller's to Put back later on this same goroutine (the
// slabs of StreamRecords).
func generatePooled(vp workload.VPConfig, seed int64, shard, nshards int, pool *RecordPool, consume func(*traces.FlowRecord) (kept bool)) workload.ShardStats {
	st := workload.GenerateShardSink(vp, seed, shard, nshards, workload.ShardSink{
		Emit: func(r *traces.FlowRecord) {
			if !consume(r) {
				pool.Put(r)
			}
		},
		Alloc: pool.Get,
		Free:  pool.Put,
	})
	pool.flushTelemetry()
	mRecords.Add(uint64(st.Records))
	mShardsDone.Inc()
	return st
}

// RunShard generates exactly one shard of a sharded campaign into sink on
// the calling goroutine — the single-shard primitive checkpointing
// runners build on, usually as the body of a ForEachShard task. vp must
// already carry any population scaling (see Config.ScaledVP); (seed,
// shard, nshards) fully determine the emitted stream, exactly as on the
// Aggregate path, and sink must not retain a record past Consume.
func RunShard(vp workload.VPConfig, seed int64, shard, nshards int, sink Sink) workload.ShardStats {
	return generatePooled(vp, seed, shard, nshards, new(RecordPool), func(r *traces.FlowRecord) bool {
		sink.Consume(r)
		return false
	})
}

// ScaledVP applies the config's DevicesScale to a vantage point — the
// same population scaling every engine entry point performs internally,
// exported so external runners that call RunShard directly resolve the
// identical effective population.
func (c Config) ScaledVP(vp workload.VPConfig) workload.VPConfig {
	return c.normalized().apply(vp)
}
