package fleet

import (
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

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
// runners build on, usually as the body of a ForEachShard task. (vp,
// seed, shard, nshards) fully determine the emitted stream, exactly as on
// the Aggregate path, and sink must not retain a record past Consume.
func RunShard(vp workload.VPConfig, seed int64, shard, nshards int, sink Sink) workload.ShardStats {
	return generatePooled(vp, seed, shard, nshards, new(RecordPool), func(r *traces.FlowRecord) bool {
		sink.Consume(r)
		return false
	})
}
