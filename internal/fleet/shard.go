package fleet

import (
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// generatePooled is the engine's one generate loop: one shard on the
// calling goroutine, every record drawn from the shard's own free list and
// recycled the moment consume returns (the ownership rule of the package
// comment), the shard counted once (fleet.records, fleet.shards_done, pool
// hits and misses) when it ends. A recycled record is zeroed for its next
// life, since the generator expects a zero-valued record from Alloc.
func generatePooled(vp workload.VPConfig, seed int64, shard, nshards int, consume func(*traces.FlowRecord)) workload.ShardStats {
	var free []*traces.FlowRecord
	hits, misses := 0, 0
	put := func(r *traces.FlowRecord) {
		*r = traces.FlowRecord{}
		free = append(free, r)
	}
	st := workload.GenerateShardSink(vp, seed, shard, nshards, workload.ShardSink{
		Emit: func(r *traces.FlowRecord) {
			consume(r)
			put(r)
		},
		Alloc: func() *traces.FlowRecord {
			if n := len(free); n > 0 {
				hits++
				r := free[n-1]
				free = free[:n-1]
				return r
			}
			misses++
			return new(traces.FlowRecord)
		},
		Free: put,
	})
	mPoolHits.Add(uint64(hits))
	mPoolMisses.Add(uint64(misses))
	mRecords.Add(uint64(st.Records))
	mShardsDone.Inc()
	return st
}

// RunShard generates exactly one shard of a sharded campaign into sink on
// the calling goroutine — the single-shard primitive checkpointing
// runners build on, usually as the body of a ForEachShard task. (vp,
// seed, shard, nshards) fully determine the emitted stream, exactly as on
// the Aggregate path. A record is valid until Consume returns (the
// ownership rule of the package comment).
func RunShard(vp workload.VPConfig, seed int64, shard, nshards int, sink Sink) workload.ShardStats {
	return generatePooled(vp, seed, shard, nshards, sink.Consume)
}
