package fleet

import (
	"context"
	"iter"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Hand-off on the ordered streaming path is by slab: a producing worker
// passes slabRecords pooled records to the consumer with one channel
// operation, and runs at most streamBuf records (slabDepth full slabs)
// ahead of it before blocking.
const (
	slabRecords = 256
	streamBuf   = 1024
	slabDepth   = streamBuf / slabRecords
)

// shardStream is one shard's hand-off: full slabs go to the consumer on
// full, drained ones come back on back for the producer — the one goroutine
// that touches the shard's RecordPool — to recycle and refill. A shard has
// at most slabDepth+2 slabs (one filling, slabDepth queued, one draining),
// which is back's capacity: returning a slab never blocks, even after the
// producer has exited.
type shardStream struct {
	full, back chan []*traces.FlowRecord
}

// StreamRecords runs a sharded generation and delivers every record to
// emit in canonical order — shard 0's records first (in generation order),
// then shard 1's, and so on — while shards execute concurrently on the
// worker pool. emit runs on the calling goroutine; returning false stops
// the stream early (no error: a consumer break is a normal outcome).
//
// Record storage is pooled per shard, as on the Aggregate path: a record
// passed to emit is valid until emit returns, then recycled. Copy to keep —
// the struct by value, NotifyNamespaces with slices.Clone (see RecordPool).
//
// Memory stays bounded regardless of population size: shards are admitted
// in index order through a window of Workers+1 tokens, so at most
// Workers+1 shards are generating or parked ahead of the consumer, each
// holding at most slabDepth+2 slabs before its producer blocks. No shard
// output is ever fully materialized.
//
// Cancelling ctx (or stopping via emit) halts promptly, bounded by one
// shard per worker: in-flight shards finish generating with their output
// discarded, queued shards never start, and every goroutine exits before
// StreamRecords returns. ctx is polled once per slab, so emit may see the
// rest of the current slab after a cancel. On cancellation the partial
// stats are returned with ctx.Err().
//
// The returned stats describe generation, not delivery: after an early
// stop they include the shards that finished generating with discarded
// output, so stats.Records can exceed the number of records emit
// received. Count deliveries in the emit callback when that distinction
// matters; on a full run the two are equal.
func StreamRecords(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, emit func(*traces.FlowRecord) bool) (VPStats, error) {
	fc = fc.normalized()
	vp = fc.apply(vp)

	streams := make([]shardStream, fc.Shards)
	for i := range streams {
		streams[i] = shardStream{
			full: make(chan []*traces.FlowRecord, slabDepth),
			back: make(chan []*traces.FlowRecord, slabDepth+2),
		}
	}

	// Cancelling run — the caller's ctx, or halt below — tears the pipeline
	// down: the executor quits admitting shards, and producers blocked on
	// a full channel drop the rest of their shard's records instead of
	// waiting for a consumer that left.
	run, halt := context.WithCancel(ctx)
	defer halt()

	// Admission happens in shard order on the executor's dispatcher, so the
	// shard the consumer is waiting on always holds a token and is running:
	// the window bounds buffering without ever deadlocking.
	window := make(chan struct{}, fc.Workers+1)
	admit := func() bool {
		select {
		case window <- struct{}{}:
			return true
		case <-run.Done():
			return false
		}
	}
	tracker := newShardTracker(fc, vp.Name)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runShards(run, fc.Workers, fc.Shards, admit, func(sh int) error {
			return tracker.run(sh, func(sh int) (workload.ShardStats, error) {
				defer close(streams[sh].full)
				return produceShard(vp, seed, sh, fc.Shards, streams[sh], run.Done()), nil
			})
		})
	}()
	// finish halts the pipeline (a no-op once every shard is drained) and
	// waits for the executor, and so every worker, to exit before the
	// stats are merged.
	finish := func(err error) (VPStats, error) {
		halt()
		<-done
		return mergeStats(vp, fc, tracker.stats), err
	}

	for _, s := range streams {
		for {
			var slab []*traces.FlowRecord
			var open bool
			select {
			case slab, open = <-s.full:
			case <-ctx.Done(): // a shard never admitted closes no channel
			}
			if ctx.Err() != nil {
				return finish(ctx.Err())
			}
			if !open {
				break
			}
			mStreamDepth.Set(int64(len(s.full)))
			for _, r := range slab {
				if !emit(r) {
					return finish(nil)
				}
			}
			s.back <- slab
		}
		<-window // shard fully drained: admit the next one
	}
	return finish(nil)
}

// produceShard generates one shard into s, slab by slab, on the calling
// worker goroutine. Once stop closes it generates on with the output
// discarded, so the shard's stats stay whole.
func produceShard(vp workload.VPConfig, seed int64, shard, nshards int, s shardStream, stop <-chan struct{}) workload.ShardStats {
	pool := new(RecordPool)
	var slab []*traces.FlowRecord
	dropping, stalls := false, 0
	// send hands the slab over. The blocking select is reached only when
	// the producer would stall on the consumer (or the stream is being torn
	// down): the backpressure signal the stall counter tracks.
	send := func() {
		select {
		case s.full <- slab:
		default:
			stalls++
			select {
			case s.full <- slab:
			case <-stop:
				dropping = true
			}
		}
		slab = nil
	}
	st := generatePooled(vp, seed, shard, nshards, pool, func(r *traces.FlowRecord) bool {
		if dropping {
			return false
		}
		if slab == nil {
			// Refill a drained slab once its records are back in the
			// pool; allocate only while the first few are in flight.
			select {
			case slab = <-s.back:
				for _, old := range slab {
					pool.Put(old)
				}
				slab = slab[:0]
			default:
				slab = make([]*traces.FlowRecord, 0, slabRecords)
			}
		}
		slab = append(slab, r)
		if len(slab) == slabRecords {
			send()
		}
		return true
	})
	if len(slab) > 0 {
		send()
	}
	if stalls > 0 {
		mStreamStalls.Add(uint64(stalls))
	}
	return st
}

// Records returns the record stream of one vantage point as a Go 1.23+
// iterator: the streaming abstraction CSV/binary export, aggregation and
// user analysis all consume. Records are yielded in canonical shard order
// with bounded buffering; breaking out of the range loop tears the
// generating workers down cleanly. The final pair carries a nil record and
// ctx.Err() if the context was cancelled mid-stream; otherwise err is
// always nil.
//
// A yielded record is valid until the loop advances; copy to keep (the
// ownership rule on StreamRecords).
func Records(ctx context.Context, vp workload.VPConfig, seed int64, fc Config) iter.Seq2[*traces.FlowRecord, error] {
	return func(yield func(*traces.FlowRecord, error) bool) {
		_, err := StreamRecords(ctx, vp, seed, fc, func(r *traces.FlowRecord) bool {
			return yield(r, nil)
		})
		if err != nil {
			yield(nil, err)
		}
	}
}
