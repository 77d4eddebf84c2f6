package fleet

import (
	"context"
	"iter"
	"sync"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// streamBuf is the per-shard channel capacity on the ordered streaming
// path: a producing worker runs at most this many records ahead of the
// consumer before blocking.
const streamBuf = 1024

// ctxCheckMask amortizes ctx.Err() polling on the consumer loop: the
// context is checked once every ctxCheckMask+1 records (plus once per
// drained shard), keeping cancellation latency far below a shard while
// staying off the per-record hot path.
const ctxCheckMask = 0xff

// StreamRecords runs a sharded generation and delivers every record to
// emit in canonical order — shard 0's records first (in generation order),
// then shard 1's, and so on — while shards execute concurrently on the
// worker pool. emit runs on the calling goroutine; returning false stops
// the stream early (no error: a consumer break is a normal outcome).
//
// Memory stays bounded regardless of population size: shards are admitted
// in index order through a window of Workers+1 tokens, so at most
// Workers+1 shards are generating or parked ahead of the consumer, each
// buffering at most streamBuf records before its producer blocks. No shard
// output is ever fully materialized.
//
// Cancelling ctx (or stopping via emit) halts promptly, bounded by one
// shard per worker: in-flight shards finish generating with their output
// discarded, queued shards never start, and every goroutine exits before
// StreamRecords returns. On cancellation the partial stats are returned
// with ctx.Err().
//
// The returned stats describe generation, not delivery: after an early
// stop they include the shards that finished generating with discarded
// output, so stats.Records can exceed the number of records emit
// received. Count deliveries in the emit callback when that distinction
// matters; on a full run the two are equal.
func StreamRecords(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, emit func(*traces.FlowRecord) bool) (VPStats, error) {
	fc = fc.normalized()
	vp = fc.apply(vp)

	chans := make([]chan *traces.FlowRecord, fc.Shards)
	for i := range chans {
		chans[i] = make(chan *traces.FlowRecord, streamBuf)
	}
	stats := make([]workload.ShardStats, fc.Shards)

	// stop tears the pipeline down: the dispatcher quits admitting shards,
	// and producers blocked on a full channel drop the rest of their
	// shard's records instead of waiting for a consumer that left.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	// Admission happens in shard order on the dispatcher, so the shard the
	// consumer is waiting on always holds a token and is running: the
	// window bounds buffering without ever deadlocking.
	window := make(chan struct{}, fc.Workers+1)
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for sh := 0; sh < fc.Shards; sh++ {
			select {
			case window <- struct{}{}:
			case <-stop:
				return
			}
			select {
			case jobs <- sh:
			case <-stop:
				return
			}
		}
	}()

	tracker := &shardTracker{fc: fc, vp: vp.Name}
	var wg sync.WaitGroup
	for w := 0; w < fc.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range jobs {
				ch := chans[sh]
				dropping := false
				stalls := 0
				stats[sh] = tracker.run(sh, func() workload.ShardStats {
					return workload.GenerateShard(vp, seed, sh, fc.Shards, func(r *traces.FlowRecord) {
						if dropping {
							return
						}
						// Fast path: buffer space available. The
						// blocking select below is reached only when the
						// producer would actually stall on the consumer
						// (or the stream is being torn down) — that's the
						// backpressure signal the stall counter tracks.
						select {
						case ch <- r:
							return
						default:
						}
						stalls++
						select {
						case ch <- r:
						case <-stop:
							dropping = true
						}
					})
				})
				if stalls > 0 {
					mStreamStalls.Add(uint64(stalls))
				}
				close(ch)
			}
		}()
	}
	// finish tears the pipeline down (halt is a no-op on the natural-
	// completion path) and waits for every worker to exit before stats
	// are merged — workers write stats[sh] until then.
	finish := func(err error) (VPStats, error) {
		halt()
		wg.Wait()
		return mergeStats(vp, fc, stats), err
	}

	var n uint
	for sh := 0; sh < fc.Shards; sh++ {
		if ctx.Err() != nil {
			return finish(ctx.Err())
		}
		for r := range chans[sh] {
			if n&ctxCheckMask == 0 {
				// Sampled at the ctx-poll cadence so the depth gauge
				// stays off the per-record path.
				mStreamDepth.Set(int64(len(chans[sh])))
				if ctx.Err() != nil {
					return finish(ctx.Err())
				}
			}
			n++
			if !emit(r) {
				return finish(nil)
			}
		}
		<-window // shard fully drained: admit the next one
	}
	return finish(nil)
}

// Records returns the record stream of one vantage point as a Go 1.23+
// iterator: the streaming abstraction CSV/binary export, aggregation and
// user analysis all consume. Records are yielded in canonical shard order
// with bounded buffering; breaking out of the range loop tears the
// generating workers down cleanly. The final pair carries a nil record and
// ctx.Err() if the context was cancelled mid-stream; otherwise err is
// always nil.
//
// Records yielded by the iterator remain valid after the loop advances
// (this path does not pool record storage).
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
