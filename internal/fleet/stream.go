package fleet

import (
	"context"
	"iter"
	"sync"
	"weak"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Hand-off on the ordered streaming path is by slab: a producer copies
// slabRecords records into a slab and queues it for the consumer. Shards
// generate ahead of the consumer until the stream holds streamBudget
// records, so the consumer usually finds the next shard generated.
const (
	slabRecords  = 256
	streamBudget = 1 << 16
)

// A slab holds its records by value: the consumer emits pointers to its
// slots, and whichever producer refills it next overwrites them.
type slab []traces.FlowRecord

// spare carries one stream's drained slabs to the next, so a run of
// streams allocates its slabs about once. The pool alone keeps them
// alive, so a collection or two drops them and a process that has stopped
// streaming does not keep some 16 MiB of records. The next stream finds
// them through the weak pointer: a pool's Get, after a collection, does
// not reach an item another P put, so whether a stream reused the slabs
// would hang on which P each goroutine ran on.
var spare struct {
	mu    sync.Mutex
	slabs weak.Pointer[[]slab]
	keep  sync.Pool
}

// takeSpare returns the slabs the last stream left, if they are still
// alive, and leaves nothing for another stream to take.
func takeSpare() []slab {
	spare.mu.Lock()
	defer spare.mu.Unlock()
	p := spare.slabs.Value()
	if p == nil {
		return nil
	}
	s := *p
	*p = nil
	return s
}

// keepSpare hands a stream's drained slabs to the next one.
func keepSpare(s []slab) {
	p := &s
	spare.mu.Lock()
	spare.slabs = weak.Make(p)
	spare.mu.Unlock()
	spare.keep.Put(p)
}

// queue is the hand-off of one stream: every shard's queued slabs, and
// the budget that bounds them, under one lock.
type queue struct {
	mu     sync.Mutex
	moved  sync.Cond // producers wait: the consumer drained a slab or moved on
	ready  sync.Cond // the consumer waits: a slab or a shard's end arrived
	shards []shardQueue
	queued int    // records queued or being emitted, every shard together
	head   int    // the shard the consumer drains
	free   []slab // drained slabs, for any producer
	stop   bool
}

type shardQueue struct {
	slabs []slab
	done  bool
}

// update changes q under its lock and wakes everyone waiting on it.
func (q *queue) update(change func()) {
	q.mu.Lock()
	change()
	q.mu.Unlock()
	q.moved.Broadcast()
	q.ready.Broadcast()
}

// put queues s as shard sh's next slab, first waiting while that would
// take the stream past streamBudget records. The head shard waits only
// while its own queue holds a slab, since the consumer waits on it alone:
// the stream cannot deadlock, and never queues more than streamBudget
// records plus a slab. put reports whether it waited, and false once the
// stream has stopped.
func (q *queue) put(sh int, s slab) (waited, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	own := &q.shards[sh]
	for q.queued+len(s) > streamBudget && (sh != q.head || len(own.slabs) > 0) && !q.stop {
		waited = true
		q.moved.Wait()
	}
	if !q.stop {
		q.queued += len(s)
		own.slabs = append(own.slabs, s)
		q.ready.Signal()
	}
	return waited, !q.stop
}

// spare returns an empty slab for a producer to fill: a drained one, or
// else a new one.
func (q *queue) spare() slab {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(q.free); n > 0 {
		s := q.free[n-1]
		q.free = q.free[:n-1]
		return s[:0]
	}
	return make(slab, 0, slabRecords)
}

// get returns shard sh's next slab: nil once the shard has ended or the
// stream has stopped.
func (q *queue) get(sh int) slab {
	q.mu.Lock()
	defer q.mu.Unlock()
	own := &q.shards[sh]
	for len(own.slabs) == 0 && !own.done && !q.stop {
		q.ready.Wait()
	}
	if len(own.slabs) == 0 || q.stop {
		return nil
	}
	s := own.slabs[0]
	own.slabs = own.slabs[1:]
	mStreamDepth.Set(int64(q.queued))
	return s
}

// StreamRecords runs a sharded generation and delivers every record to
// emit in canonical order — shard 0's records first (in generation order),
// then shard 1's, and so on — while shards execute concurrently on the
// worker pool. emit runs on the calling goroutine; returning false stops
// the stream early (no error: a consumer break is a normal outcome).
//
// A record passed to emit is a slot of a slab, valid until emit returns
// (the ownership rule of the package comment).
//
// Memory stays bounded regardless of population size. Shards start in
// index order and generate ahead of the consumer, each a whole shard if
// the stream has room, until streamBudget (65,536) records are queued or
// being emitted; only the shard the consumer drains may pass that, by one
// slab of slabRecords, so the stream cannot deadlock. Beyond those, each
// of the Workers generating shards holds the slab it is filling and the
// records its generator has open. No shard output is ever fully
// materialized.
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
	q := &queue{shards: make([]shardQueue, fc.Shards)}
	q.moved.L, q.ready.L = &q.mu, &q.mu
	q.free = takeSpare()

	// Cancelling run — the caller's ctx, or halt below — tears the pipeline
	// down: the executor quits starting shards, and producers waiting on
	// the budget drop the rest of their shard's records instead of waiting
	// for a consumer that left.
	run, halt := context.WithCancel(ctx)
	defer halt()
	context.AfterFunc(run, func() { q.update(func() { q.stop = true }) })

	tracker := newShardTracker(fc, vp.Name)
	done := make(chan struct{})
	go func() {
		defer close(done)
		runShards(run, fc.Workers, fc.Shards, func(sh int) error {
			return tracker.run(sh, func(sh int) (workload.ShardStats, error) {
				defer q.update(func() { q.shards[sh].done = true })
				return produceShard(vp, seed, sh, fc.Shards, q), nil
			})
		})
	}()
	// finish halts the pipeline (a no-op once every shard is drained),
	// waits for the executor, and so every worker, to exit before the
	// stats are merged, and keeps the drained slabs for the next stream.
	finish := func(err error) (VPStats, error) {
		halt()
		<-done
		keepSpare(q.free)
		return mergeStats(vp, fc, tracker.stats), err
	}

	for sh := range q.shards {
		for {
			s := q.get(sh)
			if ctx.Err() != nil {
				return finish(ctx.Err())
			}
			if s == nil {
				break
			}
			for i := range s {
				if !emit(&s[i]) {
					return finish(nil)
				}
			}
			q.update(func() {
				q.queued -= len(s)
				q.free = append(q.free, s)
			})
		}
		q.update(func() { q.head = sh + 1 })
	}
	return finish(nil)
}

// produceShard generates one shard into q, slab by slab, on the calling
// worker goroutine. Once the stream stops it generates on with the output
// discarded, so the shard's stats stay whole.
func produceShard(vp workload.VPConfig, seed int64, shard, nshards int, q *queue) workload.ShardStats {
	var cur slab
	dropping, stalls := false, 0
	send := func() {
		waited, ok := q.put(shard, cur)
		if waited {
			stalls++
		}
		dropping, cur = !ok, nil
	}
	st := generatePooled(vp, seed, shard, nshards, func(r *traces.FlowRecord) {
		if dropping {
			return
		}
		if cur == nil {
			cur = q.spare()
		}
		cur = append(cur, *r)
		if len(cur) == slabRecords {
			send()
		}
	})
	if cur != nil {
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
// A yielded record is valid until the loop advances (the ownership rule of
// the package comment).
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
