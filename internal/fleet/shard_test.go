package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// csvHashSink hashes the CSV serialization of a pooled record stream —
// safe under pooling because nothing is retained past Consume.
type csvHashSink struct {
	w *traces.Writer
	n int
}

func (s *csvHashSink) Consume(r *traces.FlowRecord) {
	if err := s.w.Write(r); err != nil {
		panic(err)
	}
	s.n++
}

// TestRunShardMatchesGenerateShard: the pooled single-shard primitive
// emits the same stream as the unpooled workload.GenerateShard, shard by
// shard, with identical stats.
func TestRunShardMatchesGenerateShard(t *testing.T) {
	vp := workload.Home1(0.02)
	const shards = 4
	for shard := 0; shard < shards; shard++ {
		pooledHash := fnv.New64a()
		sink := &csvHashSink{w: traces.NewWriter(pooledHash)}
		st := RunShard(vp, 7, shard, shards, sink)
		if err := sink.w.Flush(); err != nil {
			t.Fatal(err)
		}

		plainHash := fnv.New64a()
		w := traces.NewWriter(plainHash)
		n := 0
		legacy := workload.GenerateShard(vp, 7, shard, shards, func(r *traces.FlowRecord) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
			n++
		})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		if got, want := fmt.Sprintf("%016x", pooledHash.Sum64()), fmt.Sprintf("%016x", plainHash.Sum64()); got != want {
			t.Fatalf("shard %d: pooled stream hash %s, unpooled %s", shard, got, want)
		}
		if sink.n != n || !reflect.DeepEqual(st, legacy) {
			t.Fatalf("shard %d: stats differ: pooled %+v (%d recs) vs %+v (%d recs)", shard, st, sink.n, legacy, n)
		}
	}
}

// nopAgg is an Aggregator that keeps nothing.
type nopAgg struct{}

func (nopAgg) Consume(*traces.FlowRecord) {}
func (nopAgg) Merge(Aggregator)           {}

// TestPoolMissesPerShard pins the one recycle rule on both delivery
// paths: every record is recycled the moment its callback returns, so a
// shard allocates only the records its generator holds open at once (two
// merging storage connections and one fold scratch record) and draws
// every other record from its free list. The misses and hits together
// must equal the records the generator drew, counted by an unpooled run
// of each shard. A stream that kept records in its slabs until a producer
// refilled them would miss hundreds of times per stream, by a count that
// moves with scheduling. Not parallel: the counters are process-wide.
func TestPoolMissesPerShard(t *testing.T) {
	const seed, openRecords = 7, 3
	vp := workload.Home1(0.4)
	for _, shards := range []int{1, 8, 16} {
		draws := 0
		for sh := range shards {
			workload.GenerateShardSink(vp, seed, sh, shards, workload.ShardSink{
				Emit: func(*traces.FlowRecord) {},
				Alloc: func() *traces.FlowRecord {
					draws++
					return new(traces.FlowRecord)
				},
			})
		}
		fc := Config{Shards: shards, Workers: 2}
		for _, path := range []struct {
			name string
			run  func() error
		}{
			{"stream", func() error {
				_, err := StreamRecords(context.Background(), vp, seed, fc, func(*traces.FlowRecord) bool { return true })
				return err
			}},
			{"aggregate", func() error {
				_, _, err := Aggregate(context.Background(), []Population{{vp, seed}}, fc,
					func(int, int) Aggregator { return nopAgg{} })
				return err
			}},
		} {
			hits, misses := mPoolHits.Load(), mPoolMisses.Load()
			if err := path.run(); err != nil {
				t.Fatal(err)
			}
			hits, misses = mPoolHits.Load()-hits, mPoolMisses.Load()-misses
			if misses > openRecords*uint64(shards) {
				t.Errorf("%s, %d shards: %d pool misses, want at most %d per shard", path.name, shards, misses, openRecords)
			}
			if hits+misses != uint64(draws) {
				t.Errorf("%s, %d shards: %d hits + %d misses, want the %d records the generator drew", path.name, shards, hits, misses, draws)
			}
			t.Logf("%s, %d shards: %d misses, %d hits", path.name, shards, misses, hits)
		}
	}
}
