package fleet

import (
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
