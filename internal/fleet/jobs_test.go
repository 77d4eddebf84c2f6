package fleet

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// TestSplitJobsCoverage: every split covers each shard exactly once with
// contiguous, balanced, non-empty ranges — including the degenerate
// jobs > shards and sub-1 inputs.
func TestSplitJobsCoverage(t *testing.T) {
	for _, tc := range []struct{ shards, jobs, wantJobs int }{
		{8, 1, 1}, {8, 2, 2}, {8, 3, 3}, {8, 8, 8},
		{8, 16, 8}, // jobs capped at shards
		{5, 3, 3},  // uneven split
		{1, 4, 1},  // single shard
		{0, 0, 1},  // clamped to 1 shard, 1 job
		{7, -2, 1}, // negative jobs clamps to 1
		{-3, 5, 1}, // negative shards clamps to 1
	} {
		jobs := SplitJobs(tc.shards, tc.jobs)
		if len(jobs) != tc.wantJobs {
			t.Fatalf("SplitJobs(%d, %d) = %d jobs, want %d", tc.shards, tc.jobs, len(jobs), tc.wantJobs)
		}
		shards := tc.shards
		if shards < 1 {
			shards = 1
		}
		next, maxSize, minSize := 0, 0, shards+1
		for i, j := range jobs {
			if j.Job != i {
				t.Fatalf("SplitJobs(%d, %d): job %d labeled %d", tc.shards, tc.jobs, i, j.Job)
			}
			if j.Lo != next || j.Hi <= j.Lo {
				t.Fatalf("SplitJobs(%d, %d): job %d range [%d, %d) not contiguous from %d",
					tc.shards, tc.jobs, i, j.Lo, j.Hi, next)
			}
			if s := j.Shards(); s > maxSize {
				maxSize = s
			} else if s < minSize {
				minSize = s
			}
			next = j.Hi
		}
		if next != shards {
			t.Fatalf("SplitJobs(%d, %d): ranges end at %d, want %d", tc.shards, tc.jobs, next, shards)
		}
		if len(jobs) > 1 && maxSize-minSize > 1 {
			t.Fatalf("SplitJobs(%d, %d): unbalanced split (sizes %d..%d)", tc.shards, tc.jobs, minSize, maxSize)
		}
	}
}

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
	vp := Config{}.ScaledVP(workload.Home1(0.02))
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
