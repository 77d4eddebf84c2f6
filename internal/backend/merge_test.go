package backend

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/workload"
)

// TestMergeRunsEqualsSort is the merge's property test: the k-way merge
// of sorted runs equals SortRequests of their concatenation, for k in
// {1, 2, 8, 64}, with empty runs, all-equal timestamps and duplicate
// requests (narrow field ranges make every comparator level decide).
func TestMergeRunsEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 8, 64} {
		for trial := 0; trial < 50; trial++ {
			span := 1 + rng.Intn(100)
			if trial%5 == 0 {
				span = 1 // every request at one instant
			}
			runs := make([][]Request, k)
			var all []Request
			for i := range runs {
				n := rng.Intn(40)
				if rng.Intn(4) == 0 {
					n = 0
				}
				for range n {
					runs[i] = append(runs[i], Request{
						Arrive: time.Duration(rng.Intn(span)),
						Key:    uint64(rng.Intn(3)),
						Class:  Class(rng.Intn(int(numClasses))),
						Work:   float64(rng.Intn(2)),
						Region: uint8(rng.Intn(2)),
					})
				}
				SortRequests(runs[i])
				all = append(all, runs[i]...)
			}
			SortRequests(all)
			if got := fleet.MergeRuns(runs, compareRequests); !slices.Equal(got, all) {
				t.Fatalf("k=%d trial %d: merge of %d requests differs from the sort", k, trial, len(all))
			}
		}
	}
}

// TestCollectArrivalsEqualsConcatSort pins the per-shard runs against the
// design they replaced: CollectArrivals returns exactly the shards'
// requests concatenated and sorted once, at every shard and worker count.
func TestCollectArrivalsEqualsConcatSort(t *testing.T) {
	vp, seed := workload.Home1(0.02), int64(7)
	for _, shards := range []int{1, 4, 16} {
		var want []Request
		for sh := 0; sh < shards; sh++ {
			var c Collector
			workload.GenerateShard(vp, seed, sh, shards, c.Consume)
			want = append(want, c.Requests...)
		}
		SortRequests(want)
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				got, _, err := CollectArrivals(context.Background(), vp, seed, fleet.Config{Shards: shards, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("collected %d arrivals, not the %d of concatenate-then-sort", len(got), len(want))
				}
			})
		}
	}
}
