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
	"insidedropbox/internal/traces"
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

// TestScaleLoadEqualsSort: ScaleLoad's copy is SortRequests of the scaled
// arrivals, whether its input is in canonical order or not, at loads that
// spread arrivals apart and that squeeze many onto one instant.
func TestScaleLoadEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := range 40 {
		reqs := make([]Request, rng.Intn(300))
		span := 1 + rng.Intn(5000)
		for i := range reqs {
			reqs[i] = Request{
				Arrive: time.Duration(rng.Intn(span)),
				Key:    uint64(rng.Intn(50)),
				Class:  Class(rng.Intn(int(numClasses))),
				Work:   float64(rng.Intn(2)),
				Region: uint8(rng.Intn(2)),
			}
		}
		if trial%2 == 0 {
			SortRequests(reqs)
		}
		in := slices.Clone(reqs)
		for _, m := range []float64{0.01, 0.5, 1, 2, 1000} {
			want := slices.Clone(reqs)
			for i := range want {
				want[i].Arrive = time.Duration(float64(want[i].Arrive) / m)
			}
			SortRequests(want)
			if got := ScaleLoad(reqs, m); !slices.Equal(got, want) {
				t.Fatalf("trial %d, m=%v: ScaleLoad of %d requests is not the sort of the scaled copy", trial, m, len(reqs))
			}
			if !slices.Equal(reqs, in) {
				t.Fatalf("trial %d, m=%v: ScaleLoad changed its input", trial, m)
			}
		}
	}
}

// TestCollectArrivalsEqualsConcatSort pins the per-shard runs against the
// design they replaced: CollectArrivals returns exactly the shards'
// requests (RequestOf over each shard's records) concatenated and sorted
// once, at every shard and worker count.
func TestCollectArrivalsEqualsConcatSort(t *testing.T) {
	vp, seed := workload.Home1(0.02), int64(7)
	for _, shards := range []int{1, 4, 16} {
		var want []Request
		for sh := 0; sh < shards; sh++ {
			workload.GenerateShard(vp, seed, sh, shards, func(r *traces.FlowRecord) {
				if rq, ok := RequestOf(r); ok {
					want = append(want, rq)
				}
			})
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
