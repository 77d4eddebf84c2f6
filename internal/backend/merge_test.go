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

// randomRequests returns n requests arriving in [0, span), in no order;
// keys in [0, keys) and narrow class, work and region ranges make ties at
// every comparator level.
func randomRequests(rng *rand.Rand, n int, span int64, keys uint64) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Arrive: time.Duration(rng.Int63n(span)),
			Key:    rng.Uint64() % keys,
			Class:  Class(rng.Intn(int(numClasses))),
			Work:   float64(rng.Intn(2)),
			Region: uint8(rng.Intn(2)),
		}
	}
	return reqs
}

// TestSortRequestsEqualsSortFunc pins SortRequests to an independent
// oracle, slices.SortFunc by compareRequests: on random arrivals over a
// campaign, on tie-heavy ones, on input already in order and on a scaled
// copy of it, whose ties are all that is left to sort.
func TestSortRequestsEqualsSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	campaign := int64(42 * 24 * time.Hour)
	for _, n := range []int{0, 1, 33, 1000, 50_000} {
		for _, c := range []struct {
			name string
			reqs []Request
		}{
			{"campaign", randomRequests(rng, n, campaign, 1<<63)},
			{"tie-heavy", randomRequests(rng, n, 20, 3)},
			{"one instant", randomRequests(rng, n, 1, 3)},
			{"ordered", func() []Request {
				r := randomRequests(rng, n, campaign, 1<<63)
				slices.SortFunc(r, compareRequests)
				for i := range r {
					r[i].Arrive /= 1 << 30
				}
				return r
			}()},
		} {
			want := slices.Clone(c.reqs)
			slices.SortFunc(want, compareRequests)
			if SortRequests(c.reqs); !slices.Equal(c.reqs, want) {
				t.Fatalf("n=%d, %s: SortRequests differs from slices.SortFunc", n, c.name)
			}
		}
	}
}

// TestSortRequestsAllocs: sorting 50,000 arrivals allocates nothing; a
// request that escaped to the heap in the sort would allocate per move.
func TestSortRequestsAllocs(t *testing.T) {
	in := randomRequests(rand.New(rand.NewSource(10)), 50_000, int64(42*24*time.Hour), 1<<63)
	reqs := make([]Request, len(in))
	if a := testing.AllocsPerRun(5, func() {
		copy(reqs, in)
		SortRequests(reqs)
	}); a != 0 {
		t.Fatalf("SortRequests of %d requests allocated %v times", len(in), a)
	}
}
