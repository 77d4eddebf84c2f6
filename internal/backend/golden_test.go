package backend

import (
	"context"
	"hash/fnv"
	"reflect"
	"testing"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/golden"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// TestStreamGoldenWithBackend is determinism-contract point 14: attaching
// a backend simulation to a record stream never changes the stream, and an
// infinite-capacity backend is invisible — zero queueing delay, zero
// drops, every request served. The golden hashes (internal/golden) are
// the values TestRecordStreamGolden (internal/workload) has pinned since
// the seed:
// the records are serialized to CSV and hashed WHILE being teed into the
// backend collector, so any backend-induced perturbation of the stream
// (there is no mechanism for one — the collector copies what it keeps)
// would show up as a hash mismatch at either shard count. The finished
// collector's arrivals are the teed requests sorted once by SortRequests.
func TestStreamGoldenWithBackend(t *testing.T) {
	for _, g := range []golden.Stream{golden.Home1OneShard, golden.Home1FourShard, golden.Home2Abnormal} {
		t.Run(g.Name, func(t *testing.T) {
			vp, _ := workload.ByName(g.VP, g.Scale)
			h := fnv.New64a()
			w := traces.NewWriter(h)
			col := &Collector{}
			var reqs []Request
			for sh := 0; sh < g.Shards; sh++ {
				workload.GenerateShard(vp, g.Seed, sh, g.Shards, func(r *traces.FlowRecord) {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
					col.Consume(r)
					if rq, ok := RequestOf(r); ok {
						reqs = append(reqs, rq)
					}
				})
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); !golden.Match(got, g.Hash) {
				t.Fatalf("record stream hash with backend tee = %#x, want %#x", got, g.Hash)
			}

			SortRequests(reqs)
			col.FinishShard()
			if got := col.Arrivals(); len(reqs) == 0 || !reflect.DeepEqual(got, reqs) {
				t.Fatalf("collector tee: %d arrivals, not the %d teed requests in canonical order", len(got), len(reqs))
			}
			cfg, err := PresetConfig(PresetInfinite, reqs)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Simulate(context.Background(), cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Served != int64(len(reqs)) || rep.Dropped != 0 || rep.Shed != 0 {
				t.Fatalf("infinite backend: served/dropped/shed = %d/%d/%d, want %d/0/0",
					rep.Served, rep.Dropped, rep.Shed, len(reqs))
			}
			if rep.Delay.Max() != 0 {
				t.Fatalf("infinite backend: max queueing delay = %v ns, want 0", rep.Delay.Max())
			}
		})
	}
}

// TestBackendMetricsWorkerInvariant pins the other half of contract point
// 14: backend metrics are a function of (seed, shard count, config) alone
// — the fleet worker count never changes a single reported number. The
// same campaign is collected at workers=1 and workers=8 and simulated
// under a bounded preset; the arrival sets and the full reports must be
// deeply equal.
func TestBackendMetricsWorkerInvariant(t *testing.T) {
	vp, seed := workload.Home1(0.02), int64(7)
	collect := func(workers int) []Request {
		reqs, _, err := CollectArrivals(context.Background(),
			vp, seed, fleet.Config{Shards: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return reqs
	}
	r1, r8 := collect(1), collect(8)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("arrival sets differ between workers=1 and workers=8")
	}
	cfg, err := PresetConfig(PresetProvisioned, r1)
	if err != nil {
		t.Fatal(err)
	}
	sim := func(reqs []Request) *Report {
		rep, err := Simulate(context.Background(), cfg, ScaleLoad(reqs, 4))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if !reflect.DeepEqual(sim(r1), sim(r8)) {
		t.Fatal("backend reports differ between workers=1 and workers=8")
	}
}

// TestCollectorPoolingEquivalent pins that the pooled Aggregate path
// (CollectArrivals) derives exactly the requests of a plain unpooled
// generator, sorted once: the Collector copies everything it keeps, so
// record recycling is invisible.
func TestCollectorPoolingEquivalent(t *testing.T) {
	vp, seed, shards := workload.Home1(0.02), int64(7), 2

	var tee []Request
	for sh := 0; sh < shards; sh++ {
		workload.GenerateShard(vp, seed, sh, shards, func(r *traces.FlowRecord) {
			if rq, ok := RequestOf(r); ok {
				tee = append(tee, rq)
			}
		})
	}
	SortRequests(tee)

	pooled, _, err := CollectArrivals(context.Background(), vp, seed, fleet.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if len(tee) == 0 || !reflect.DeepEqual(tee, pooled) {
		t.Fatal("pooled collection differs from the unpooled tee")
	}
}
