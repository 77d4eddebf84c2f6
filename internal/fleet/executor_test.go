package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// hashAgg is a per-shard sink that hashes every field of every record it
// is handed, retaining nothing (so it is safe on every pooled path).
type hashAgg struct {
	h hash.Hash64
	n int
}

func newHashAgg() *hashAgg { return &hashAgg{h: fnv.New64a()} }

func (a *hashAgg) Consume(r *traces.FlowRecord) {
	fmt.Fprintf(a.h, "%+v\n", *r)
	a.n++
}

func (a *hashAgg) Merge(Aggregator) {}

// delivery is one policy of the executor reduced to a common shape: run
// (vp, seed, fc) and report what each shard's records hashed to, plus the
// merged stats. sizes carries the reference per-shard record counts, which
// the ordered stream needs to find its shard boundaries. "materialise" is a
// fold whose shards keep copies of their records, sorted across shards as
// workload.Generate sorts them, so it reports one hash, of the sorted set.
type delivery struct {
	name   string
	sorted bool
	run    func(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, sizes []int) ([]uint64, VPStats, error)
}

var deliveries = []delivery{
	{name: "fold", run: func(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, _ []int) ([]uint64, VPStats, error) {
		aggs := make([]*hashAgg, fc.Shards)
		_, stats, err := Aggregate(ctx, []Population{{vp, seed}}, fc, func(_, sh int) Aggregator {
			aggs[sh] = newHashAgg()
			return aggs[sh]
		})
		hashes := make([]uint64, len(aggs))
		for i, a := range aggs {
			hashes[i] = a.h.Sum64()
		}
		return hashes, stats[0], err
	}},
	{name: "materialise", sorted: true, run: func(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, _ []int) ([]uint64, VPStats, error) {
		recs, stats, err := materialise(ctx, vp, seed, fc)
		a := newHashAgg()
		for _, r := range recs {
			a.Consume(r)
		}
		return []uint64{a.h.Sum64()}, stats, err
	}},
	{name: "ordered stream", run: func(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, sizes []int) ([]uint64, VPStats, error) {
		aggs := make([]*hashAgg, fc.Shards)
		for i := range aggs {
			aggs[i] = newHashAgg()
		}
		sh := 0
		stats, err := StreamRecords(ctx, vp, seed, fc, func(r *traces.FlowRecord) bool {
			for sh < len(sizes)-1 && aggs[sh].n == sizes[sh] {
				sh++
			}
			aggs[sh].Consume(r)
			return true
		})
		hashes := make([]uint64, len(aggs))
		for i, a := range aggs {
			hashes[i] = a.h.Sum64()
		}
		return hashes, stats, err
	}},
	{name: "durable part", run: func(ctx context.Context, vp workload.VPConfig, seed int64, fc Config, _ []int) ([]uint64, VPStats, error) {
		fc = fc.normalized()
		hashes := make([]uint64, fc.Shards)
		shardStats := make([]workload.ShardStats, fc.Shards)
		all := make([]int, fc.Shards)
		for i := range all {
			all[i] = i
		}
		err := ForEachShard(ctx, fc, vp.Name, all, func(sh int) (workload.ShardStats, error) {
			a := newHashAgg()
			shardStats[sh] = RunShard(vp, seed, sh, fc.Shards, a)
			hashes[sh] = a.h.Sum64()
			return shardStats[sh], nil
		})
		return hashes, mergeStats(vp, fc, shardStats), err
	}},
}

// TestExecutorContract runs one (vp, seed, 6 shards) population through
// every delivery policy at several worker counts and requires what the
// determinism contract's points 2 and 16 promise of the one executor under
// them: the same per-shard record streams and stats whatever the policy or
// the worker count, one ShardEvent per shard with Done reaching the shard
// count, and every shard counted exactly once by the engine's telemetry.
func TestExecutorContract(t *testing.T) {
	const seed, shards = 7, 6
	vp := workload.Home1(0.02)

	// The reference: each shard alone through the unpooled generator.
	var (
		wantHashes []uint64
		wantStats  []workload.ShardStats
		sizes      []int
		all        []*traces.FlowRecord
	)
	for sh := 0; sh < shards; sh++ {
		a := newHashAgg()
		st := workload.GenerateShard(vp, seed, sh, shards, func(r *traces.FlowRecord) {
			a.Consume(r)
			all = append(all, r)
		})
		wantHashes = append(wantHashes, a.h.Sum64())
		wantStats = append(wantStats, st)
		sizes = append(sizes, a.n)
	}
	want := mergeStats(vp, Config{Shards: shards}, wantStats)
	workload.SortRecords(all)
	sortedAgg := newHashAgg()
	for _, r := range all {
		sortedAgg.Consume(r)
	}
	if want.Records == 0 || len(sizes) != shards {
		t.Fatalf("reference population is empty: %+v", want)
	}

	for _, d := range deliveries {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", d.name, workers), func(t *testing.T) {
				var mu sync.Mutex
				var events []ShardEvent
				fc := Config{Shards: shards, Workers: workers, Observer: func(ev ShardEvent) {
					mu.Lock()
					events = append(events, ev)
					mu.Unlock()
				}}
				records, done, timed := mRecords.Load(), mShardsDone.Load(), mShardSeconds.Count()
				hashes, stats, err := d.run(context.Background(), vp, seed, fc, sizes)
				if err != nil {
					t.Fatal(err)
				}

				if d.sorted {
					if len(hashes) != 1 || hashes[0] != sortedAgg.h.Sum64() {
						t.Fatalf("sorted record set hash %x, want %x", hashes, sortedAgg.h.Sum64())
					}
				} else if !reflect.DeepEqual(hashes, wantHashes) {
					t.Fatalf("per-shard record hashes %x, want %x", hashes, wantHashes)
				}
				if !reflect.DeepEqual(stats, want) {
					t.Fatalf("merged stats\n got %+v\nwant %+v", stats, want)
				}

				if len(events) != shards {
					t.Fatalf("%d shard events, want %d", len(events), shards)
				}
				seen, maxDone := map[int]bool{}, 0
				for _, ev := range events {
					if seen[ev.Shard] || ev.Shards != shards || ev.VP != vp.Name || ev.Records != sizes[ev.Shard] {
						t.Fatalf("bad or repeated event %+v (shard sizes %v)", ev, sizes)
					}
					seen[ev.Shard] = true
					maxDone = max(maxDone, ev.Done)
				}
				if maxDone != shards {
					t.Fatalf("Done reached %d, want %d", maxDone, shards)
				}

				if got := mRecords.Load() - records; got != uint64(want.Records) {
					t.Fatalf("fleet.records rose by %d over a run of %d records", got, want.Records)
				}
				if got := mShardsDone.Load() - done; got != shards {
					t.Fatalf("fleet.shards_done rose by %d over %d shards", got, shards)
				}
				if got := mShardSeconds.Count() - timed; got != shards {
					t.Fatalf("fleet.shard_seconds took %d observations over %d shards", got, shards)
				}
				if busy := mWorkersBusy.Load(); busy != 0 {
					t.Fatalf("fleet.workers_busy = %d after the run", busy)
				}
			})
		}
	}

	// A bare RunShard call, outside any pool, counts its shard too.
	records, done := mRecords.Load(), mShardsDone.Load()
	st := RunShard(vp, seed, 0, shards, newHashAgg())
	if mRecords.Load()-records != uint64(st.Records) || mShardsDone.Load()-done != 1 {
		t.Fatalf("bare RunShard of %d records moved fleet.records by %d and fleet.shards_done by %d",
			st.Records, mRecords.Load()-records, mShardsDone.Load()-done)
	}
}

// TestExecutorCancelBeforeStart: under a context cancelled before the run,
// no delivery policy generates a record, reports a shard or counts one.
func TestExecutorCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vp := workload.Home1(0.02)
	for _, d := range deliveries {
		t.Run(d.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var events atomic.Int64
			fc := Config{Shards: 4, Observer: func(ShardEvent) { events.Add(1) }}
			records, done := mRecords.Load(), mShardsDone.Load()
			_, stats, err := d.run(ctx, vp, 3, fc, make([]int, 4))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if stats.Records != 0 || events.Load() != 0 || mRecords.Load() != records || mShardsDone.Load() != done {
				t.Fatalf("pre-cancelled run still ran: %d records in stats, %d events, counters moved by %d records / %d shards",
					stats.Records, events.Load(), mRecords.Load()-records, mShardsDone.Load()-done)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestAggregateSinkPerShard: Aggregate builds its sinks up front, in shard
// order, on the calling goroutine, and each receives its shard's records.
func TestAggregateSinkPerShard(t *testing.T) {
	var made []int
	var sinks []*hashAgg
	_, popStats, err := Aggregate(context.Background(), []Population{{workload.Campus1(0.1), 1}}, Config{Shards: 6, Workers: 2}, func(_, sh int) Aggregator {
		made = append(made, sh)
		sinks = append(sinks, newHashAgg())
		return sinks[sh]
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := popStats[0]
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(made, want) {
		t.Fatalf("sinks built as %v, want %v", made, want)
	}
	total := 0
	for _, s := range sinks {
		total += s.n
	}
	if total == 0 || total != stats.Records {
		t.Fatalf("sinks saw %d records, stats say %d", total, stats.Records)
	}
}

// finishAgg is a hashAgg that records its ShardFinisher calls: how many,
// and how many records it had consumed at the last one.
type finishAgg struct {
	hashAgg
	finishes, seenAtFinish int
}

func (a *finishAgg) FinishShard() {
	a.finishes++
	a.seenAtFinish = a.n
}

// TestAggregateFinishShard: Aggregate finishes every ShardFinisher exactly
// once, after its shard's last record, before it returns. The call runs on
// the worker goroutines, so go test -race checks it against the merge.
func TestAggregateFinishShard(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var aggs []*finishAgg
		_, popStats, err := Aggregate(context.Background(), []Population{{workload.Campus1(0.1), 1}}, Config{Shards: 6, Workers: workers}, func(int, int) Aggregator {
			aggs = append(aggs, &finishAgg{hashAgg: hashAgg{h: fnv.New64a()}})
			return aggs[len(aggs)-1]
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := popStats[0]
		total := 0
		for sh, a := range aggs {
			if a.finishes != 1 || a.seenAtFinish != a.n {
				t.Fatalf("workers=%d shard %d: finished %d times, at %d of %d records", workers, sh, a.finishes, a.seenAtFinish, a.n)
			}
			total += a.n
		}
		if total == 0 || total != stats.Records {
			t.Fatalf("workers=%d: shards saw %d records, stats say %d", workers, total, stats.Records)
		}
	}
}

// busyAgg is a hashAgg that counts how many shards of one run are between
// their first record and FinishShard at once, and the most it ever saw.
type busyAgg struct {
	hashAgg
	started    bool
	busy, peak *atomic.Int64
}

func (a *busyAgg) Consume(r *traces.FlowRecord) {
	if !a.started {
		a.started = true
		n := a.busy.Add(1)
		for p := a.peak.Load(); n > p && !a.peak.CompareAndSwap(p, n); p = a.peak.Load() {
		}
	}
	a.hashAgg.Consume(r)
}

func (a *busyAgg) FinishShard() {
	if a.started {
		a.busy.Add(-1)
	}
}

// TestAggregatePopulations: Aggregate over two populations gives each one
// the per-shard record hashes, merged stats and ShardEvents of its own
// one-population run, and one pool of fc.Workers bounds the shards of both:
// at Workers 1 no two shards ever generate at once.
func TestAggregatePopulations(t *testing.T) {
	const shards = 4
	pops := []Population{{workload.Home1(0.02), 7}, {workload.Campus1(0.1), 3}}
	// run aggregates pops and reports, per population, its shard hashes,
	// its stats and its ShardEvents in shard order (Done, which counts the
	// population's own shards, checked and zeroed with Elapsed), plus the
	// peak of concurrent shards.
	run := func(t *testing.T, pops []Population, workers int) ([][]uint64, []VPStats, [][]ShardEvent, int64) {
		var mu sync.Mutex
		events := make([][]ShardEvent, len(pops))
		fc := Config{Shards: shards, Workers: workers, Observer: func(ev ShardEvent) {
			mu.Lock()
			defer mu.Unlock()
			for p := range pops {
				if pops[p].VP.Name == ev.VP {
					events[p] = append(events[p], ev)
				}
			}
		}}
		var busy, peak atomic.Int64
		aggs := make([][]*busyAgg, len(pops))
		_, stats, err := Aggregate(context.Background(), pops, fc, func(p, sh int) Aggregator {
			aggs[p] = append(aggs[p], &busyAgg{hashAgg: *newHashAgg(), busy: &busy, peak: &peak})
			return aggs[p][sh]
		})
		if err != nil {
			t.Fatal(err)
		}
		hashes := make([][]uint64, len(pops))
		for p := range aggs {
			for _, a := range aggs[p] {
				hashes[p] = append(hashes[p], a.h.Sum64())
			}
			slices.SortFunc(events[p], func(a, b ShardEvent) int { return a.Done - b.Done })
			for i := range events[p] {
				if events[p][i].Done != i+1 {
					t.Fatalf("%s: Done values %+v, want 1..%d", pops[p].VP.Name, events[p], shards)
				}
				events[p][i].Elapsed, events[p][i].Done = 0, 0
			}
			slices.SortFunc(events[p], func(a, b ShardEvent) int { return a.Shard - b.Shard })
		}
		return hashes, stats, events, peak.Load()
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			hashes, stats, events, peak := run(t, pops, workers)
			for p := range pops {
				wantHashes, wantStats, wantEvents, _ := run(t, pops[p:p+1], workers)
				if !reflect.DeepEqual(hashes[p], wantHashes[0]) {
					t.Fatalf("%s: shard hashes %x, alone %x", pops[p].VP.Name, hashes[p], wantHashes[0])
				}
				if !reflect.DeepEqual(stats[p], wantStats[0]) {
					t.Fatalf("%s: stats\n got %+v\nalone %+v", pops[p].VP.Name, stats[p], wantStats[0])
				}
				if len(events[p]) != shards || !reflect.DeepEqual(events[p], wantEvents[0]) {
					t.Fatalf("%s: events %+v, alone %+v", pops[p].VP.Name, events[p], wantEvents[0])
				}
			}
			if peak < 1 || peak > int64(workers) {
				t.Fatalf("%d shards generated at once on a pool of %d workers", peak, workers)
			}
		})
	}
}

// TestForEachShardTaskError pins the executor's error rule: the first task
// error stops admission, shards already running finish, that error is what
// the caller gets, and no worker outlives the call.
func TestForEachShardTaskError(t *testing.T) {
	boom := errors.New("shard 3 failed")
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// One worker: shards run in list order, so nothing after the failing
	// shard may start, and the failed shard reports no event.
	t.Run("stops admission", func(t *testing.T) {
		base := runtime.NumGoroutine()
		var started, events []int
		fc := Config{Shards: 8, Workers: 1, Observer: func(ev ShardEvent) { events = append(events, ev.Shard) }}
		err := ForEachShard(context.Background(), fc, "vp", all, func(sh int) (workload.ShardStats, error) {
			started = append(started, sh)
			if sh == 3 {
				return workload.ShardStats{}, boom
			}
			return workload.ShardStats{Records: 1}, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the task's error", err)
		}
		if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(started, want) {
			t.Fatalf("shards started: %v, want %v", started, want)
		}
		if want := []int{0, 1, 2}; !reflect.DeepEqual(events, want) {
			t.Fatalf("shards reported: %v, want %v", events, want)
		}
		waitGoroutines(t, base)
	})

	// Two workers: shard 0 is still running when shard 1 fails, and must
	// run to completion before ForEachShard returns.
	t.Run("in-flight shards finish", func(t *testing.T) {
		base := runtime.NumGoroutine()
		failed := make(chan struct{})
		var started, finished atomic.Int64
		var zeroDone atomic.Bool
		fc := Config{Shards: 8, Workers: 2}
		err := ForEachShard(context.Background(), fc, "vp", all, func(sh int) (workload.ShardStats, error) {
			started.Add(1)
			defer finished.Add(1)
			switch sh {
			case 0:
				<-failed
				runtime.Gosched()
				zeroDone.Store(true)
			case 1:
				defer close(failed)
				return workload.ShardStats{}, boom
			}
			return workload.ShardStats{}, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the task's error", err)
		}
		if !zeroDone.Load() || started.Load() != finished.Load() {
			t.Fatalf("returned with shard 0 done=%v, %d tasks started and %d finished",
				zeroDone.Load(), started.Load(), finished.Load())
		}
		waitGoroutines(t, base)
	})

	// A task error outranks a cancel that arrives while shards are running.
	t.Run("error with cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := ForEachShard(ctx, Config{Shards: 8, Workers: 1}, "vp", all, func(sh int) (workload.ShardStats, error) {
			cancel()
			return workload.ShardStats{}, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the task's error", err)
		}
	})
}
