package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// keepSink is a Sink that copies every record it is handed.
type keepSink struct{ recs []*traces.FlowRecord }

func (s *keepSink) Consume(r *traces.FlowRecord) { s.recs = append(s.recs, keep(r)) }

// TestStreamSlabBoundaries drives the slab hand-off across its edges:
// shards that yield no record, one, one short of a slab, exactly a slab,
// one over, and one over four slabs. Each case is a 24-subscriber
// population whose 12 shards are known to include a shard of the wanted
// size (the golden stream hashes pin the generator, so the sizes hold);
// the delivered sequence must equal the concatenation of the RunShard
// outputs whatever the worker count.
func TestStreamSlabBoundaries(t *testing.T) {
	const shards = 12
	sawEmpty := false
	for _, tc := range []struct {
		vp   func(float64) workload.VPConfig
		seed int64
		size int
	}{
		{workload.Home1, 162, 1},
		{workload.Campus1, 15, slabRecords - 1},
		{workload.Campus1, 110, slabRecords},
		{workload.Campus1, 172, slabRecords + 1},
		{workload.Campus2, 70, 4*slabRecords + 1},
	} {
		cfg := tc.vp(0.02)
		cfg.TotalIPs = 24
		t.Run(fmt.Sprintf("%s-%d", cfg.Name, tc.size), func(t *testing.T) {
			var want []*traces.FlowRecord
			var sizes []int
			for sh := 0; sh < shards; sh++ {
				var s keepSink
				RunShard(cfg, tc.seed, sh, shards, &s)
				want = append(want, s.recs...)
				sizes = append(sizes, len(s.recs))
			}
			if !slices.Contains(sizes, tc.size) {
				t.Fatalf("shard sizes %v no longer include %d: pick a new seed for this case", sizes, tc.size)
			}
			sawEmpty = sawEmpty || slices.Contains(sizes, 0)

			for _, workers := range []int{1, 2, 8} {
				i, same := 0, true
				stats, err := StreamRecords(context.Background(), cfg, tc.seed, Config{Shards: shards, Workers: workers},
					func(r *traces.FlowRecord) bool {
						same = i < len(want) && reflect.DeepEqual(*r, *want[i])
						i++
						return same
					})
				if err != nil {
					t.Fatal(err)
				}
				if !same {
					t.Fatalf("workers=%d: record %d differs from the RunShard concatenation of %d", workers, i-1, len(want))
				}
				if i != len(want) || stats.Records != len(want) {
					t.Fatalf("workers=%d: delivered %d records (stats %d), want %d", workers, i, stats.Records, len(want))
				}
			}
		})
	}
	if !sawEmpty {
		t.Fatal("no case had an empty shard")
	}
}

// TestStreamRecordsRecycles pins the ownership rule of the ordered stream:
// a record is valid until emit returns, and the struct emit sees is a slot
// of a slab that a producer refills once the consumer has drained it, so
// the stream hands the same struct out again — a silent revert to one
// allocation per record would deliver every record in a struct of its
// own. The one shard is several times the stream's budget long, so its
// records must travel in far fewer structs than it has. Which slab comes
// back first depends on scheduling and on the slabs earlier streams left
// pooled, so the test counts structs and follows none.
func TestStreamRecordsRecycles(t *testing.T) {
	seen := map[*traces.FlowRecord]struct{}{}
	stats, err := StreamRecords(context.Background(), workload.Home1(0.5), 7, Config{Shards: 1},
		func(r *traces.FlowRecord) bool {
			seen[r] = struct{}{}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) >= stats.Records {
		t.Fatalf("%d records travelled in %d distinct structs: the stream is not recycling", stats.Records, len(seen))
	}
	// At most streamBudget records plus a slab are queued, and one slab is
	// filling. Drained slabs are refilled last in, first out, so no more
	// slabs than were ever in flight at once hand out their slots.
	limit := streamBudget + 8*slabRecords
	if stats.Records < 4*limit {
		t.Fatalf("shard of %d records is too small to show recycling", stats.Records)
	}
	if len(seen) > limit {
		t.Fatalf("%d records travelled in %d distinct structs, want at most %d", stats.Records, len(seen), limit)
	}
	t.Logf("%d records in %d structs", stats.Records, len(seen))
}

// TestSpareSlabsOutliveOneCollection pins the hand-over of drained slabs
// between streams: whatever P the next stream starts on, the slabs are
// still found after one collection (a repetition that collects before it
// streams reuses them), and two collections with no stream drop them. A
// pool under the race detector drops one Put in four at random, so the
// first half asks for one hit in several tries.
func TestSpareSlabsOutliveOneCollection(t *testing.T) {
	hits := 0
	for range 8 {
		keepSpare(make([]slab, 3))
		runtime.GC()
		if len(takeSpare()) == 3 {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no stream's slabs survived one collection")
	}
	keepSpare(make([]slab, 3))
	runtime.GC()
	runtime.GC()
	if s := takeSpare(); s != nil {
		t.Fatalf("%d slabs survived two collections with no stream", len(s))
	}
	if s := takeSpare(); s != nil {
		t.Fatal("the same slabs were handed out twice")
	}
}

// TestStreamStopsMidSlab lands an early stop and a cancel on, just before
// and just after a slab edge. A stop is exact; a cancel is seen at the next
// slab, so fewer than slabRecords further records arrive. Neither leaks a
// goroutine.
func TestStreamStopsMidSlab(t *testing.T) {
	cfg := workload.Home1(0.03)
	fc := Config{Shards: 6, Workers: 2}
	for _, at := range []int{1, slabRecords - 1, slabRecords, slabRecords + 1, 4*slabRecords + 300} {
		base := runtime.NumGoroutine()
		n := 0
		if _, err := StreamRecords(context.Background(), cfg, 5, fc, func(*traces.FlowRecord) bool {
			n++
			return n < at
		}); err != nil || n != at {
			t.Fatalf("stop at %d: emit ran %d times, err %v", at, n, err)
		}
		waitGoroutines(t, base)

		ctx, cancel := context.WithCancel(context.Background())
		n = 0
		_, err := StreamRecords(ctx, cfg, 5, fc, func(*traces.FlowRecord) bool {
			if n++; n == at {
				cancel()
			}
			return true
		})
		cancel()
		if !errors.Is(err, context.Canceled) || n < at || n >= at+slabRecords {
			t.Fatalf("cancel at %d: emit ran %d times, err %v", at, n, err)
		}
		waitGoroutines(t, base)
	}
}

// TestStreamAllocationBudget extends the writer's allocation pin
// (traces.TestBinaryWriteAllocationFree) over the whole export path: Home 1
// through StreamRecords into an inline BinaryWriter stays under a tenth of
// an allocation per record (0.022 measured; 0.31 when the generator
// allocated a merge state per storage connection and event buffers per
// household). Unpooled hand-off costs more than one.
func TestStreamAllocationBudget(t *testing.T) {
	w := traces.NewBinaryWriter(io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := StreamRecords(context.Background(), workload.Home1(0.4), 7, Config{Shards: 8},
		func(r *traces.FlowRecord) bool { return w.Write(r) == nil })
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	perRec := float64(after.Mallocs-before.Mallocs) / float64(stats.Records)
	if perRec > 0.1 {
		t.Fatalf("export allocates %.3f objects/record over %d records, want <= 0.1", perRec, stats.Records)
	}
	t.Logf("%.3f allocs/record over %d records", perRec, stats.Records)
}

// TestStreamGeneratesAhead pins the look-ahead: a shard behind the one the
// consumer drains generates to its end while the consumer still holds the
// stream's first record. emit waits on shard 1's completion before taking
// anything else; a stream whose later shards stop after a few slabs until
// the consumer reaches them never gets there.
func TestStreamGeneratesAhead(t *testing.T) {
	shard1 := make(chan int, 1)
	fc := Config{Shards: 4, Workers: 2, Observer: func(ev ShardEvent) {
		if ev.Shard == 1 {
			shard1 <- ev.Records
		}
	}}
	n, ahead := 0, -1
	stats, err := StreamRecords(context.Background(), workload.Home1(0.02), 7, fc, func(*traces.FlowRecord) bool {
		if n++; n == 1 {
			select {
			case ahead = <-shard1:
			case <-time.After(10 * time.Second):
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if ahead < 0 {
		t.Fatal("shard 1 did not finish generating while the consumer held shard 0's first record")
	}
	if ahead <= 4*slabRecords {
		t.Fatalf("shard 1 has %d records, too few to show the look-ahead: pick a bigger population", ahead)
	}
	if n != stats.Records {
		t.Fatalf("delivered %d records, generated %d", n, stats.Records)
	}
}

// BenchmarkStreamRecords measures the ordered stream alone, into a
// consumer that does nothing: Home 1 over 16 shards. Run it with -cpu 1,2
// to see how generation scales behind the one consumer.
func BenchmarkStreamRecords(b *testing.B) {
	vp := workload.Home1(1)
	records := 0
	for b.Loop() {
		stats, err := StreamRecords(context.Background(), vp, 7, Config{Shards: 16},
			func(*traces.FlowRecord) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		records += stats.Records
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// TestStreamHeadShardNeverWaits pins what keeps the look-ahead from
// deadlocking: the consumer holds the first record while both shards,
// each longer than the budget, generate until the budget is spent, and
// then the stream must still run to its end. A head shard that waited on
// the budget like the others could find its queue drained and the budget
// held by the shard behind it, which the consumer cannot reach.
func TestStreamHeadShardNeverWaits(t *testing.T) {
	fc := Config{Shards: 2, Workers: 2}
	var sizes [2]int
	fc.Observer = func(ev ShardEvent) { sizes[ev.Shard] = ev.Records }
	result := make(chan error, 1)
	n := 0
	go func() {
		stats, err := StreamRecords(context.Background(), workload.Home1(0.5), 7, fc, func(*traces.FlowRecord) bool {
			if n++; n == 1 {
				time.Sleep(300 * time.Millisecond)
			}
			return true
		})
		if err == nil && n != stats.Records {
			err = fmt.Errorf("delivered %d records, generated %d", n, stats.Records)
		}
		result <- err
	}()
	select {
	case err := <-result:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the stream stalled after its budget was spent")
	}
	if min(sizes[0], sizes[1]) <= streamBudget {
		t.Fatalf("shard sizes %v: each must exceed the budget of %d", sizes, streamBudget)
	}
}
