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

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// keepSink is a Sink that copies every record it is handed.
type keepSink struct{ recs []*traces.FlowRecord }

func (s *keepSink) Consume(r *traces.FlowRecord) { s.recs = append(s.recs, keep(r)) }

// TestStreamSlabBoundaries drives the slab hand-off across its edges:
// shards that yield no record, one, one short of a slab, exactly a slab,
// one over, and one over the whole look-ahead. Each case is a 24-subscriber
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
		{workload.Campus2, 70, streamBuf + 1},
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
// a record is valid until emit returns and is recycled after. The first
// record's pointer, kept past emit, must not still hold that record once
// the stream ends — a silent revert to one allocation per record would
// leave it intact.
func TestStreamRecordsRecycles(t *testing.T) {
	var first, firstCopy *traces.FlowRecord
	seen := map[*traces.FlowRecord]struct{}{}
	stats, err := StreamRecords(context.Background(), workload.Home1(0.02), 7, Config{Shards: 1},
		func(r *traces.FlowRecord) bool {
			if first == nil {
				first, firstCopy = r, keep(r)
			}
			seen[r] = struct{}{}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(*first, *firstCopy) {
		t.Fatal("a record kept past emit survived the stream unchanged: the export path is not recycling")
	}
	// The shard has at most slabDepth+2 slabs of records in flight, and the
	// generator holds a few more open (two merging flows per device).
	limit := (slabDepth+2)*slabRecords + 16
	if stats.Records < 4*limit {
		t.Fatalf("shard of %d records is too small to show recycling", stats.Records)
	}
	if len(seen) > limit {
		t.Fatalf("%d records travelled in %d distinct structs, want at most %d", stats.Records, len(seen), limit)
	}
	t.Logf("%d records in %d structs", stats.Records, len(seen))
}

// TestStreamStopsMidSlab lands an early stop and a cancel on, just before
// and just after a slab edge. A stop is exact; a cancel is seen at the next
// slab, so fewer than slabRecords further records arrive. Neither leaks a
// goroutine.
func TestStreamStopsMidSlab(t *testing.T) {
	cfg := workload.Home1(0.03)
	fc := Config{Shards: 6, Workers: 2}
	for _, at := range []int{1, slabRecords - 1, slabRecords, slabRecords + 1, streamBuf + 300} {
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
// through StreamRecords into an inline BinaryWriter stays under half an
// allocation per record. Unpooled hand-off costs more than one.
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
	if perRec > 0.5 {
		t.Fatalf("export allocates %.2f objects/record over %d records, want <= 0.5", perRec, stats.Records)
	}
	t.Logf("%.3f allocs/record over %d records", perRec, stats.Records)
}
