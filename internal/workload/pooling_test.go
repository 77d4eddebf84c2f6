package workload

import (
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"insidedropbox/internal/traces"
)

// poolOf is a minimal test double of the free list fleet's generate loop
// keeps per shard (fleet cannot be imported here without a cycle): Get
// returns zeroed records, Put zeroes and recycles.
type poolOf struct {
	free []*traces.FlowRecord
	gets int
	news int
}

func (p *poolOf) Get() *traces.FlowRecord {
	p.gets++
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	p.news++
	return new(traces.FlowRecord)
}

func (p *poolOf) Put(r *traces.FlowRecord) {
	*r = traces.FlowRecord{}
	p.free = append(p.free, r)
}

// TestPooledShardMatchesUnpooled pins the pooled-generation contract: a
// shard generated through recycled record storage emits the same records,
// in the same order, with the same stats, as the allocating path — and
// actually recycles (the pool's live set stays far below the record
// count).
func TestPooledShardMatchesUnpooled(t *testing.T) {
	cases := []struct {
		name    string
		cfg     VPConfig
		shard   int
		nshards int
	}{
		{"home1", Home1(0.02), 0, 1},
		{"home1-shard2of4", Home1(0.05), 2, 4},
		{"campus1-outages", Campus1(0.1), 0, 1},
		{"home2-abnormal", Home2(0.02), 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hashStream := func(sink func(emit func(*traces.FlowRecord)) ShardStats) (uint64, ShardStats) {
				h := fnv.New64a()
				w := traces.NewWriter(h)
				stats := sink(func(r *traces.FlowRecord) {
					if err := w.Write(r); err != nil {
						t.Fatal(err)
					}
				})
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				return h.Sum64(), stats
			}

			wantHash, wantStats := hashStream(func(emit func(*traces.FlowRecord)) ShardStats {
				return GenerateShard(tc.cfg, 7, tc.shard, tc.nshards, emit)
			})

			pool := &poolOf{}
			gotHash, gotStats := hashStream(func(emit func(*traces.FlowRecord)) ShardStats {
				return GenerateShardSink(tc.cfg, 7, tc.shard, tc.nshards, ShardSink{
					Emit: func(r *traces.FlowRecord) {
						emit(r)
						pool.Put(r) // consumer done: recycle immediately
					},
					Alloc: pool.Get,
					Free:  pool.Put,
				})
			})

			if gotHash != wantHash {
				t.Fatalf("pooled stream hash %#x != unpooled %#x", gotHash, wantHash)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("pooled stats %+v != unpooled %+v", gotStats, wantStats)
			}
			if wantStats.Records == 0 {
				t.Fatal("degenerate case: no records generated")
			}
			if pool.news > 8 {
				t.Fatalf("pool allocated %d fresh records over %d emitted: recycling is not happening",
					pool.news, wantStats.Records)
			}
		})
	}
}

// pooledShard generates one shard through a poolOf, recycling each record
// as soon as emit returns, as fleet.RunShard does.
func pooledShard(cfg VPConfig, seed int64, shard, nshards int, emit func(*traces.FlowRecord)) ShardStats {
	pool := &poolOf{}
	return GenerateShardSink(cfg, seed, shard, nshards, ShardSink{
		Emit:  func(r *traces.FlowRecord) { emit(r); pool.Put(r) },
		Alloc: pool.Get,
		Free:  pool.Put,
	})
}

// TestGeneratorAllocationBudget pins the generator's per-shard scratch:
// merge states held by value, and event, session and changed-file buffers
// reused from household to household, leave pooled generation with the
// households, devices and namespace lists to allocate: ≈0.017 objects and
// 6.9 B per record on Home 1, ≈0.031 and 17.6 B on Home 2. A merge state
// allocated per storage connection again reads ≈0.18 objects on Home 1,
// event buffers grown afresh per household ≈21 B.
func TestGeneratorAllocationBudget(t *testing.T) {
	cases := []struct {
		name                string
		cfg                 VPConfig
		nshards             int
		maxAllocs, maxBytes float64
	}{
		{"home1-4shards", Home1(0.25), 4, 0.035, 14},
		{"home2-abnormal", Home2(0.02), 1, 0.06, 35},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			records := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for shard := 0; shard < tc.nshards; shard++ {
				records += pooledShard(tc.cfg, 7, shard, tc.nshards, func(*traces.FlowRecord) {}).Records
			}
			runtime.ReadMemStats(&after)
			perRec := float64(after.Mallocs-before.Mallocs) / float64(records)
			bytesPerRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
			if perRec > tc.maxAllocs || bytesPerRec > tc.maxBytes {
				t.Fatalf("pooled generation allocates %.4f objects and %.2f B per record over %d records, want <= %g and %g",
					perRec, bytesPerRec, records, tc.maxAllocs, tc.maxBytes)
			}
			t.Logf("%.4f allocs/record %.2f B/record over %d records", perRec, bytesPerRec, records)
		})
	}
}

// TestEmittedNamespacesOutliveTheirHousehold pins the one per-device slice
// the generator never reuses: a record's NotifyNamespaces may be read long
// after its household is done (StreamRecords hands records to another
// goroutine up to 65,536 records later), so no later household may write
// into it.
func TestEmittedNamespacesOutliveTheirHousehold(t *testing.T) {
	var kept, clones [][]uint32
	pooledShard(Home1(0.02), 7, 0, 1, func(r *traces.FlowRecord) {
		if r.NotifyNamespaces != nil {
			kept = append(kept, r.NotifyNamespaces)
			clones = append(clones, slices.Clone(r.NotifyNamespaces))
		}
	})
	if len(kept) < 1000 {
		t.Fatalf("only %d notify records: pick a bigger population", len(kept))
	}
	for i := range kept {
		if !slices.Equal(kept[i], clones[i]) {
			t.Fatalf("notify record %d of %d: namespaces %v when emitted, %v after the shard", i, len(kept), clones[i], kept[i])
		}
	}
}

// BenchmarkGenerateShard times pooled generation alone: shard 0 of 4 of
// Home 1 ×0.25, each record recycled once emitted, nothing consuming it.
func BenchmarkGenerateShard(b *testing.B) {
	cfg := Home1(0.25)
	b.ReportAllocs()
	records := 0
	for i := 0; i < b.N; i++ {
		records += pooledShard(cfg, 7, 0, 4, func(*traces.FlowRecord) {}).Records
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
