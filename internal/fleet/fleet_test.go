package fleet

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// keepAgg is a fold whose shards keep a copy of every record, merged in
// shard order: how a caller that wants a whole population builds it on
// Aggregate.
type keepAgg struct{ recs []*traces.FlowRecord }

func (a *keepAgg) Consume(r *traces.FlowRecord) { a.recs = append(a.recs, keep(r)) }
func (a *keepAgg) Merge(o Aggregator)           { a.recs = append(a.recs, o.(*keepAgg).recs...) }

// materialise folds a population into copies of all its records, sorted by
// first-packet time as workload.Generate sorts them.
func materialise(ctx context.Context, cfg workload.VPConfig, seed int64, fc Config) ([]*traces.FlowRecord, VPStats, error) {
	aggs, stats, err := Aggregate(ctx, []Population{{cfg, seed}}, fc, func(int, int) Aggregator { return new(keepAgg) })
	if err != nil {
		return nil, VPStats{}, err
	}
	recs := aggs[0].(*keepAgg).recs
	workload.SortRecords(recs)
	return recs, stats[0], nil
}

// mustMaterialise / mustSummarize run the ctx-aware engine entry points
// under a background context, failing the test on the (impossible without
// cancellation) error path.
func mustMaterialise(tb testing.TB, cfg workload.VPConfig, seed int64, fc Config) ([]*traces.FlowRecord, VPStats) {
	tb.Helper()
	recs, stats, err := materialise(context.Background(), cfg, seed, fc)
	if err != nil {
		tb.Fatal(err)
	}
	return recs, stats
}

func mustSummarize(tb testing.TB, cfg workload.VPConfig, seed int64, fc Config) (*Summary, VPStats) {
	tb.Helper()
	sum, stats, err := Summarize(context.Background(), cfg, seed, fc)
	if err != nil {
		tb.Fatal(err)
	}
	return sum, stats
}

// keep copies a record off a pooled stream, as any consumer that retains
// one must: the struct by value, NotifyNamespaces cloned.
func keep(r *traces.FlowRecord) *traces.FlowRecord {
	c := *r
	c.NotifyNamespaces = slices.Clone(r.NotifyNamespaces)
	return &c
}

// TestOneShardMatchesLegacyGenerate pins the regression contract: a 1-shard
// fleet run reproduces the sequential workload.Generate output bit for bit,
// whatever the worker setting.
func TestOneShardMatchesLegacyGenerate(t *testing.T) {
	cfg := workload.Home1(0.03)
	legacy := workload.Generate(cfg, 42)
	recs, fl := mustMaterialise(t, cfg, 42, Config{Shards: 1, Workers: 4})

	if len(recs) != len(legacy.Records) {
		t.Fatalf("record counts differ: fleet %d vs legacy %d", len(recs), len(legacy.Records))
	}
	for i := range legacy.Records {
		if !reflect.DeepEqual(*recs[i], *legacy.Records[i]) {
			t.Fatalf("record %d differs:\nfleet  %+v\nlegacy %+v", i, *recs[i], *legacy.Records[i])
		}
	}
	if !reflect.DeepEqual(fl.BackgroundByDay, legacy.BackgroundByDay) ||
		!reflect.DeepEqual(fl.YouTubeByDay, legacy.YouTubeByDay) {
		t.Fatal("background arrays differ")
	}
	if fl.Households != legacy.DropboxHouseholds || fl.Devices != legacy.DropboxDevices {
		t.Fatalf("ground truth differs: %d/%d vs %d/%d",
			fl.Households, fl.Devices, legacy.DropboxHouseholds, legacy.DropboxDevices)
	}
}

// TestWorkerCountInvariance pins the core determinism contract: with the
// shard count fixed, the worker count must not change any output — neither
// the materialized records nor any merged aggregate metric, floats included.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := workload.Home1(0.02)
	const shards = 7

	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	var baseRecs []*traces.FlowRecord
	var baseMetrics map[string]float64
	for _, w := range workers {
		fc := Config{Shards: shards, Workers: w}
		recs, _ := mustMaterialise(t, cfg, 9, fc)
		sum, stats := mustSummarize(t, cfg, 9, fc)
		if stats.Records != len(recs) {
			t.Fatalf("workers=%d: stats records %d != materialised %d", w, stats.Records, len(recs))
		}
		m := sum.Metrics()
		if baseRecs == nil {
			baseRecs, baseMetrics = recs, m
			continue
		}
		if len(recs) != len(baseRecs) {
			t.Fatalf("workers=%d: %d records, want %d", w, len(recs), len(baseRecs))
		}
		for i := range recs {
			if !reflect.DeepEqual(*recs[i], *baseRecs[i]) {
				t.Fatalf("workers=%d: record %d differs", w, i)
			}
		}
		if !reflect.DeepEqual(m, baseMetrics) {
			t.Fatalf("workers=%d: aggregate metrics differ:\n%v\nvs\n%v", w, m, baseMetrics)
		}
	}
}

// TestStreamOrderedMatchesDataset checks the bounded-buffer streaming path
// delivers exactly the record set a fold keeps, in canonical shard order.
func TestStreamOrderedMatchesDataset(t *testing.T) {
	cfg := workload.Campus2(0.05)
	fc := Config{Shards: 5, Workers: 3}

	var streamed []*traces.FlowRecord
	stats, err := StreamRecords(context.Background(), cfg, 3, fc, func(r *traces.FlowRecord) bool {
		streamed = append(streamed, keep(r))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(streamed) {
		t.Fatalf("stats records %d != streamed %d", stats.Records, len(streamed))
	}

	recs, _ := mustMaterialise(t, cfg, 3, fc)
	if len(recs) != len(streamed) {
		t.Fatalf("streamed %d records, the fold kept %d", len(streamed), len(recs))
	}
	workload.SortRecords(streamed)
	for i := range streamed {
		if !reflect.DeepEqual(*streamed[i], *recs[i]) {
			t.Fatalf("record %d differs between the streaming and fold paths", i)
		}
	}
}

// TestShardingChangesSampleNotScale: different shard counts draw different
// population samples (per-shard seeds) but the same population size, so
// headline aggregates stay in the same regime.
func TestShardingChangesSampleNotScale(t *testing.T) {
	cfg := workload.Home1(0.03)
	s1, st1 := mustSummarize(t, cfg, 11, Config{Shards: 1})
	s8, st8 := mustSummarize(t, cfg, 11, Config{Shards: 8})
	if st1.Cfg.TotalIPs != st8.Cfg.TotalIPs {
		t.Fatalf("population size changed with shard count: %d vs %d", st1.Cfg.TotalIPs, st8.Cfg.TotalIPs)
	}
	if s1.Flows == s8.Flows {
		t.Log("1-shard and 8-shard runs drew identical flow counts (possible but unlikely)")
	}
	ratio := float64(s8.Flows) / float64(s1.Flows)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("8-shard sample out of regime: %d vs %d flows", s8.Flows, s1.Flows)
	}
	if st8.Households == 0 || st8.Devices == 0 {
		t.Fatal("sharded run lost ground-truth counters")
	}
}

func TestShardRangePartition(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{0, 1}, {1, 1}, {10, 1}, {10, 3}, {10, 10}, {10, 16}, {1000, 7}, {250, 8},
	} {
		next := 0
		for sh := 0; sh < tc.shards; sh++ {
			lo, hi := workload.ShardRange(tc.total, sh, tc.shards)
			if lo != next {
				t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d", tc.total, tc.shards, sh, lo, next)
			}
			if hi < lo {
				t.Fatalf("total=%d shards=%d: shard %d inverted range [%d,%d)", tc.total, tc.shards, sh, lo, hi)
			}
			if size := hi - lo; size > tc.total/tc.shards+1 {
				t.Fatalf("total=%d shards=%d: shard %d oversized (%d)", tc.total, tc.shards, sh, size)
			}
			next = hi
		}
		if next != tc.total {
			t.Fatalf("total=%d shards=%d: ranges cover [0,%d), want [0,%d)", tc.total, tc.shards, next, tc.total)
		}
	}
}

func TestShardSeedsDecorrelated(t *testing.T) {
	seen := map[int64]int{}
	for sh := 0; sh < 128; sh++ {
		s := workload.ShardSeed(77, sh)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, sh, s)
		}
		seen[s] = sh
	}
	if workload.ShardSeed(77, 0) != 77 {
		t.Fatal("shard 0 must keep the root seed (legacy compatibility)")
	}
	if workload.ShardSeed(77, 1) == workload.ShardSeed(78, 1) {
		t.Fatal("shard seeds must depend on the campaign seed")
	}
}

// TestScaleSizesPopulation: a population's size is its vantage point's
// Scale alone. The config that ran is the one passed in, whatever the
// shard count, and tripling Scale triples the subscribers.
func TestScaleSizesPopulation(t *testing.T) {
	for _, scale := range []float64{0.02, 0.06} {
		cfg := workload.Home1(scale)
		_, stats := mustSummarize(t, cfg, 5, Config{Shards: 4})
		if stats.Cfg.TotalIPs != cfg.TotalIPs || stats.Cfg.Scale != scale {
			t.Fatalf("scale %g ran %d subscribers at scale %g, want %d", scale, stats.Cfg.TotalIPs, stats.Cfg.Scale, cfg.TotalIPs)
		}
	}
	if small, large := workload.Home1(0.02).TotalIPs, workload.Home1(0.06).TotalIPs; large < 3*small || large > 3*small+2 {
		t.Fatalf("Home1(0.06) has %d subscribers, not three times Home1(0.02)'s %d", large, small)
	}
}

// TestSubscriberIPsDistinctAtScale guards the large-population address
// layout over the whole range workload.CheckScale admits: the legacy
// formula wrapped at 64k subscribers, silently merging households. Every
// index below MaxSubscribers decodes back from its address, so no two
// share one; the first index past it is the one the ceiling refuses.
func TestSubscriberIPsDistinctAtScale(t *testing.T) {
	const base = 57
	index := func(ip wire.IP) int {
		b := [4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}
		return (int(b[1])-base+256)%256*62500 + int(b[2])*250 + int(b[3])
	}
	for i := 0; i < workload.MaxSubscribers; i++ {
		if got := index(workload.SubscriberIP(base, i)); got != i {
			t.Fatalf("subscriber %d's address %v decodes to %d", i, workload.SubscriberIP(base, i), got)
		}
	}
	// The 256 second-octet blocks: each edge is distinct from every other.
	seen := make(map[wire.IP]int)
	for block := 0; block < 256; block++ {
		for _, i := range []int{block*62500 - 1, block * 62500, block*62500 + 62499} {
			if i < 0 {
				continue
			}
			ip := workload.SubscriberIP(base, i)
			if prev, dup := seen[ip]; dup && prev != i {
				t.Fatalf("subscribers %d and %d share address %v", prev, i, ip)
			}
			seen[ip] = i
		}
	}
	if len(seen) != 2*256 {
		t.Fatalf("%d distinct block-edge addresses, want 512", len(seen))
	}
	if workload.SubscriberIP(base, workload.MaxSubscribers) != workload.SubscriberIP(base, 0) {
		t.Fatal("MaxSubscribers no longer marks where the 10/8 plan wraps")
	}
	// Legacy layout preserved below the first block boundary.
	if workload.SubscriberIP(base, 12345) != wire.MakeIP(10, 57, 49, 95) {
		t.Fatal("small-index addresses diverged from the legacy layout")
	}
}

// TestShardCapEnforced pins the namespace-block safety bound: the engine
// clamps to workload.MaxShards instead of letting uint32 namespace blocks
// wrap and collide.
func TestShardCapEnforced(t *testing.T) {
	_, stats := mustSummarize(t, workload.Campus1(0.05), 1, Config{Shards: workload.MaxShards * 4})
	if stats.Shards != workload.MaxShards {
		t.Fatalf("shards = %d, want clamped to %d", stats.Shards, workload.MaxShards)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateShard accepted nshards above MaxShards")
		}
	}()
	workload.GenerateShard(workload.Campus1(0.05), 1, 0, workload.MaxShards+1, func(*traces.FlowRecord) {})
}

// TestAggregateScalesWithBoundedMemory runs a population 10x the dropsim
// default (-scale 0.5 against 0.05) through the streaming path. The path keeps
// no records by construction; this test pins that it completes and that the
// aggregates carry the expected population growth.
func TestAggregateScalesWithBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large population")
	}
	cfg := workload.Home1(0.5)
	fc := Config{Shards: 4 * runtime.GOMAXPROCS(0)}
	sum, stats := mustSummarize(t, cfg, 2012, fc)
	if stats.Cfg.TotalIPs < 9000 {
		t.Fatalf("population too small for a scale test: %d IPs", stats.Cfg.TotalIPs)
	}
	if sum.Flows < 100_000 {
		t.Fatalf("suspiciously few flows at 10x scale: %d", sum.Flows)
	}
	if got, want := len(sum.Devices), stats.Devices; got > want {
		t.Fatalf("summary counted %d devices, ground truth only %d", got, want)
	}
	if sum.StoreFlows == 0 || sum.RetrieveFlows == 0 {
		t.Fatal("streaming aggregation lost storage flows")
	}
}

// BenchmarkShardedGeneration compares sequential materializing generation
// against sharded streaming aggregation of the same population.
func BenchmarkShardedGeneration(b *testing.B) {
	for _, scale := range []float64{0.05, 0.2} {
		cfg := workload.Home1(scale)
		b.Run(fmt.Sprintf("scale=%.2f/sequential", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := workload.Generate(cfg, int64(i))
				if len(ds.Records) == 0 {
					b.Fatal("empty")
				}
			}
		})
		for _, shards := range []int{4, 16} {
			b.Run(fmt.Sprintf("scale=%.2f/shards=%d", scale, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sum, _ := mustSummarize(b, cfg, int64(i), Config{Shards: shards})
					if sum.Flows == 0 {
						b.Fatal("empty")
					}
				}
			})
		}
	}
}

// TestPooledAggregateMatchesUnpooled pins the pooled Aggregate path
// (per-shard RecordPools, records recycled after Consume) against a
// reference built from the plain GenerateShard stream with no pooling:
// every metric, including order-sensitive float accumulators, must match
// exactly.
func TestPooledAggregateMatchesUnpooled(t *testing.T) {
	cfg := workload.Home1(0.05)
	const seed, shards = 7, 4

	got, stats := mustSummarize(t, cfg, seed, Config{Shards: shards, Workers: 2})
	if stats.Records == 0 {
		t.Fatal("no records generated")
	}

	var want *Summary
	for sh := 0; sh < shards; sh++ {
		s := NewSummary(cfg.Days)
		workload.GenerateShard(cfg, seed, sh, shards, s.Consume)
		if want == nil {
			want = s
		} else {
			want.Merge(s)
		}
	}

	gm, wm := got.Metrics(), want.Metrics()
	if !reflect.DeepEqual(gm, wm) {
		t.Fatalf("pooled aggregate metrics diverge:\n got %v\nwant %v", gm, wm)
	}
}
