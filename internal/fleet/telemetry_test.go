package fleet

import (
	"context"
	"hash/fnv"
	"sync"
	"testing"

	"insidedropbox/internal/golden"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// TestObserverShardEvents pins the Config.Observer contract: every shard
// reports exactly once, from concurrent workers, with monotonically
// unique Done counts and the records the shard actually produced.
func TestObserverShardEvents(t *testing.T) {
	const shards = 8
	var (
		mu     sync.Mutex
		events []ShardEvent
	)
	fc := Config{Shards: shards, Workers: 4, Observer: func(ev ShardEvent) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}}
	_, stats, err := Summarize(context.Background(), workload.Home1(0.02), 9, fc)
	if err != nil {
		t.Fatal(err)
	}

	if len(events) != shards {
		t.Fatalf("observer saw %d events, want %d", len(events), shards)
	}
	seenShard := map[int]bool{}
	seenDone := map[int]bool{}
	var records int
	for _, ev := range events {
		if ev.VP != stats.Cfg.Name {
			t.Fatalf("event VP = %q, want %q", ev.VP, stats.Cfg.Name)
		}
		if ev.Shards != shards || ev.Shard < 0 || ev.Shard >= shards {
			t.Fatalf("event shard %d/%d out of range", ev.Shard, ev.Shards)
		}
		if seenShard[ev.Shard] {
			t.Fatalf("shard %d reported twice", ev.Shard)
		}
		seenShard[ev.Shard] = true
		if ev.Done < 1 || ev.Done > shards || seenDone[ev.Done] {
			t.Fatalf("Done = %d invalid or duplicated", ev.Done)
		}
		seenDone[ev.Done] = true
		records += ev.Records
	}
	if records != stats.Records {
		t.Fatalf("observer records sum %d != stats %d", records, stats.Records)
	}
}

// TestStreamGoldenWithTelemetry pins the telemetry layer's invisibility
// contract (the package doc's promise): the ordered streaming path under
// concurrent workers, with the fleet's counters active and a concurrent
// snapshot reader polling them, still produces the exact golden byte
// stream workload.TestRecordStreamGolden records for the sequential
// path with telemetry unread. A single diverging byte fails the hash.
func TestStreamGoldenWithTelemetry(t *testing.T) {
	g := golden.Home1FourShard

	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() { // the periodic logger's access pattern, at full speed
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
				telemetry.Snapshot()
			}
		}
	}()

	h := fnv.New64a()
	w := traces.NewWriter(h)
	fc := Config{Shards: g.Shards, Workers: 4, Observer: func(ShardEvent) {}}
	stats, err := StreamRecords(context.Background(), workload.Home1(g.Scale), g.Seed, fc,
		func(r *traces.FlowRecord) bool {
			if err := w.Write(r); err != nil {
				t.Error(err)
				return false
			}
			return true
		})
	close(stop)
	poller.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := h.Sum64(); !golden.Match(got, g.Hash) {
		t.Fatalf("streamed hash = %#x, want %#x (telemetry changed the record stream)", got, g.Hash)
	}

	// The instrumentation did fire: the fleet counters must have seen
	// every record this stream carried.
	snap := telemetry.Snapshot()
	if snap.Counters["fleet.records"] < uint64(stats.Records) {
		t.Fatalf("fleet.records = %d, want >= %d", snap.Counters["fleet.records"], stats.Records)
	}
	if snap.Timings["fleet.shard_seconds"].Count < 4 {
		t.Fatalf("fleet.shard_seconds count = %d, want >= 4", snap.Timings["fleet.shard_seconds"].Count)
	}
}
