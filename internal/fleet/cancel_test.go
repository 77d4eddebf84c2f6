package fleet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// waitGoroutines polls until the goroutine count drops back to base
// (within slack), failing the test if the engine leaked workers.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d, started from %d", runtime.NumGoroutine(), base)
}

// TestAggregateCancelMidCampaign cancels an 8-shard aggregation from inside
// a Consume callback and checks the engine stops at shard granularity,
// surfaces context.Canceled, and leaks no goroutines.
func TestAggregateCancelMidCampaign(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := workload.Home1(0.03)
	fc := Config{Shards: 8, Workers: 2}
	var seen atomic.Int64 // shared by every shard's aggregator, two workers at a time
	_, _, err := Aggregate(ctx, []Population{{cfg, 1}}, fc, func(int, int) Aggregator {
		return &cancelingAgg{after: 100, cancel: cancel, seen: &seen}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Aggregate after mid-run cancel: err = %v, want context.Canceled", err)
	}
	if seen.Load() == 0 {
		t.Fatal("cancel fired before any record was consumed")
	}
	waitGoroutines(t, base)
}

type cancelingAgg struct {
	after  int
	cancel context.CancelFunc
	seen   *atomic.Int64
	n      int
}

func (a *cancelingAgg) Consume(*traces.FlowRecord) {
	a.n++
	a.seen.Add(1)
	if a.n == a.after {
		a.cancel()
	}
}

func (a *cancelingAgg) Merge(Aggregator) {}

// TestStreamRecordsCancel cancels mid-stream and checks prompt teardown
// with ctx.Err() surfaced.
func TestStreamRecordsCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	n := 0
	_, err := StreamRecords(ctx, workload.Home1(0.03), 5, Config{Shards: 8, Workers: 3},
		func(*traces.FlowRecord) bool {
			n++
			if n == 500 {
				cancel()
			}
			return true
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n < 500 {
		t.Fatalf("stream ended after %d records, before the cancel point", n)
	}
	waitGoroutines(t, base)
}

// TestStreamRecordsEarlyStop: emit returning false is a clean consumer
// break — no error, no goroutine leak.
func TestStreamRecordsEarlyStop(t *testing.T) {
	base := runtime.NumGoroutine()
	n := 0
	_, err := StreamRecords(context.Background(), workload.Home1(0.03), 5, Config{Shards: 6, Workers: 2},
		func(*traces.FlowRecord) bool {
			n++
			return n < 200
		})
	if err != nil {
		t.Fatalf("early stop surfaced error: %v", err)
	}
	if n != 200 {
		t.Fatalf("emit called %d times after stopping at 200", n)
	}
	waitGoroutines(t, base)
}

// TestRecordsIteratorMatchesStreamOrdered pins the iterator against the
// ordered callback stream (StreamRecords): same records, same canonical
// order, nil errors.
func TestRecordsIteratorMatchesStreamOrdered(t *testing.T) {
	cfg := workload.Campus2(0.04)
	fc := Config{Shards: 4, Workers: 2}

	var legacy []*traces.FlowRecord
	if _, err := StreamRecords(context.Background(), cfg, 3, fc, func(r *traces.FlowRecord) bool {
		legacy = append(legacy, keep(r))
		return true
	}); err != nil {
		t.Fatal(err)
	}

	var got []*traces.FlowRecord
	for r, err := range Records(context.Background(), cfg, 3, fc) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, keep(r))
	}
	if len(got) != len(legacy) {
		t.Fatalf("iterator yielded %d records, callback path %d", len(got), len(legacy))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *legacy[i]) {
			t.Fatalf("record %d differs between iterator and callback paths", i)
		}
	}
}

// TestRecordsIteratorBreak: breaking the range loop mid-stream must tear
// the pipeline down without yielding an error or leaking goroutines.
func TestRecordsIteratorBreak(t *testing.T) {
	base := runtime.NumGoroutine()
	n := 0
	for _, err := range Records(context.Background(), workload.Home1(0.03), 7, Config{Shards: 8, Workers: 3}) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == 100 {
			break
		}
	}
	waitGoroutines(t, base)
}

// TestRecordsIteratorCancelYieldsError: a cancelled ctx must surface as
// the iterator's final (nil, err) pair.
func TestRecordsIteratorCancelYieldsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var finalErr error
	for r, err := range Records(ctx, workload.Home1(0.02), 7, Config{Shards: 2}) {
		if err != nil {
			finalErr = err
			if r != nil {
				t.Fatal("error pair carried a record")
			}
		}
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("final err = %v, want context.Canceled", finalErr)
	}
}

// TestWriterSinkLatchesError: the RecordWriter adapter stops writing after
// the first failure and preserves it.
func TestWriterSinkLatchesError(t *testing.T) {
	fw := &failingWriter{failAt: 3}
	ws := &WriterSink{W: fw}
	for i := 0; i < 10; i++ {
		ws.Consume(&traces.FlowRecord{})
	}
	if ws.Err == nil {
		t.Fatal("write error not latched")
	}
	if fw.writes != 3 {
		t.Fatalf("writer saw %d writes after failing at 3", fw.writes)
	}
}

type failingWriter struct {
	writes, failAt int
}

func (f *failingWriter) Write(*traces.FlowRecord) error {
	f.writes++
	if f.writes >= f.failAt {
		return errors.New("disk full")
	}
	return nil
}

func (f *failingWriter) Flush() error { return nil }
