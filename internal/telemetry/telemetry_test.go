package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestRegistryIdempotent pins the registration contract: the same name
// returns the same metric, so package-level metric vars across packages
// share one registry.
func TestRegistryIdempotent(t *testing.T) {
	if NewCounter("test.reg") != NewCounter("test.reg") {
		t.Fatal("NewCounter returned distinct counters for one name")
	}
	if NewGauge("test.reg.g") != NewGauge("test.reg.g") {
		t.Fatal("NewGauge returned distinct gauges for one name")
	}
	if NewHist("test.reg.h") != NewHist("test.reg.h") {
		t.Fatal("NewHist returned distinct histograms for one name")
	}
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// many goroutines while snapshots are taken concurrently — the shape of
// live fleet workers racing the periodic logger. Run under -race this
// pins the atomic counter and gauge paths and the histogram lock.
func TestConcurrentUpdates(t *testing.T) {
	reset() // metrics are process-global; -count=2 must start from zero
	c := NewCounter("test.conc.counter")
	g := NewGauge("test.conc.gauge")
	gm := NewGauge("test.conc.max")
	h := NewHist("test.conc.hist")

	const workers = 8
	const perWorker = 1000
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader, as the stderr logger would be
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				Snapshot()
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(2)
				g.Add(1)
				g.Add(-1)
				gm.SetMax(int64(w*perWorker + i))
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := c.Load(); got != workers*perWorker*2 {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker*2)
	}
	if got := h.h.Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
	if got := g.Load(); got != 0 {
		t.Fatalf("gauge after paired adds = %d, want 0", got)
	}
	if max := gm.Load(); max != workers*perWorker-1 {
		t.Fatalf("gauge SetMax high-water = %d, want %d", max, workers*perWorker-1)
	}
}

// TestHistStats pins the histogram summary math on a known distribution,
// read the way every consumer reads it: through a snapshot.
func TestHistStats(t *testing.T) {
	reset()
	h := NewHist("test.hist.stats")
	if ts := Snapshot().Timings["test.hist.stats"]; ts != (TimingStats{}) {
		t.Fatalf("empty hist timing = %+v, want all zero", ts)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	ts := Snapshot().Timings["test.hist.stats"]
	if ts.Count != 100 {
		t.Fatalf("count = %d, want 100", ts.Count)
	}
	if ts.TotalSeconds != 5.05 {
		t.Fatalf("total = %vs, want 5.05s", ts.TotalSeconds)
	}
	if ts.MaxMs != 100 {
		t.Fatalf("max = %vms, want 100ms", ts.MaxMs)
	}
	if ts.MeanMs != 50.5 {
		t.Fatalf("mean = %vms, want 50.5ms", ts.MeanMs)
	}
	// Quantiles are 1/16-decade bucket midpoints: the geometric midpoint
	// is within 10^(1/32) ≈ 7.5% of every value in its bucket.
	const bound = 1.08
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"p50", ts.P50Ms, 50}, {"p95", ts.P95Ms, 95}} {
		if c.got < c.want/bound || c.got > c.want*bound {
			t.Fatalf("%s = %vms, outside the 1/16-decade bound of %vms", c.name, c.got, c.want)
		}
	}
	if ts.P50Ms > ts.P95Ms || ts.P95Ms > ts.MaxMs {
		t.Fatalf("quantiles out of order: p50 %v, p95 %v, max %v", ts.P50Ms, ts.P95Ms, ts.MaxMs)
	}
}

// TestHistMerge pins Merge against Observe: folding a nanosecond LogHist
// in gives the same snapshot as observing its values one by one.
func TestHistMerge(t *testing.T) {
	reset()
	var lh LogHist
	for i := 1; i <= 500; i++ {
		d := time.Duration(i*i) * time.Microsecond
		lh.Observe(float64(d))
		NewHist("test.hist.observed").Observe(d)
	}
	NewHist("test.hist.merged").Merge(&lh)
	s := Snapshot()
	if got, want := s.Timings["test.hist.merged"], s.Timings["test.hist.observed"]; got != want {
		t.Fatalf("merged timing %+v, observed %+v", got, want)
	}
}

// TestSnapshotAndReset pins the snapshot contents and the test-only reset
// contract: values zero, registrations survive.
func TestSnapshotAndReset(t *testing.T) {
	reset()
	c := NewCounter("test.snap.counter")
	g := NewGauge("test.snap.gauge")
	h := NewHist("test.snap.hist")
	c.Add(7)
	g.Set(-3)
	h.Observe(2 * time.Second)
	SetInfo("test.snap.info", "abc")

	s := Snapshot()
	if s.Counters["test.snap.counter"] != 7 {
		t.Fatalf("snapshot counter = %d, want 7", s.Counters["test.snap.counter"])
	}
	if s.Gauges["test.snap.gauge"] != -3 {
		t.Fatalf("snapshot gauge = %d, want -3", s.Gauges["test.snap.gauge"])
	}
	ts := s.Timings["test.snap.hist"]
	if ts.Count != 1 || ts.TotalSeconds != 2 || ts.MaxMs != 2000 {
		t.Fatalf("snapshot timing = %+v, want count 1, 2s total, 2000ms max", ts)
	}
	if s.Info["test.snap.info"] != "abc" {
		t.Fatalf("snapshot info = %q, want abc", s.Info["test.snap.info"])
	}

	// The snapshot is a copy: later updates must not leak into it.
	c.Add(100)
	if s.Counters["test.snap.counter"] != 7 {
		t.Fatal("snapshot mutated by a later counter update")
	}

	reset()
	if c.Load() != 0 || g.Load() != 0 || h.h.Count() != 0 {
		t.Fatal("reset left non-zero values")
	}
	s2 := Snapshot()
	if _, ok := s2.Counters["test.snap.counter"]; !ok {
		t.Fatal("reset dropped the counter registration")
	}
	if _, ok := s2.Info["test.snap.info"]; ok {
		t.Fatal("reset kept an info annotation")
	}
	c.Add(1) // the package-level var stays usable after reset
	if c.Load() != 1 {
		t.Fatal("counter unusable after reset")
	}
}

// reset zeroes every registered metric and clears info annotations, but
// keeps registrations (package-level metric vars stay valid), for tests
// that assert absolute values.
func reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, c := range counters {
		c.v.Store(0)
	}
	for _, g := range gauges {
		g.v.Store(0)
	}
	for _, h := range hists {
		h.mu.Lock()
		h.h = LogHist{}
		h.mu.Unlock()
	}
	clear(infos)
}
