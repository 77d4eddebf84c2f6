// Package telemetry is the repo's zero-dependency instrumentation layer:
// named atomic counters and gauges, and locked timing histograms, that the hot
// subsystems (fleet, workload, traces, the experiment runner) update and
// that sinks — the periodic stderr logger, the RunManifest written next to
// results, and tests — read as consistent snapshots.
//
// The layer is built for the determinism contract of this repository:
// instrumentation observes, it never participates. No metric update can
// change a generated record, an aggregate or a serialized byte, so golden
// stream hashes are identical with telemetry read, unread, or ignored
// (pinned by TestStreamGoldenWithTelemetry). The cost model is equally
// strict: hot paths either update metrics at shard/flush granularity or
// pay a single uncontended atomic add — no allocation, no locking, no
// formatting — so enabled-but-unread telemetry stays inside the
// allocation ceilings of CI's bench-smoke job (PERFORMANCE.md budgets
// the overhead). Histograms take a mutex, so they are only observed once
// per shard, experiment or simulation.
//
// The package also owns the repository's one histogram implementation,
// LogHist: 1/16-decade buckets with exact merging and a serialisable
// state, used by the fleet summary, the backend reports and the what-if
// aggregates as well as by the registered Hist.
//
// Metrics are process-global and monotonic for the process lifetime:
// NewCounter et al. register by name once and return the same metric on
// every call, so package-level `var m = telemetry.NewCounter(...)`
// declarations across packages share one registry. Snapshot returns a
// point-in-time copy; Reset (tests only) zeroes values but keeps
// registrations.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// usable, but counters are normally obtained from NewCounter so they
// appear in snapshots.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (pool depth, busy workers, peak
// RSS). The zero value is usable.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Hist is a registered duration histogram: a LogHist over nanoseconds
// behind a mutex. Every caller observes once per shard, once per
// experiment or once per simulation (Merge), so the lock is never on a
// per-record path.
type Hist struct {
	mu sync.Mutex
	h  LogHist
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	h.mu.Lock()
	h.h.Observe(float64(d))
	h.mu.Unlock()
}

// Merge folds a nanosecond LogHist in, as one exact bucket-wise sum.
func (h *Hist) Merge(o *LogHist) {
	h.mu.Lock()
	h.h.MergeHist(o)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// ---------- the registry ----------

var (
	regMu    sync.Mutex
	counters = map[string]*Counter{}
	gauges   = map[string]*Gauge{}
	hists    = map[string]*Hist{}
	infos    = map[string]string{}
)

// NewCounter returns the registered counter of that name, creating it on
// first use. Safe to call from package init and concurrently.
func NewCounter(name string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	c := counters[name]
	if c == nil {
		c = &Counter{}
		counters[name] = c
	}
	return c
}

// NewGauge returns the registered gauge of that name, creating it on
// first use.
func NewGauge(name string) *Gauge {
	regMu.Lock()
	defer regMu.Unlock()
	g := gauges[name]
	if g == nil {
		g = &Gauge{}
		gauges[name] = g
	}
	return g
}

// NewHist returns the registered histogram of that name, creating it on
// first use.
func NewHist(name string) *Hist {
	regMu.Lock()
	defer regMu.Unlock()
	h := hists[name]
	if h == nil {
		h = &Hist{}
		hists[name] = h
	}
	return h
}

// SetInfo publishes a string annotation (a stream hash, a config digest)
// that snapshots and manifests carry verbatim.
func SetInfo(key, value string) {
	regMu.Lock()
	defer regMu.Unlock()
	infos[key] = value
}

// TimingStats summarizes one histogram inside a snapshot.
type TimingStats struct {
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanMs       float64 `json:"mean_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// Snap is a point-in-time copy of every registered metric. Map iteration
// order is undefined as usual; renderers sort keys.
type Snap struct {
	Counters map[string]uint64      `json:"counters"`
	Gauges   map[string]int64       `json:"gauges,omitempty"`
	Timings  map[string]TimingStats `json:"timings,omitempty"`
	Info     map[string]string      `json:"info,omitempty"`
}

// Snapshot copies every registered metric. Values are loaded atomically
// per metric (the snapshot is not a global atomic cut, which observers of
// a live run do not need).
func Snapshot() Snap {
	regMu.Lock()
	defer regMu.Unlock()
	s := Snap{Counters: make(map[string]uint64, len(counters))}
	for name, c := range counters {
		s.Counters[name] = c.Load()
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for name, g := range gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(hists) > 0 {
		s.Timings = make(map[string]TimingStats, len(hists))
		for name, hist := range hists {
			hist.mu.Lock()
			h := hist.h
			hist.mu.Unlock()
			s.Timings[name] = TimingStats{
				Count:        h.Count(),
				TotalSeconds: h.Sum() / 1e9,
				MeanMs:       h.Mean() / 1e6,
				P50Ms:        h.Quantile(0.5) / 1e6,
				P95Ms:        h.Quantile(0.95) / 1e6,
				MaxMs:        h.Max() / 1e6,
			}
		}
	}
	if len(infos) > 0 {
		s.Info = make(map[string]string, len(infos))
		for k, v := range infos {
			s.Info[k] = v
		}
	}
	return s
}

// Reset zeroes every registered metric and clears info annotations, but
// keeps registrations (package-level metric vars stay valid). Intended
// for tests that assert absolute values.
func Reset() {
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
