package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"insidedropbox/internal/traces"
)

// span is one recorded interval at a layer boundary. Spans are recorded
// by the benchmark's own code around each call into a layer, kept in
// memory, and written out when the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Units    int64  `json:"units"`
	Bytes    int64  `json:"bytes"`
	Mallocs  uint64 `json:"mallocs,omitempty"`
}

// tracer collects spans. A nil tracer records nothing, so a repetition
// takes the same code path traced and untraced. File writes arrive from
// the block writers' merger goroutine, hence the lock.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// openSpan is a started span; end completes it.
type openSpan struct {
	t   *tracer
	idx int
	mem bool
	m0  uint64
}

// start opens a span under parent (0 for none). With mem set the span
// also carries the heap allocation count of its interval; the MemStats
// reads sit outside the interval.
func (t *tracer) start(parent int, layer, name string, mem bool) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, mem: mem}
	if mem {
		o.m0 = mallocCount()
	}
	t.mu.Lock()
	o.idx = len(t.spans)
	t.spans = append(t.spans, span{
		ID: o.idx + 1, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name, StartNS: int64(time.Since(t.epoch)),
	})
	t.mu.Unlock()
	return o
}

// id is the span's identifier, for children to name as their parent.
func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.idx + 1
}

// end closes the span with the work it covered.
func (o *openSpan) end(units, bytes int64) {
	if o == nil {
		return
	}
	endNS := int64(time.Since(o.t.epoch))
	var mallocs uint64
	if o.mem {
		mallocs = mallocCount() - o.m0
	}
	o.t.mu.Lock()
	s := &o.t.spans[o.idx]
	s.EndNS, s.Units, s.Bytes, s.Mallocs = endNS, units, bytes, mallocs
	o.t.mu.Unlock()
}

// endSample closes a repetition's root span on the interval the meter
// timed, so verification after the timed region is not part of it.
func (o *openSpan) endSample(s sample, units, bytes int64) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	sp := &o.t.spans[o.idx]
	sp.StartNS = int64(s.start.Sub(o.t.epoch))
	sp.EndNS = sp.StartNS + int64(s.wall)
	sp.Units, sp.Bytes, sp.Mallocs = units, bytes, s.mallocs
	o.t.mu.Unlock()
}

// record adds a completed span whose interval was observed elsewhere: a
// phase boundary reported by an observer hook, or a point reading (start
// equal to end) that carries only counts.
func (t *tracer) record(parent int, layer, name string, start, end time.Time, units, bytes int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Layer: layer, Name: name,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)), Units: units, Bytes: bytes,
	})
	t.mu.Unlock()
}

// mark returns the current span count; spans recorded after it belong to
// what follows.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// since copies the spans recorded after a mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// save writes every span as a JSON array.
func (t *tracer) save(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTotal sums the spans of one layer.name key within one round.
type layerTotal struct {
	ns, units, bytes, mallocs float64
}

// traceData holds, per layer.name key, one total per round of the traced
// run. Every figure derived from it is a median over rounds: single
// passes of one stage differ by tens of percent on a shared box.
type traceData struct {
	rounds map[string][]layerTotal
}

// fold adds one round's spans.
func (d *traceData) fold(spans []span) {
	if d.rounds == nil {
		d.rounds = make(map[string][]layerTotal)
	}
	round := make(map[string]layerTotal)
	for _, s := range spans {
		key := s.Layer + "." + s.Name
		t := round[key]
		t.ns += float64(s.EndNS - s.StartNS)
		t.units += float64(s.Units)
		t.bytes += float64(s.Bytes)
		t.mallocs += float64(s.Mallocs)
		round[key] = t
	}
	for key, t := range round {
		d.rounds[key] = append(d.rounds[key], t)
	}
}

// over returns the median over rounds of f applied to key's totals; 0
// when the key was never recorded.
func (d *traceData) over(key string, f func(layerTotal) float64) float64 {
	var xs []float64
	for _, t := range d.rounds[key] {
		xs = append(xs, f(t))
	}
	return median(xs)
}

// ns is the median time per round spent under key.
func (d *traceData) ns(key string) float64 {
	return d.over(key, func(t layerTotal) float64 { return t.ns })
}

// nsPer is the median time per unit of key's own work.
func (d *traceData) nsPer(key string) float64 {
	return d.over(key, func(t layerTotal) float64 { return ratio(t.ns, t.units) })
}

// allocsPer is the median heap allocation count per unit of key's work.
func (d *traceData) allocsPer(key string) float64 {
	return d.over(key, func(t layerTotal) float64 { return ratio(t.mallocs, t.units) })
}

// units is the median work per round under key.
func (d *traceData) units(key string) float64 {
	return d.over(key, func(t layerTotal) float64 { return t.units })
}

// bytes is the median byte count per round under key.
func (d *traceData) bytes(key string) float64 {
	return d.over(key, func(t layerTotal) float64 { return t.bytes })
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stage is one layer timed in isolation on the workload's own input:
// per-record calls are too fine to span inside a composed repetition
// without distorting them.
type stage struct {
	layer, name string
	// input, when non-nil, materialises the records run replays. It is
	// called before the stage's span opens and its result is dropped when
	// the span closes: a sample held across repetitions would be live heap
	// the measured run does not have, and every collection would pay for it.
	input func() []*traces.FlowRecord
	// run does the stage's work once and returns its units and bytes.
	run func(sample []*traces.FlowRecord) (units, bytes int64, err error)
}

// budgetRow is one layer's share of a repetition, in ns per workload unit.
type budgetRow struct {
	name string
	ns   float64
}

// budget sets the layer rows of one workload against its composed
// single-core repetition.
type budget struct {
	rows []budgetRow
	// composed is the untraced GOMAXPROCS=1 repetition, ns per unit.
	composed float64
}

func (b budget) sum() float64 {
	var s float64
	for _, r := range b.rows {
		s += r.ns
	}
	return s
}

// unattributed is what the layer rows do not explain. It may be negative:
// that is a measurement to repeat, not a value to clamp.
func (b budget) unattributed() float64 { return b.composed - b.sum() }

// print renders the budget table.
func (b budget) print(workload string) {
	fmt.Printf("# budget %s (ns per unit, GOMAXPROCS=1)\n", workload)
	for _, r := range b.rows {
		fmt.Printf("#   %-34s %12.1f\n", r.name, r.ns)
	}
	fmt.Printf("#   %-34s %12.1f\n", "sum of layers", b.sum())
	fmt.Printf("#   %-34s %12.1f\n", "composed repetition", b.composed)
	fmt.Printf("#   %-34s %12.1f  (%.1f %%)\n", "budget.unattributed_ns_per_unit",
		b.unattributed(), 100*ratio(b.unattributed(), b.composed))
	if b.unattributed() < 0 {
		fmt.Println("# warning: negative unattributed time: the layers were timed slower than the plain repetition ran; repeat the run")
	}
}
