package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"insidedropbox"
	"insidedropbox/internal/backend"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/flowmodel"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// ctx is the one context of the run: the benchmark is a closed loop with
// a single caller and is never cancelled.
var ctx = context.Background()

// outcome is what one repetition produced.
type outcome struct {
	// units is the work done: flow records, or experiments rendered.
	units int64
	// bytes is the artifact written (read, for the read-* workloads).
	bytes int64
	// fp holds everything that must be identical across repetitions.
	fp string
	// checks counts the verification checks made inside the repetition,
	// failed how many of them did not hold.
	checks, failed int
}

// check records one verification check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "verification failed: "+format+"\n", args...)
	}
}

// repCtx is what the harness hands a repetition.
type repCtx struct {
	// m brackets the timed region.
	m *meter
	// variant selects which of the workload's inputs to run on.
	variant int
	// tr, when non-nil, receives spans under parent.
	tr     *tracer
	parent int
	// observer, when non-nil, is installed as fleet.Config.Observer.
	observer func(fleet.ShardEvent)
}

// runner is one workload: inputs, one repetition, and what a traced run
// adds — isolation stages and the map from spans to per-layer metrics.
type runner interface {
	// variants is how many inputs one cycle of repetitions visits.
	variants() int
	// prepare builds the inputs of one batch of variants from the seed:
	// those with v % batches == batch. Set-up calls it once per batch.
	prepare(batch, batches int) error
	// rep runs one repetition, timing its measured region with x.m and
	// verifying outside it.
	rep(x *repCtx) (outcome, error)
	// stages returns the layers timed in isolation by a traced run.
	stages() []stage
	// layers fills the per-layer metrics this workload measures into m
	// and returns its budget rows in ns per unit.
	layers(d *traceData, unitsPerRep float64, m map[string]float64) []budgetRow
}

// newRunner builds the named workload. dir is scratch space it owns.
func newRunner(name string, seed int64, sz sizes, dir string) (runner, error) {
	switch name {
	case "export-binary":
		return &exportRunner{dir: dir, seed: seed, sz: sz, pop: sz.export, format: "binary"}, nil
	case "export-flate":
		return &exportRunner{dir: dir, seed: seed, sz: sz, pop: sz.exportFlate, format: "binary-flate"}, nil
	case "summarize":
		return &summarizeRunner{seed: seed, sz: sz}, nil
	case "campaign":
		return &campaignRunner{dir: dir, seed: seed, sz: sz}, nil
	case "scenario-backend":
		return &scenarioRunner{seed: seed, sz: sz}, nil
	case "read-archive":
		return &archiveRunner{dir: dir, seed: seed, sz: sz}, nil
	case "read-csv":
		return &csvRunner{dir: dir, seed: seed, sz: sz}, nil
	case "paper-repro":
		return &paperRunner{dir: dir, seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------- shared pieces ----------

// exported describes one straight-through export.
type exported struct {
	records int64 // records delivered to the writer
	volume  int64 // sum of BytesUp+BytesDown over them
	stats   fleet.VPStats
}

// spanWriter times every Write that reaches the file under the bufio.
type spanWriter struct {
	w      io.Writer
	tr     *tracer
	parent int
}

func (s *spanWriter) Write(p []byte) (int, error) {
	sp := s.tr.start(s.parent, "file", "write", false)
	n, err := s.w.Write(p)
	sp.end(0, int64(n))
	return n, err
}

// traceWriter picks the writer dropsim -format would, given the workers
// its -serialize-workers default resolves to: for binary the parallel
// block writer when there is more than one, else the sequential one.
func traceWriter(w io.Writer, format string, workers int) traces.RecordWriter {
	switch {
	case format == "csv":
		cw := traces.NewWriter(w)
		cw.Anonymize = true
		return cw
	case format == "binary-flate":
		fw := traces.NewFlateWriter(w, workers)
		fw.Anonymize = true
		return fw
	case workers > 1:
		pw := traces.NewParallelBinaryWriter(w, workers)
		pw.Anonymize = true
		return pw
	default:
		bw := traces.NewBinaryWriter(w)
		bw.Anonymize = true
		return bw
	}
}

// target is one trace file an export writes.
type target struct {
	path, format string
}

// exportTo streams a population into a trace file the way dropsim does:
// fleet.StreamRecords into the format's writer, through a 64 KiB bufio,
// with Workers and serialize-workers left at their defaults. Given more
// than one target it writes them all from a single pass over the
// generator, which is how set-up affords two files per input.
func exportTo(vp workload.VPConfig, seed int64, shards int, x *repCtx, targets ...target) (exported, error) {
	var ex exported
	type output struct {
		f    *os.File
		bw   *bufio.Writer
		sink fleet.WriterSink
	}
	outs := make([]*output, 0, len(targets))
	defer func() { // error paths; the success path checks Close below
		for _, o := range outs {
			o.f.Close()
		}
	}()
	for _, t := range targets {
		f, err := os.Create(t.path)
		if err != nil {
			return ex, err
		}
		var fw io.Writer = f
		if x.tr != nil {
			fw = &spanWriter{w: f, tr: x.tr, parent: x.parent}
		}
		o := &output{f: f, bw: bufio.NewWriterSize(fw, 1<<16)}
		o.sink.W = traceWriter(o.bw, t.format, runtime.GOMAXPROCS(0))
		outs = append(outs, o)
	}
	var err error
	ex.stats, err = fleet.StreamRecords(ctx, vp, seed, fleet.Config{Shards: shards, Observer: x.observer},
		func(r *traces.FlowRecord) bool {
			ex.records++
			ex.volume += r.BytesUp + r.BytesDown
			for _, o := range outs {
				if o.sink.Consume(r); o.sink.Err != nil {
					return false
				}
			}
			return true
		})
	for _, o := range outs {
		if err == nil {
			err = o.sink.Err
		}
		if err == nil {
			err = o.sink.W.Flush()
		}
		if err == nil {
			err = o.bw.Flush()
		}
		if err == nil {
			err = o.f.Close()
		}
	}
	return ex, err
}

// hashFile returns the FNV-1a hash and size of a file.
func hashFile(path string) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	n, err := io.Copy(h, f)
	return h.Sum64(), n, err
}

// renderMetrics prints a metric map as sorted "name value" lines with
// every digit, so equal text means equal statistics.
func renderMetrics(m map[string]float64) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(m)) {
		b.WriteString(k)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(m[k], 'g', -1, 64))
		b.WriteByte('\n')
	}
	return b.String()
}

// sampler returns a stage input: the first quarter of a population's
// shards, materialised in stream order. One shard alone is too short a
// stream: a writer's start-up (growing block accumulators, compressor
// state) would be a third of what the stage measures.
func sampler(vp workload.VPConfig, seed int64, shards int) func() []*traces.FlowRecord {
	return func() []*traces.FlowRecord {
		var recs []*traces.FlowRecord
		for sh := 0; sh < max(1, shards/4); sh++ {
			workload.GenerateShard(vp, seed, sh, shards, func(r *traces.FlowRecord) { recs = append(recs, r) })
		}
		return recs
	}
}

// nopSink drops every record.
type nopSink struct{}

func (nopSink) Consume(*traces.FlowRecord) {}

// countWriter counts bytes and discards them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// generateStage times workload.GenerateShard over every shard into a
// counting emit.
func generateStage(vp workload.VPConfig, seed int64, shards int) stage {
	return stage{layer: "workload", name: "generate", run: func([]*traces.FlowRecord) (int64, int64, error) {
		var n int64
		for sh := 0; sh < shards; sh++ {
			workload.GenerateShard(vp, seed, sh, shards, func(*traces.FlowRecord) { n++ })
		}
		return n, 0, nil
	}}
}

// streamStage times fleet.StreamRecords into a no-op emit; less
// generateStage it is the cost of the shard hand-off.
func streamStage(vp workload.VPConfig, seed int64, shards int) stage {
	return stage{layer: "fleet", name: "stream", run: func([]*traces.FlowRecord) (int64, int64, error) {
		var n int64
		_, err := fleet.StreamRecords(ctx, vp, seed, fleet.Config{Shards: shards},
			func(*traces.FlowRecord) bool { n++; return true })
		return n, 0, err
	}}
}

// runShardStage times the pooled fleet.RunShard over every shard.
func runShardStage(vp workload.VPConfig, seed int64, shards int) stage {
	return stage{layer: "fleet", name: "run_shard", run: func([]*traces.FlowRecord) (int64, int64, error) {
		var n int64
		for sh := 0; sh < shards; sh++ {
			n += int64(fleet.RunShard(vp, seed, sh, shards, nopSink{}).Records)
		}
		return n, 0, nil
	}}
}

// aggregateStage times Summary.Consume over the sample.
func aggregateStage(input func() []*traces.FlowRecord, days int) stage {
	return stage{layer: "fleet", name: "aggregate", input: input, run: func(sample []*traces.FlowRecord) (int64, int64, error) {
		sum := fleet.NewSummary(days)
		for _, r := range sample {
			sum.Consume(r)
		}
		return int64(len(sample)), 0, nil
	}}
}

// encodeStage times one format's single-worker writer over the sample
// into a counting discard.
func encodeStage(name string, input func() []*traces.FlowRecord, format string) stage {
	return stage{layer: "traces", name: name, input: input, run: func(sample []*traces.FlowRecord) (int64, int64, error) {
		var cw countWriter
		w := traceWriter(&cw, format, 1)
		for _, r := range sample {
			if err := w.Write(r); err != nil {
				return 0, 0, err
			}
		}
		return int64(len(sample)), cw.n, w.Flush()
	}}
}

// flowmodelStage times flowmodel.Synthesize over a pinned mix of 1-, 10-
// and 100-chunk store and retrieve flows.
func flowmodelStage(seed int64, flows int) stage {
	var specs []flowmodel.StorageFlowSpec
	for _, chunks := range []int{1, 10, 100} {
		wires := make([]int, chunks)
		for i := range wires {
			wires[i] = 64<<10 + i*7919 // 64 KiB to 830 KiB
		}
		for _, dir := range []classify.Direction{classify.DirStore, classify.DirRetrieve} {
			specs = append(specs, flowmodel.StorageFlowSpec{Dir: dir, ChunkWires: wires, ServerClosesIdle: true})
		}
	}
	params := flowmodel.DefaultParams(100 * time.Millisecond)
	return stage{layer: "flowmodel", name: "synthesize", run: func([]*traces.FlowRecord) (int64, int64, error) {
		rng := simrand.New(seed, "benchmark/flowmodel")
		var volume int64
		for i := 0; i < flows; i++ {
			rec := flowmodel.Synthesize(rng, params, specs[i%len(specs)])
			volume += rec.BytesUp + rec.BytesDown
		}
		return int64(flows), volume, nil
	}}
}

// ---------- export-binary, export-flate ----------

type exportRunner struct {
	dir    string
	seed   int64
	sz     sizes
	pop    pop
	format string
}

func (w *exportRunner) vp() workload.VPConfig { return workload.Home1(w.pop.scale) }

func (w *exportRunner) variants() int { return w.pop.variants }

// prepare has nothing to build: the population is generated inside the
// repetition, which is the point of the workload.
func (w *exportRunner) prepare(int, int) error { return nil }

func (w *exportRunner) rep(x *repCtx) (outcome, error) {
	var out outcome
	path := filepath.Join(w.dir, "export"+campaign.ExportExt(w.format))
	x.m.begin()
	ex, err := exportTo(w.vp(), variantSeed(w.seed, x.variant), w.sz.shards, x, target{path, w.format})
	if err != nil {
		return out, err
	}
	x.m.end()

	sum, size, err := hashFile(path)
	if err != nil {
		return out, err
	}
	out.units, out.bytes = ex.records, size
	out.fp = fmt.Sprintf("%d records, stream %016x", ex.records, sum)
	out.check(ex.records == int64(ex.stats.Records),
		"%s delivered %d records, generator stats say %d", w.format, ex.records, ex.stats.Records)
	return out, nil
}

func (w *exportRunner) stages() []stage {
	vp := w.vp()
	sample := sampler(vp, w.seed, w.sz.shards)
	st := []stage{
		generateStage(vp, w.seed, w.sz.shards),
		streamStage(vp, w.seed, w.sz.shards),
		encodeStage("encode_binary", sample, "binary"),
		flowmodelStage(w.seed, w.sz.flows),
	}
	if w.format == "binary-flate" {
		st = append(st, encodeStage("encode_flate", sample, "binary-flate"))
	}
	return st
}

func (w *exportRunner) layers(d *traceData, unitsPerRep float64, m map[string]float64) []budgetRow {
	gen, handoff := d.nsPer("workload.generate"), d.nsPer("fleet.stream")-d.nsPer("workload.generate")
	m["workload.generate_ns_per_rec"] = gen
	m["workload.generate_allocs_per_rec"] = d.allocsPer("workload.generate")
	m["flowmodel.synthesize_ns_per_flow"] = d.nsPer("flowmodel.synthesize")
	m["fleet.handoff_ns_per_rec"] = handoff
	m["fleet.handoff_allocs_per_rec"] = d.allocsPer("fleet.stream") - d.allocsPer("workload.generate")
	encode := d.nsPer("traces.encode_binary")
	m["traces.encode_binary_ns_per_rec"] = encode
	m["traces.encode_binary_allocs_per_rec"] = d.allocsPer("traces.encode_binary")
	write := ratio(d.ns("file.write"), unitsPerRep)
	m["file.write_ns_per_rec"] = write
	encodeRow := budgetRow{"traces.encode_binary_ns_per_rec", encode}
	if w.format == "binary-flate" {
		fl := d.nsPer("traces.encode_flate")
		m["traces.encode_flate_ns_per_rec"] = fl
		m["traces.compress_ns_per_rec"] = fl - encode
		m["traces.flate_ratio"] = ratio(d.bytes("traces.encode_flate"), d.bytes("traces.encode_binary"))
		encodeRow = budgetRow{"traces.encode_flate_ns_per_rec", fl}
	}
	return []budgetRow{
		{"workload.generate_ns_per_rec", gen},
		{"fleet.handoff_ns_per_rec", handoff},
		encodeRow,
		{"file.write_ns_per_rec", write},
	}
}

// ---------- summarize ----------

type summarizeRunner struct {
	seed int64
	sz   sizes
}

func (w *summarizeRunner) vp() workload.VPConfig { return workload.Home1(w.sz.summarize.scale) }

func (w *summarizeRunner) variants() int { return w.sz.summarize.variants }

func (w *summarizeRunner) prepare(int, int) error { return nil }

func (w *summarizeRunner) rep(x *repCtx) (outcome, error) {
	var out outcome
	x.m.begin()
	sum, stats, err := fleet.Summarize(ctx, w.vp(), variantSeed(w.seed, x.variant),
		fleet.Config{Shards: w.sz.shards, Observer: x.observer})
	if err != nil {
		return out, err
	}
	x.m.end()

	// The rendered summary is the artifact, as dropsim -summary prints it.
	text := renderMetrics(sum.Metrics())
	out.units, out.bytes = int64(stats.Records), int64(len(text))
	out.fp = fmt.Sprintf("%d records\n%s", stats.Records, text)
	out.check(stats.Records > 0 && stats.Shards == w.sz.shards,
		"summarize saw %d records over %d shards", stats.Records, stats.Shards)
	return out, nil
}

func (w *summarizeRunner) stages() []stage {
	vp := w.vp()
	return []stage{
		runShardStage(vp, w.seed, w.sz.shards),
		aggregateStage(sampler(vp, w.seed, w.sz.shards), vp.Days),
		flowmodelStage(w.seed, w.sz.flows),
	}
}

func (w *summarizeRunner) layers(d *traceData, _ float64, m map[string]float64) []budgetRow {
	m["fleet.run_shard_ns_per_rec"] = d.nsPer("fleet.run_shard")
	m["fleet.run_shard_allocs_per_rec"] = d.allocsPer("fleet.run_shard")
	m["fleet.aggregate_ns_per_rec"] = d.nsPer("fleet.aggregate")
	m["flowmodel.synthesize_ns_per_flow"] = d.nsPer("flowmodel.synthesize")
	return []budgetRow{
		{"fleet.run_shard_ns_per_rec", m["fleet.run_shard_ns_per_rec"]},
		{"fleet.aggregate_ns_per_rec", m["fleet.aggregate_ns_per_rec"]},
	}
}

// ---------- campaign ----------

type campaignRunner struct {
	dir  string
	seed int64
	sz   sizes
}

func (w *campaignRunner) spec(variant int) campaign.Spec {
	return campaign.Spec{VP: "home1", Scale: w.sz.campaign.scale, Seed: variantSeed(w.seed, variant),
		Shards: w.sz.shards, Format: "binary", Anonymize: true}
}

func (w *campaignRunner) variants() int { return w.sz.campaign.variants }

func (w *campaignRunner) prepare(int, int) error { return nil }

func (w *campaignRunner) rep(x *repCtx) (out outcome, err error) {
	dir, err := os.MkdirTemp(w.dir, "campaign-")
	if err != nil {
		return out, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()

	cfg := campaign.Config{Spec: w.spec(x.variant), Dir: dir}
	// The generate phase ends at the last shard commit; Observer events
	// arrive concurrently from the job goroutines.
	var mu sync.Mutex
	var lastShard time.Time
	if x.tr != nil {
		cfg.Observer = func(ev campaign.Event) {
			if ev.Stage == "shard" {
				mu.Lock()
				lastShard = time.Now()
				mu.Unlock()
			}
		}
	}
	x.m.begin()
	res, err := campaign.Run(ctx, cfg)
	if err != nil {
		return out, err
	}
	x.m.end()

	if x.tr != nil {
		s := x.m.last()
		x.tr.record(x.parent, "campaign", "generate_phase", s.start, lastShard, int64(res.Records), 0)
		x.tr.record(x.parent, "campaign", "merge_phase", lastShard, s.start.Add(s.wall), int64(res.Records), res.ExportBytes)
		var total int64
		err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			total += info.Size()
			return err
		})
		if err != nil {
			return out, err
		}
		// Not an interval: bytes under the campaign directory, export
		// included, against the export's own bytes.
		x.tr.record(x.parent, "campaign", "dir_bytes", s.start, s.start, res.ExportBytes, total)
	}
	out.units, out.bytes = int64(res.Records), res.ExportBytes
	out.fp = fmt.Sprintf("%d records, stream %s", res.Records, res.StreamHash)
	out.check(res.Records == res.Stats.Records && res.GeneratedShards == w.sz.shards,
		"campaign merged %d records from %d shards, generated %d", res.Records, res.GeneratedShards, res.Stats.Records)
	// Determinism contract point 16: where the straight export of the
	// same population exists (a traced run writes variant 0's as the
	// control), the campaign's export must equal it byte for byte.
	if x.variant != 0 {
		return out, nil
	}
	if sum, _, err := hashFile(w.controlPath()); err == nil {
		out.check(fmt.Sprintf("%016x", sum) == res.StreamHash,
			"campaign stream %s differs from the straight export's %016x", res.StreamHash, sum)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return out, err
	}
	return out, nil
}

// controlPath is where the traced run's control export lands.
func (w *campaignRunner) controlPath() string { return filepath.Join(w.dir, "control.idb") }

// stages holds the campaign's control: the straight export of the same
// population, whose cost is the base of campaign.overhead_x and whose
// bytes every later repetition must reproduce.
func (w *campaignRunner) stages() []stage {
	vp := workload.Home1(w.sz.campaign.scale)
	return []stage{{layer: "rep", name: "export_binary", run: func([]*traces.FlowRecord) (int64, int64, error) {
		ex, err := exportTo(vp, w.seed, w.sz.shards, &repCtx{}, target{w.controlPath(), "binary"})
		return ex.records, 0, err
	}}}
}

func (w *campaignRunner) layers(d *traceData, unitsPerRep float64, m map[string]float64) []budgetRow {
	m["campaign.generate_phase_ns_per_rec"] = d.nsPer("campaign.generate_phase")
	m["campaign.merge_phase_ns_per_rec"] = d.nsPer("campaign.merge_phase")
	m["campaign.write_amplification"] = ratio(d.bytes("campaign.dir_bytes"), d.units("campaign.dir_bytes"))
	m["campaign.overhead_x"] = ratio(ratio(d.ns("rep.plain"), unitsPerRep), d.nsPer("rep.export_binary"))
	return []budgetRow{
		{"campaign.generate_phase_ns_per_rec", m["campaign.generate_phase_ns_per_rec"]},
		{"campaign.merge_phase_ns_per_rec", m["campaign.merge_phase_ns_per_rec"]},
	}
}

// ---------- scenario-backend ----------

type scenarioRunner struct {
	seed int64
	sz   sizes
	// c holds the compiled spec of every variant.
	c []*scenario.Compiled
}

func (w *scenarioRunner) variants() int { return w.sz.scenario.variants }

// spec is the cohort mix internal/bench uses for scenario/cohort-mix: the
// three most behaviourally divergent presets over the Home 1 population.
func (w *scenarioRunner) spec() *scenario.Spec {
	return &scenario.Spec{
		Schema: scenario.Schema,
		Name:   "benchmark-cohort-mix",
		Base:   scenario.BaseSpec{VP: "home1", Scale: w.sz.scenario.scale, Shards: w.sz.scenarioShards},
		Cohorts: []scenario.CohortSpec{
			{Name: "office", Preset: "office-worker", Weight: 0.5},
			{Name: "mobile", Preset: "mobile-intermittent", Weight: 0.3},
			{Name: "bots", Preset: "ci-bot", Weight: 0.2},
		},
	}
}

func (w *scenarioRunner) prepare(batch, batches int) error {
	if w.c == nil {
		w.c = make([]*scenario.Compiled, w.variants())
	}
	for v := batch; v < w.variants(); v += batches {
		c, err := scenario.Compile(w.spec(), variantSeed(w.seed, v))
		if err != nil {
			return err
		}
		w.c[v] = c
	}
	return nil
}

func (w *scenarioRunner) rep(x *repCtx) (outcome, error) {
	var out outcome
	c := *w.c[x.variant]
	c.Fleet.Observer = x.observer
	var reports []*backend.Report

	x.m.begin()
	sp := x.tr.start(x.parent, "scenario", "collect", true)
	res, err := scenario.CollectStream(ctx, &c, 0)
	if err != nil {
		return out, err
	}
	sp.end(int64(res.Stats.Records), 0)
	if x.tr != nil {
		// Not an interval: the heap in use with the arrival set live.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		now := time.Now()
		x.tr.record(x.parent, "scenario", "collect_heap", now, now, 0, int64(ms.HeapInuse))
	}
	reqs := res.Requests
	sp = x.tr.start(x.parent, "backend", "sort", false)
	backend.SortRequests(reqs)
	sp.end(int64(len(reqs)), 0)
	cfg, err := backend.PresetConfig(backend.PresetProvisioned, reqs)
	if err != nil {
		return out, err
	}
	knee, ok := backend.SaturationPoint(cfg, reqs)
	if !ok {
		return out, errors.New("provisioned preset has no bounded class")
	}
	// Below and above the knee: short-queue and deep-queue event loops.
	for _, f := range []float64{0.5, 2} {
		sp = x.tr.start(x.parent, "backend", "scale_load", false)
		load := backend.ScaleLoad(reqs, f*knee)
		sp.end(int64(len(load)), 0)
		sp = x.tr.start(x.parent, "backend", "simulate", true)
		rep, err := backend.Simulate(ctx, cfg, load)
		if err != nil {
			return out, err
		}
		sp.end(rep.Events, 0)
		reports = append(reports, rep)
	}
	x.m.end()

	// A simulator speed-up must leave every simulated statistic unchanged:
	// the full metric rendering of both reports is part of the fingerprint.
	var text strings.Builder
	for _, rep := range reports {
		text.WriteString(renderMetrics(rep.Metrics()))
		out.check(rep.Served+rep.Dropped+rep.Shed == int64(rep.Requests),
			"backend served %d + dropped %d + shed %d of %d requests", rep.Served, rep.Dropped, rep.Shed, rep.Requests)
	}
	// The artifact is the arrival set CollectStream materialises for the
	// backend model.
	out.units, out.bytes = int64(res.Stats.Records), int64(len(reqs))*int64(unsafe.Sizeof(backend.Request{}))
	out.fp = fmt.Sprintf("%d records, %d arrivals, stream %016x\n%s",
		res.Stats.Records, len(reqs), res.StreamHash, text.String())
	return out, nil
}

func (w *scenarioRunner) stages() []stage {
	return []stage{
		encodeStage("encode_csv", sampler(w.c[0].VP, w.c[0].Seed, w.c[0].Fleet.Shards), "csv"),
		{layer: "scenario", name: "compile", run: func([]*traces.FlowRecord) (int64, int64, error) {
			_, err := scenario.Compile(w.spec(), w.seed)
			return 1, 0, err
		}},
	}
}

func (w *scenarioRunner) layers(d *traceData, unitsPerRep float64, m map[string]float64) []budgetRow {
	m["traces.encode_csv_ns_per_rec"] = d.nsPer("traces.encode_csv")
	m["scenario.compile_ms"] = d.ns("scenario.compile") / 1e6
	m["scenario.collect_ns_per_rec"] = d.nsPer("scenario.collect")
	m["scenario.collect_allocs_per_rec"] = d.allocsPer("scenario.collect")
	m["scenario.collect_heap_mb"] = d.bytes("scenario.collect_heap") / (1 << 20)
	m["backend.sort_ns_per_req"] = d.nsPer("backend.sort")
	m["backend.scale_load_ns_per_req"] = d.nsPer("backend.scale_load")
	m["backend.simulate_ns_per_event"] = d.nsPer("backend.simulate")
	m["backend.simulate_allocs_per_event"] = d.allocsPer("backend.simulate")
	var rows []budgetRow
	for _, key := range []string{"scenario.collect", "backend.sort", "backend.scale_load", "backend.simulate"} {
		rows = append(rows, budgetRow{key + " span", ratio(d.ns(key), unitsPerRep)})
	}
	return rows
}

// ---------- read-archive, read-csv ----------

// recordReader is what the three trace readers share.
type recordReader interface {
	Read() (*traces.FlowRecord, error)
}

// recKey identifies a record well enough to tell two apart.
type recKey struct {
	first, last        time.Duration
	up, down           int64
	client, server     uint32
	cport, sport       uint16
	sni                string
	notifyHost         uint64
	pktsUp, rttSamples int
}

func keyOf(r *traces.FlowRecord) recKey {
	return recKey{r.FirstPacket, r.LastPacket, r.BytesUp, r.BytesDown, uint32(r.Client), uint32(r.Server),
		r.ClientPort, r.ServerPort, r.SNI, r.NotifyHost, r.PktsUp, r.RTTSamples}
}

// passResult is what one sequential decode saw.
type passResult struct {
	records, volume int64
	// fold mixes every record's first-packet time in order, so two decodes
	// of one stream can be told to agree without keeping either.
	fold uint64
	// picks holds the records at the requested ordinals.
	picks map[int64]recKey
}

// readAll decodes r to EOF, keeping the records at ords (sorted).
func readAll(r recordReader, ords []int64) (passResult, error) {
	res := passResult{picks: make(map[int64]recKey, len(ords))}
	next := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		for next < len(ords) && ords[next] == res.records {
			res.picks[ords[next]] = keyOf(rec)
			next++
		}
		res.records++
		res.volume += rec.BytesUp + rec.BytesDown
		res.fold = res.fold*0x100000001b3 ^ uint64(rec.FirstPacket)
	}
}

// decodePass opens path and decodes it to EOF under a span.
func decodePass(x *repCtx, name, path string, ords []int64, newReader func(*os.File) recordReader) (passResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return passResult{}, err
	}
	defer f.Close()
	sp := x.tr.start(x.parent, "traces", name, true)
	res, err := readAll(newReader(f), ords)
	sp.end(res.records, 0)
	return res, err
}

// written is what set-up noted when it wrote an input file.
type written struct {
	path            string
	size            int64
	records, volume int64
}

// writeInputs exports a population to every target in one pass and notes
// what went into each.
func writeInputs(vp workload.VPConfig, seed int64, shards int, targets ...target) ([]written, error) {
	ex, err := exportTo(vp, seed, shards, &repCtx{}, targets...)
	if err != nil {
		return nil, err
	}
	var ins []written
	for _, t := range targets {
		info, err := os.Stat(t.path)
		if err != nil {
			return nil, err
		}
		ins = append(ins, written{path: t.path, size: info.Size(), records: ex.records, volume: ex.volume})
	}
	return ins, nil
}

// checkAgainst verifies a decode reproduced what set-up wrote.
func (p passResult) checkAgainst(out *outcome, what string, in written) {
	out.check(p.records == in.records && p.volume == in.volume,
		"%s decoded %d records / %d payload bytes, set-up wrote %d / %d",
		what, p.records, p.volume, in.records, in.volume)
}

// archiveInput is one variant's pair of files and where to seek in them.
type archiveInput struct {
	binary, flate written
	// seekAt lists the seek targets in visiting order, sorted the same
	// ordinals ascending for the sequential passes.
	seekAt, sorted []int64
}

type archiveRunner struct {
	dir    string
	seed   int64
	sz     sizes
	inputs []archiveInput
}

func (w *archiveRunner) variants() int { return w.sz.archive.variants }

func (w *archiveRunner) prepare(batch, batches int) error {
	vp := workload.Home1(w.sz.archive.scale)
	if w.inputs == nil {
		w.inputs = make([]archiveInput, w.variants())
	}
	for v := batch; v < w.variants(); v += batches {
		seed := variantSeed(w.seed, v)
		files, err := writeInputs(vp, seed, w.sz.shards,
			target{filepath.Join(w.dir, fmt.Sprintf("archive-%d.idb", v)), "binary"},
			target{filepath.Join(w.dir, fmt.Sprintf("archive-%d.idbf", v)), "binary-flate"})
		if err != nil {
			return err
		}
		in := archiveInput{binary: files[0], flate: files[1]}
		span := in.binary.records - int64(w.sz.seekLen)
		if span < 1 {
			return fmt.Errorf("read-archive population of %d records is too small to seek in", in.binary.records)
		}
		rng := rand.New(rand.NewSource(seed))
		in.seekAt = make([]int64, max(1, int(in.binary.records)/w.sz.seekEvery))
		for i := range in.seekAt {
			in.seekAt[i] = rng.Int63n(span)
		}
		in.sorted = slices.Clone(in.seekAt)
		slices.Sort(in.sorted)
		w.inputs[v] = in
	}
	return nil
}

func (w *archiveRunner) rep(x *repCtx) (outcome, error) {
	var out outcome
	in := &w.inputs[x.variant]
	x.m.begin()
	bin, err := decodePass(x, "decode_binary", in.binary.path, in.sorted,
		func(f *os.File) recordReader { return traces.NewBinaryReader(f) })
	if err != nil {
		return out, err
	}
	fl, err := decodePass(x, "decode_flate", in.flate.path, in.sorted,
		func(f *os.File) recordReader { return traces.NewFlateReader(f) })
	if err != nil {
		return out, err
	}
	firsts, seekReads, err := w.seekPass(x, in)
	if err != nil {
		return out, err
	}
	x.m.end()

	bin.checkAgainst(&out, "binary", in.binary)
	fl.checkAgainst(&out, "flate", in.flate)
	out.check(bin.fold == fl.fold, "binary and flate decodes disagree (fold %016x vs %016x)", bin.fold, fl.fold)
	for i, at := range in.seekAt {
		out.check(firsts[i] == bin.picks[at] && firsts[i] == fl.picks[at],
			"record after seek to %d differs from the sequential pass", at)
	}
	out.units = bin.records + fl.records + seekReads
	out.bytes = in.binary.size + in.flate.size
	out.fp = fmt.Sprintf("%d records, %d payload bytes, fold %016x, %d seek reads", bin.records, bin.volume, bin.fold, seekReads)
	return out, nil
}

// seekPass seeks to every target in turn and reads seekLen records after
// each, returning the first record of each landing.
func (w *archiveRunner) seekPass(x *repCtx, in *archiveInput) (firsts []recKey, reads int64, err error) {
	f, err := os.Open(in.flate.path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sp := x.tr.start(x.parent, "traces", "seek_flate", false)
	r := traces.NewFlateReader(f)
	for _, at := range in.seekAt {
		if err := r.SeekToRecord(at); err != nil {
			return nil, 0, err
		}
		for i := 0; i < w.sz.seekLen; i++ {
			rec, err := r.Read()
			if err != nil {
				return nil, 0, fmt.Errorf("reading record %d after seek to %d: %w", i, at, err)
			}
			if i == 0 {
				firsts = append(firsts, keyOf(rec))
			}
			reads++
		}
	}
	sp.end(int64(len(in.seekAt)), 0)
	return firsts, reads, nil
}

func (w *archiveRunner) stages() []stage { return nil }

func (w *archiveRunner) layers(d *traceData, unitsPerRep float64, m map[string]float64) []budgetRow {
	m["traces.decode_binary_ns_per_rec"] = d.nsPer("traces.decode_binary")
	m["traces.decode_binary_allocs_per_rec"] = d.allocsPer("traces.decode_binary")
	m["traces.decode_flate_ns_per_rec"] = d.nsPer("traces.decode_flate")
	m["traces.decode_flate_allocs_per_rec"] = d.allocsPer("traces.decode_flate")
	m["traces.seek_flate_us_per_seek"] = d.nsPer("traces.seek_flate") / 1e3
	m["traces.flate_ratio"] = ratio(float64(w.inputs[0].flate.size), float64(w.inputs[0].binary.size))
	var rows []budgetRow
	for _, key := range []string{"traces.decode_binary", "traces.decode_flate", "traces.seek_flate"} {
		rows = append(rows, budgetRow{key + " span", ratio(d.ns(key), unitsPerRep)})
	}
	return rows
}

type csvRunner struct {
	dir  string
	seed int64
	sz   sizes
	// csv holds every variant's input file.
	csv []written
}

func (w *csvRunner) vp() workload.VPConfig { return workload.Home1(w.sz.csv.scale) }

func (w *csvRunner) variants() int { return w.sz.csv.variants }

func (w *csvRunner) prepare(batch, batches int) error {
	if w.csv == nil {
		w.csv = make([]written, w.variants())
	}
	for v := batch; v < w.variants(); v += batches {
		files, err := writeInputs(w.vp(), variantSeed(w.seed, v), w.sz.shards,
			target{filepath.Join(w.dir, fmt.Sprintf("export-%d.csv", v)), "csv"})
		if err != nil {
			return err
		}
		w.csv[v] = files[0]
	}
	return nil
}

func (w *csvRunner) rep(x *repCtx) (outcome, error) {
	var out outcome
	in := w.csv[x.variant]
	x.m.begin()
	res, err := decodePass(x, "decode_csv", in.path, nil,
		func(f *os.File) recordReader { return traces.NewReader(f) })
	if err != nil {
		return out, err
	}
	x.m.end()

	res.checkAgainst(&out, "csv", in)
	out.units, out.bytes = res.records, in.size
	out.fp = fmt.Sprintf("%d records, %d payload bytes, fold %016x", res.records, res.volume, res.fold)
	return out, nil
}

func (w *csvRunner) stages() []stage {
	return []stage{encodeStage("encode_csv", sampler(w.vp(), w.seed, w.sz.shards), "csv")}
}

func (w *csvRunner) layers(d *traceData, _ float64, m map[string]float64) []budgetRow {
	m["traces.encode_csv_ns_per_rec"] = d.nsPer("traces.encode_csv")
	m["traces.decode_csv_ns_per_rec"] = d.nsPer("traces.decode_csv")
	m["traces.decode_csv_allocs_per_rec"] = d.allocsPer("traces.decode_csv")
	return []budgetRow{{"traces.decode_csv_ns_per_rec", m["traces.decode_csv_ns_per_rec"]}}
}

// ---------- paper-repro ----------

// paperResults is how many tables and figures the paper has; the
// selection "table*", "figure*" must render exactly these.
const paperResults = 26

// packetLabIDs are the experiments on the packet path
// (dropbox+tcpsim+tlssim+tstat+netem); every other one renders from the
// generated populations.
var packetLabIDs = map[string]bool{"figure1": true, "figure9": true, "figure10": true, "figure19": true}

type paperRunner struct {
	dir  string
	seed int64
	sz   sizes
}

func (w *paperRunner) variants() int { return w.sz.paperVariants }

func (w *paperRunner) prepare(int, int) error { return nil }

func (w *paperRunner) rep(x *repCtx) (out outcome, err error) {
	dir, err := os.MkdirTemp(w.dir, "results-")
	if err != nil {
		return out, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
	}()

	// Quick scale: the default packet labs alone take over five seconds,
	// more than a run measures for.
	opts := []insidedropbox.Option{
		insidedropbox.WithQuick(),
		insidedropbox.WithExperiments("table*", "figure*"),
		insidedropbox.WithResultsDir(dir),
	}
	if x.tr != nil {
		// Progress is never called concurrently.
		opts = append(opts, insidedropbox.WithProgress(func(p insidedropbox.Progress) {
			if !p.Done || p.ShardEvent() {
				return
			}
			name := "population"
			if packetLabIDs[p.ID] {
				name = "packet_labs"
			}
			now := time.Now()
			x.tr.record(x.parent, "experiments", name, now.Add(-p.Elapsed), now, 1, 0)
		}))
	}
	x.m.begin()
	results, err := insidedropbox.Run(ctx, insidedropbox.Spec{Seed: variantSeed(w.seed, x.variant)}, opts...)
	if err != nil {
		return out, err
	}
	x.m.end()

	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%s\n%s\n%s\n", r.ID, r.Title, r.Text)
	}
	texts, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return out, err
	}
	for _, path := range texts {
		info, err := os.Stat(path)
		if err != nil {
			return out, err
		}
		out.bytes += info.Size()
	}
	out.units = int64(len(results))
	out.fp = fmt.Sprintf("%d results, text %016x", len(results), h.Sum64())
	out.check(len(results) == paperResults, "rendered %d results, the paper has %d", len(results), paperResults)
	return out, nil
}

func (w *paperRunner) stages() []stage { return nil }

func (w *paperRunner) layers(d *traceData, unitsPerRep float64, m map[string]float64) []budgetRow {
	m["experiments.packet_labs_s"] = d.ns("experiments.packet_labs") / 1e9
	m["experiments.population_s"] = d.ns("experiments.population") / 1e9
	return []budgetRow{
		{"experiments.packet_labs span", ratio(d.ns("experiments.packet_labs"), unitsPerRep)},
		{"experiments.population span", ratio(d.ns("experiments.population"), unitsPerRep)},
	}
}
