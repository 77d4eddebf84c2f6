// Package bench is the repo's tracked performance harness: a fixed
// catalogue of pinned generation, aggregation and serialization workloads
// whose measurements are recorded as machine-readable BENCH_<rev>.json
// files at the repository root, so every PR has a baseline to beat and a
// regression gate to pass.
//
// The harness measures wall-clock throughput (records/sec, MB/sec) and
// allocator pressure (allocs and allocated bytes per record, via
// runtime.MemStats deltas around each scenario) plus the process peak RSS
// (VmHWM on Linux). Scenario populations and seeds are constants: two
// reports are comparable if and only if their scenario names and Quick
// flags match — Compare enforces exactly that.
//
// Scenarios deliberately span the whole record pipeline: raw single-shard
// generation, the 8-shard fleet aggregation path, the what-if engine, both
// trace serializations, the end-to-end sharded export, and the
// discrete-event backend simulation (events/sec through its load knee). See
// PERFORMANCE.md for the catalogue, the JSON schema, and the workflow for
// recording and comparing runs across PRs.
package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
	scenariopkg "insidedropbox/internal/scenario"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Schema is the BENCH_*.json schema version.
const Schema = 1

// benchSeed pins every scenario's campaign seed.
const benchSeed = 2012

// ScenarioResult is one measured workload.
type ScenarioResult struct {
	Name    string `json:"name"`
	Records int64  `json:"records"`
	// Bytes is the serialized output volume, for scenarios that write.
	Bytes   int64   `json:"bytes,omitempty"`
	Seconds float64 `json:"seconds"`

	RecordsPerSec float64 `json:"records_per_sec"`
	// MBPerSec is output megabytes per second (only when Bytes > 0).
	MBPerSec            float64 `json:"mb_per_sec,omitempty"`
	AllocsPerRecord     float64 `json:"allocs_per_record"`
	AllocBytesPerRecord float64 `json:"alloc_bytes_per_record"`

	// GOMAXPROCS is the parallelism the scenario ran at — per scenario
	// because throughput on the sharded scenarios scales with it, so
	// cross-report deltas are only meaningful when it matches. Omitted
	// (0) in reports recorded before it was tracked.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// PeakRSSBytes is the process high-water RSS after this scenario.
	// It is cumulative across the run (the kernel counter never drops),
	// so the first scenario to raise it is the one that cost the memory.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// Report is one recorded harness run — the content of a BENCH_<rev>.json.
type Report struct {
	Schema         int    `json:"schema"`
	Rev            string `json:"rev"`
	RecordedAtUnix int64  `json:"recorded_at_unix"`
	GoVersion      string `json:"go"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Quick          bool   `json:"quick"`
	// PeakRSSBytes is the process high-water RSS after all scenarios ran
	// (0 where /proc/self/status is unavailable). It is a whole-process
	// figure, so it reflects the largest scenario, not a sum.
	PeakRSSBytes int64            `json:"peak_rss_bytes"`
	Scenarios    []ScenarioResult `json:"scenarios"`
}

// Options configures a harness run.
type Options struct {
	// Quick shrinks every scenario to CI-smoke scale.
	Quick bool
	// Rev labels the report (git short SHA or a PR label).
	Rev string
	// Filter, when non-nil, selects scenarios by name.
	Filter func(name string) bool
	// Log, when non-nil, receives one line per scenario as it completes.
	Log io.Writer
}

// scenario is one catalogue entry. run executes the workload and returns
// the records processed and bytes written (0 when not a serializer);
// setup, when present, prepares inputs outside the measured region. The
// context is the harness run's: scenarios pass it to the engine entry
// points so an interrupted bench tears down at shard granularity.
type scenario struct {
	name  string
	setup func(quick bool)
	// procs, when > 0, forces GOMAXPROCS for the measured region (restored
	// afterwards) — the multi-core campaign scenarios pin 1 vs 8 so their
	// ratio measures fan-out speedup, not whatever the host happens to be.
	procs int
	run   func(ctx context.Context, quick bool) (records, bytes int64)
}

// catalogue returns the fixed scenario set, in execution order.
func catalogue() []scenario {
	return []scenario{
		{name: "generate/home1-1shard", run: runGenerate},
		{name: "fleet/home1-8shard", run: runFleet8},
		{name: "whatif/campus1-2profiles", run: runWhatIf},
		{name: "serialize/csv", setup: warmSerializeDataset, run: runSerialize(mustFormat("csv"), inlineEncode)},
		{name: "serialize/binary", setup: warmSerializeDataset, run: runSerialize(mustFormat("binary"), inlineEncode)},
		{name: "serialize/binary-parallel", setup: warmSerializeDataset, run: runSerialize(mustFormat("binary"), pooledEncode)},
		{name: "serialize/flate", setup: warmSerializeDataset, run: runSerialize(mustFormat("binary-flate"), pooledEncode)},
		{name: "export/home1-8shard-binary", run: runExport(mustFormat("binary"), inlineEncode)},
		{name: "export/home1-8shard-binary-parallel", run: runExport(mustFormat("binary"), pooledEncode)},
		{name: "backend/saturation", setup: warmBackendArrivals, run: runBackendSaturation},
		{name: "scenario/cohort-mix", setup: warmScenarioCompiled, run: runScenarioCohortMix},
		{name: "campaign/home1-8shard-1core", procs: 1, run: runCampaign1Core},
		{name: "campaign/home1-8shard-multicore", procs: 8, run: runCampaignMultiCore},
	}
}

// ScenarioNames lists the catalogue in order (for CLI help and docs).
func ScenarioNames() []string {
	cat := catalogue()
	names := make([]string, len(cat))
	for i, s := range cat {
		names[i] = s.name
	}
	return names
}

// Run executes the catalogue and assembles the report. Cancelling ctx
// stops between scenarios, between a scenario's repetitions, and
// mid-repetition at fleet-shard granularity on the sharded scenarios;
// the partial report covers the scenarios that completed.
func Run(ctx context.Context, opts Options) *Report {
	rep := &Report{
		Schema:         Schema,
		Rev:            opts.Rev,
		RecordedAtUnix: time.Now().Unix(),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Quick:          opts.Quick,
	}
	for _, sc := range catalogue() {
		if opts.Filter != nil && !opts.Filter(sc.name) {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		res := measure(ctx, sc, opts.Quick)
		if ctx.Err() != nil {
			// The scenario was interrupted mid-workload: its counts and
			// rates are partial garbage, so keep it out of the report
			// (the contract is "scenarios that completed").
			break
		}
		rep.Scenarios = append(rep.Scenarios, res)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "%-28s %9.0f rec/s  %6.2f allocs/rec  %8.1f B-alloc/rec%s\n",
				res.Name, res.RecordsPerSec, res.AllocsPerRecord, res.AllocBytesPerRecord,
				mbCol(res))
		}
	}
	rep.PeakRSSBytes = peakRSS()
	return rep
}

func mbCol(r ScenarioResult) string {
	if r.MBPerSec == 0 {
		return ""
	}
	return fmt.Sprintf("  %8.1f MB/s", r.MBPerSec)
}

// measure runs one scenario under MemStats bracketing; setup work happens
// before the bracket so only the workload itself is measured.
func measure(ctx context.Context, sc scenario, quick bool) ScenarioResult {
	if sc.setup != nil {
		sc.setup(quick)
	}
	if sc.procs > 0 {
		old := runtime.GOMAXPROCS(sc.procs)
		defer runtime.GOMAXPROCS(old)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	records, bytes := sc.run(ctx, quick)
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)

	res := ScenarioResult{
		Name:    sc.name,
		Records: records,
		Bytes:   bytes,
		Seconds: dt.Seconds(),
	}
	if records > 0 && dt > 0 {
		res.RecordsPerSec = float64(records) / dt.Seconds()
		res.AllocsPerRecord = float64(m1.Mallocs-m0.Mallocs) / float64(records)
		res.AllocBytesPerRecord = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(records)
	}
	if bytes > 0 && dt > 0 {
		res.MBPerSec = float64(bytes) / 1e6 / dt.Seconds()
	}
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	res.PeakRSSBytes = peakRSS()
	mPeakRSS.Set(res.PeakRSSBytes)
	mScenarioSeconds.Observe(dt)
	mScenarios.Inc()
	return res
}

// Harness telemetry: the peak-RSS gauge tracks the scenario bracket in
// measure, so a -telemetry-interval run shows which scenario raised the
// high-water mark as it happens.
var (
	mScenarios       = telemetry.NewCounter("bench.scenarios")
	mScenarioSeconds = telemetry.NewHist("bench.scenario_seconds")
	mPeakRSS         = telemetry.NewGauge("bench.peak_rss_bytes")
)

// ---------- the scenario catalogue ----------

// scalesFor returns (population scale, repetitions) for the generation
// scenarios.
func scalesFor(quick bool) (float64, int) {
	if quick {
		return 0.02, 2
	}
	return 0.2, 5
}

// runGenerate measures raw single-shard generation: the legacy sequential
// hot path, streaming into a counting sink.
func runGenerate(ctx context.Context, quick bool) (int64, int64) {
	scale, reps := scalesFor(quick)
	cfg := workload.Home1(scale)
	var n int64
	for i := 0; i < reps; i++ {
		if ctx.Err() != nil {
			break
		}
		workload.GenerateShard(cfg, benchSeed, 0, 1, func(r *traces.FlowRecord) { n++ })
	}
	return n, 0
}

// runFleet8 measures the sharded streaming aggregation path: 8 shards
// folded into a fleet.Summary.
func runFleet8(ctx context.Context, quick bool) (int64, int64) {
	scale, reps := scalesFor(quick)
	cfg := workload.Home1(scale)
	var n int64
	for i := 0; i < reps; i++ {
		_, stats, err := fleet.Summarize(ctx, cfg, benchSeed, fleet.Config{Shards: 8})
		if err != nil {
			break
		}
		n += int64(stats.Records)
	}
	return n, 0
}

// runWhatIf measures the capability what-if engine: one population
// replayed under the two historical Dropbox profiles.
func runWhatIf(ctx context.Context, quick bool) (int64, int64) {
	scale := 0.5
	if quick {
		scale = 0.1
	}
	profiles, err := capability.Parse("dropbox-1.2.52,dropbox-1.4.0")
	if err != nil {
		panic(err)
	}
	rep, err := experiments.WhatIfConfig{
		Seed:     benchSeed,
		VP:       workload.Campus1(scale),
		Fleet:    fleet.Config{Shards: 4},
		Profiles: profiles,
	}.Run(ctx)
	if err != nil {
		return 0, 0
	}
	var n int64
	for _, run := range rep.Runs {
		n += int64(run.Stats.Records)
	}
	return n, 0
}

// serializeCache memoizes the pinned dataset the serialization scenarios
// write, per scale, so generation happens once — in the setup phase,
// outside the measured region.
var serializeCache = map[bool]*workload.Dataset{}

// serializeDataset returns the pinned dataset and repetition count of the
// serialization scenarios.
func serializeDataset(quick bool) (*workload.Dataset, int) {
	scale, reps := 0.05, 10
	if quick {
		scale, reps = 0.02, 2
	}
	ds := serializeCache[quick]
	if ds == nil {
		ds = workload.Generate(workload.Home1(scale), benchSeed)
		serializeCache[quick] = ds
	}
	return ds, reps
}

// warmSerializeDataset is the serialization scenarios' setup hook.
func warmSerializeDataset(quick bool) { serializeDataset(quick) }

// countWriter counts bytes and discards them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// The worker counts the serialization scenarios hand the trace-format
// table: inlineEncode pins the zero-goroutine path, pooledEncode asks for
// the table's default (GOMAXPROCS workers — at GOMAXPROCS=1 the inline
// path again).
const inlineEncode, pooledEncode = 1, 0

// mustFormat resolves a scenario's format as the catalogue is built.
func mustFormat(name string) traces.Format {
	f, err := traces.LookupFormat(name)
	if err != nil {
		panic(err)
	}
	return f
}

// runSerialize measures one format's writer against a pre-generated
// in-memory dataset, the same one for every format. serialize/binary and
// serialize/binary-parallel emit identical bytes, so the rec/s delta
// between them is pure encoding parallelism; serialize/flate bytes are
// post-compression, so its MB/s is not comparable to the others — rec/s
// is the cross-format axis.
func runSerialize(f traces.Format, workers int) func(context.Context, bool) (int64, int64) {
	return func(ctx context.Context, quick bool) (int64, int64) {
		ds, reps := serializeDataset(quick)
		var cw countWriter
		var n int64
		for i := 0; i < reps; i++ {
			if ctx.Err() != nil {
				break
			}
			w := f.New(&cw, true, workers) // anonymizing, as dropsim exports
			for _, r := range ds.Records {
				if err := w.Write(r); err != nil {
					panic(err)
				}
				n++
			}
			if err := w.Flush(); err != nil {
				panic(err)
			}
		}
		return n, cw.n
	}
}

// runExport measures the flagship end-to-end path: 8-shard ordered
// streaming through the Records iterator straight into the format's
// writer, nothing materialized. With pooledEncode it is the configuration
// dropsim -format=binary uses by default — the scenario that shows
// serialization keeping up with generation on multi-core machines (the
// bytes are identical either way by the determinism contract).
func runExport(f traces.Format, workers int) func(context.Context, bool) (int64, int64) {
	return func(ctx context.Context, quick bool) (int64, int64) {
		scale, reps := scalesFor(quick)
		reps = (reps + 1) / 2
		cfg := workload.Home1(scale)
		var cw countWriter
		var n int64
		for i := 0; i < reps; i++ {
			if ctx.Err() != nil {
				break
			}
			w := f.New(&cw, true, workers) // anonymizing, as dropsim exports
			for r, err := range fleet.Records(ctx, cfg, benchSeed, fleet.Config{Shards: 8}) {
				if err != nil {
					return n, cw.n
				}
				if err := w.Write(r); err != nil {
					panic(err)
				}
				n++
			}
			if err := w.Flush(); err != nil {
				panic(err)
			}
		}
		return n, cw.n
	}
}

// arrivalsCache memoizes the backend arrival set per scale, so the fleet
// collection happens once — in the setup phase, outside the measured
// region (the event loop, not arrival derivation, is what this scenario
// tracks).
var arrivalsCache = map[bool][]backend.Request{}

// backendArrivals returns the pinned backend arrival set of the
// backend/saturation scenario.
func backendArrivals(quick bool) []backend.Request {
	reqs := arrivalsCache[quick]
	if reqs == nil {
		scale, _ := scalesFor(quick)
		var err error
		reqs, _, err = backend.CollectArrivals(context.Background(),
			workload.Home1(scale), benchSeed, fleet.Config{Shards: 8})
		if err != nil {
			panic(err)
		}
		arrivalsCache[quick] = reqs
	}
	return reqs
}

// warmBackendArrivals is the backend scenario's setup hook.
func warmBackendArrivals(quick bool) { backendArrivals(quick) }

// runBackendSaturation measures the discrete-event backend simulation:
// the provisioned deployment replayed below and above its saturation
// knee (the two regimes exercise short-queue and deep-queue event-loop
// behavior). Records here are processed simulation events, so
// records_per_sec is the event-loop throughput in events/sec.
func runBackendSaturation(ctx context.Context, quick bool) (int64, int64) {
	reqs := backendArrivals(quick)
	cfg, err := backend.PresetConfig(backend.PresetProvisioned, reqs)
	if err != nil {
		panic(err)
	}
	knee, ok := backend.SaturationPoint(cfg, reqs)
	if !ok {
		panic("bench: provisioned preset has no bounded class")
	}
	reps := 4
	if quick {
		reps = 2
	}
	var events int64
	for i := 0; i < reps; i++ {
		for _, f := range []float64{0.5, 2} {
			rep, err := backend.Simulate(ctx, cfg, backend.ScaleLoad(reqs, f*knee))
			if err != nil {
				return events, 0
			}
			events += rep.Events
		}
	}
	return events, 0
}

// scenarioCache memoizes the compiled cohort-mix spec per scale; the
// compilation (cheap, pure) happens in the setup phase so the measured
// region is the scenario streaming path alone.
var scenarioCache = map[bool]*scenariopkg.Compiled{}

// scenarioCompiled returns the pinned cohort-mix scenario of the
// scenario/cohort-mix benchmark: the three most behaviorally divergent
// presets over the Home 1 population, 8 shards.
func scenarioCompiled(quick bool) *scenariopkg.Compiled {
	c := scenarioCache[quick]
	if c == nil {
		scale, _ := scalesFor(quick)
		sp := &scenariopkg.Spec{
			Schema: scenariopkg.Schema,
			Name:   "bench-cohort-mix",
			Base:   scenariopkg.BaseSpec{VP: "home1", Scale: scale, Shards: 8},
			Cohorts: []scenariopkg.CohortSpec{
				{Name: "office", Preset: "office-worker", Weight: 0.5},
				{Name: "mobile", Preset: "mobile-intermittent", Weight: 0.3},
				{Name: "bots", Preset: "ci-bot", Weight: 0.2},
			},
		}
		var err error
		c, err = scenariopkg.Compile(sp, benchSeed)
		if err != nil {
			panic(err)
		}
		scenarioCache[quick] = c
	}
	return c
}

// warmScenarioCompiled is the scenario benchmark's setup hook.
func warmScenarioCompiled(quick bool) { scenarioCompiled(quick) }

// runScenarioCohortMix measures the declarative-scenario streaming path:
// cohort-overlaid generation across 8 shards, per-shard CSV
// fingerprinting and backend-arrival collection in one pass — the full
// CollectStream pipeline the scenario/* experiments run on.
func runScenarioCohortMix(ctx context.Context, quick bool) (int64, int64) {
	c := scenarioCompiled(quick)
	_, reps := scalesFor(quick)
	var n int64
	for i := 0; i < reps; i++ {
		res, err := scenariopkg.CollectStream(ctx, c, 0)
		if err != nil {
			break
		}
		n += int64(res.Stats.Records)
	}
	return n, 0
}

// runCampaign measures the checkpointing campaign runner end to end —
// shard-range fan-out, per-shard checkpoint commits, and the canonical-
// order merge into a binary export — at a pinned job count. Each rep runs
// in a fresh directory so checkpoint resume never short-circuits the
// measured work. The 1-core and multicore variants differ only in jobs
// and the forced GOMAXPROCS (see the scenario's procs field); their
// rec/s ratio is the fan-out speedup PERFORMANCE.md tracks.
func runCampaign(ctx context.Context, quick bool, jobs int) (int64, int64) {
	scale, reps := scalesFor(quick)
	var recs, bytes int64
	for i := 0; i < reps; i++ {
		if ctx.Err() != nil {
			break
		}
		dir, err := os.MkdirTemp("", "bench-campaign-")
		if err != nil {
			panic(err)
		}
		res, err := campaign.Run(ctx, campaign.Config{
			Spec: campaign.Spec{VP: "home1", Scale: scale, Seed: benchSeed, Shards: 8, Format: "binary"},
			Dir:  dir,
			Jobs: jobs,
		})
		if err == nil {
			recs += int64(res.Records)
			bytes += res.ExportBytes
		}
		os.RemoveAll(dir)
		if err != nil {
			break
		}
	}
	return recs, bytes
}

func runCampaign1Core(ctx context.Context, quick bool) (int64, int64) {
	return runCampaign(ctx, quick, 1)
}

func runCampaignMultiCore(ctx context.Context, quick bool) (int64, int64) {
	return runCampaign(ctx, quick, 8)
}

// ---------- persistence, discovery, comparison ----------

// FileName returns the canonical report file name for a revision label.
func FileName(rev string) string { return "BENCH_" + rev + ".json" }

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Save writes the report to path.
func (r *Report) Save(path string) error {
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Load parses one BENCH_*.json.
func Load(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(bufio.NewReader(f)).Decode(&rep); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %d, want %d", path, rep.Schema, Schema)
	}
	return &rep, nil
}

// FindLatest returns the most recently recorded BENCH_*.json in dir (by
// recorded_at_unix, ties broken by file name), or "" when none exist.
// Reports whose Quick flag matches the requested scale are preferred —
// allocs-per-record carries scale-dependent warm-up amortization, so a
// quick CI run should gate against the committed quick reference — with
// any-scale reports as the fallback.
func FindLatest(dir string, quick bool) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	sort.Strings(matches)
	best, bestAt := "", int64(-1)
	anyBest, anyAt := "", int64(-1)
	for _, m := range matches {
		rep, err := Load(m)
		if err != nil {
			continue // unreadable or foreign-schema files never win
		}
		if rep.RecordedAtUnix >= anyAt {
			anyBest, anyAt = m, rep.RecordedAtUnix
		}
		if rep.Quick == quick && rep.RecordedAtUnix >= bestAt {
			best, bestAt = m, rep.RecordedAtUnix
		}
	}
	if best == "" {
		best = anyBest
	}
	return best, nil
}

// Scenario returns a report's scenario by name (nil if absent).
func (r *Report) Scenario(name string) *ScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// Compare checks current against a baseline report and returns one
// violation string per scenario whose allocs-per-record regressed beyond
// maxAllocsRatio (e.g. 2 fails anything worse than 2x the baseline).
// Scenarios missing from either side are skipped: the gate is
// timing-independent, so it is safe on noisy CI machines. A baseline
// recorded at a different Quick scale is compared all the same —
// allocs-per-record is nearly scale-invariant — but the mismatch is
// called out in the returned notes.
func Compare(current, baseline *Report, maxAllocsRatio float64) (violations, notes []string) {
	if current.Quick != baseline.Quick {
		notes = append(notes, fmt.Sprintf(
			"note: comparing quick=%v run against quick=%v baseline %s",
			current.Quick, baseline.Quick, baseline.Rev))
	}
	for _, cur := range current.Scenarios {
		base := baseline.Scenario(cur.Name)
		if base == nil || base.Records == 0 || cur.Records == 0 {
			continue
		}
		if base.AllocsPerRecord <= 0 {
			continue
		}
		ratio := cur.AllocsPerRecord / base.AllocsPerRecord
		if ratio > maxAllocsRatio {
			violations = append(violations, fmt.Sprintf(
				"%s: %.2f allocs/record vs baseline %.2f (%.2fx > %.2fx limit, baseline %s)",
				cur.Name, cur.AllocsPerRecord, base.AllocsPerRecord, ratio,
				maxAllocsRatio, baseline.Rev))
		} else {
			notes = append(notes, fmt.Sprintf("%s: %.2fx baseline allocs/record",
				cur.Name, ratio))
		}
	}
	return violations, notes
}

// DeltaSummary renders one line per scenario present in both reports,
// comparing throughput and allocator pressure against the baseline —
// the human-readable companion to Compare's pass/fail gate. Timing
// deltas are annotated, not gated: wall-clock noise on shared CI boxes
// makes them advisory. A GOMAXPROCS mismatch is flagged on the line,
// since parallel-scenario throughput is not comparable across it.
func DeltaSummary(current, baseline *Report) []string {
	var lines []string
	for _, cur := range current.Scenarios {
		base := baseline.Scenario(cur.Name)
		if base == nil || base.Records == 0 || cur.Records == 0 {
			continue
		}
		line := fmt.Sprintf("%-28s %9.0f rec/s (%s)  %6.2f allocs/rec (%s)",
			cur.Name,
			cur.RecordsPerSec, pctDelta(cur.RecordsPerSec, base.RecordsPerSec),
			cur.AllocsPerRecord, pctDelta(cur.AllocsPerRecord, base.AllocsPerRecord))
		if cur.MBPerSec > 0 && base.MBPerSec > 0 {
			line += fmt.Sprintf("  %8.1f MB/s (%s)", cur.MBPerSec, pctDelta(cur.MBPerSec, base.MBPerSec))
		}
		if cur.GOMAXPROCS != base.GOMAXPROCS && cur.GOMAXPROCS > 0 && base.GOMAXPROCS > 0 {
			line += fmt.Sprintf("  [gomaxprocs %d vs %d]", cur.GOMAXPROCS, base.GOMAXPROCS)
		}
		lines = append(lines, line)
	}
	return lines
}

// pctDelta formats a signed percentage change versus a baseline value.
func pctDelta(cur, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (cur/base-1)*100)
}

// peakRSS reads the process high-water RSS (VmHWM) from /proc/self/status;
// 0 on platforms without procfs.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
