package insidedropbox

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"insidedropbox/internal/campaign"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
)

// Spec is the one description of an experiment run: seed, population
// scale, fleet sizing, experiment selection and the opt-in lab
// configuration. The zero value is runnable — it selects the default
// catalogue (every table and figure) at DefaultScale with one shard per
// vantage point. Functional options (WithShards, WithProfiles, ...) layer
// adjustments on top of a Spec literal; both styles set the same fields.
type Spec struct {
	// Seed is the campaign seed every vantage point and lab derives from.
	Seed int64

	// Scale is the per-vantage-point population scaling, the one
	// population-size knob: each fraction is > 0 and sizes its vantage
	// point within workload.MaxSubscribers subscribers. The zero value
	// resolves to DefaultScale (SmallScale when Quick is set).
	Scale ScaleConfig

	// Fleet shards the engine used for campaign generation: Shards, in
	// [1, 1024] with 0 meaning 1, changes the drawn population sample
	// (part of the experiment definition), Workers only wall-clock time.
	Fleet FleetConfig

	// Experiments selects the catalogue subset to run, as glob-style
	// patterns over experiment IDs ("table4", "figure*", "figure1?").
	// Empty means the default selection: every non-opt-in experiment,
	// plus "whatif" when Profiles is set and "scenario/*" when Scenario
	// is.
	Experiments []string

	// Quick shrinks the packet labs and is the cue to default Scale to
	// SmallScale — the -quick CLI behaviour.
	Quick bool

	// SkipPacket drops the packet-level experiments (figures 1, 9, 10,
	// 19) from the selection.
	SkipPacket bool

	// Profiles configures the "whatif" lab and opts it into the default
	// selection. Nil leaves the lab opt-in (selected explicitly, it runs
	// the full preset catalogue).
	Profiles []CapabilityProfile

	// Scenario is a loaded declarative scenario spec (LoadScenario); it
	// configures the "scenario/*" experiments and opts them into the
	// default selection: "scenario/flash-crowd" only when the spec has a
	// backend section. Its population is also the one the opt-in
	// "backend/*" lab replays, under its backend.preset. The spec's base
	// section wins over Seed and Fleet.Shards for that population;
	// Workers still only affects wall-clock time. Nil leaves the
	// scenario experiments opt-in, and the backend lab replays Home 1 at
	// Scale.Home1 under the provisioned preset.
	Scenario *ScenarioSpec

	// ResultsDir, when non-empty, receives the rendered results via
	// WriteResults after the run completes, plus a schema-versioned
	// manifest.json (telemetry.Manifest): the run's provenance record —
	// environment, per-experiment and per-shard timings, and a full
	// telemetry counter snapshot. The manifest is written even when the
	// run fails or completes zero experiments.
	ResultsDir string

	// Progress, when non-nil, observes the run. Experiment events mark
	// each experiment's start and completion (every started experiment
	// gets a terminal event, failed ones with Err set); shard events
	// (ShardEvent() true) report generation progress inside the running
	// experiment with live throughput and an ETA. Progress is called
	// from the run's goroutines but never concurrently.
	Progress func(Progress)
}

// Progress is one run observation event. Two kinds of event flow through
// the same callback: experiment events (ShardEvent() false) and, between
// an experiment's start and terminal events, shard events reporting the
// generation underneath it.
type Progress struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Index is the experiment's 1-based position of Total selected.
	Index, Total int
	// Done is false when the experiment starts, true when it completes —
	// successfully or not. A run emits exactly one terminal event per
	// started experiment, so observers never hang waiting for experiment
	// N of M.
	Done bool
	// Err is the experiment's failure, set only on the terminal event of
	// a failed experiment.
	Err error
	// Elapsed is the experiment's wall time on terminal events, and the
	// completed shard's generation time on shard events.
	Elapsed time.Duration

	// Shard-granularity fields, set only on shard events (Shards > 0):
	// one event per completed generation shard under the experiment the
	// identity fields above name.
	VP            string        // vantage point being generated
	Shard, Shards int           // completed shard's index of Shards total
	ShardsDone    int           // this VP's shards completed so far
	Records       int64         // this VP's records generated so far
	RecordsPerSec float64       // this VP's live generation throughput
	ETA           time.Duration // estimated remaining generation time for this VP
}

// ShardEvent reports whether p is a shard-granularity event.
func (p Progress) ShardEvent() bool { return p.Shards > 0 }

// Option adjusts a Spec. Options are applied in order after the Spec
// literal, so later options win.
type Option func(*Spec)

// WithSeed sets the campaign seed.
func WithSeed(seed int64) Option { return func(s *Spec) { s.Seed = seed } }

// WithScale sets the per-vantage-point population scaling.
func WithScale(sc ScaleConfig) Option { return func(s *Spec) { s.Scale = sc } }

// WithShards routes campaign generation through that many deterministic
// population shards per vantage point (1 reproduces the historical
// datasets; the shard count is part of the experiment definition).
func WithShards(n int) Option { return func(s *Spec) { s.Fleet.Shards = n } }

// WithWorkers bounds the generation worker pool (0 = GOMAXPROCS; worker
// counts never change results, only wall-clock time).
func WithWorkers(n int) Option { return func(s *Spec) { s.Fleet.Workers = n } }

// WithExperiments selects the experiments to run, as glob-style patterns
// over catalogue IDs.
func WithExperiments(patterns ...string) Option {
	return func(s *Spec) { s.Experiments = append(s.Experiments, patterns...) }
}

// WithProfiles configures the capability what-if lab and opts it into the
// default selection.
func WithProfiles(profiles ...CapabilityProfile) Option {
	return func(s *Spec) { s.Profiles = append(s.Profiles, profiles...) }
}

// WithScenario attaches a loaded scenario spec and opts the scenario/*
// experiments into the default selection (scenario/flash-crowd only for a
// spec with a backend section).
func WithScenario(sp *ScenarioSpec) Option { return func(s *Spec) { s.Scenario = sp } }

// WithQuick selects small populations and quick packet labs.
func WithQuick() Option { return func(s *Spec) { s.Quick = true } }

// WithSkipPacket drops the packet-level experiments from the selection.
func WithSkipPacket() Option { return func(s *Spec) { s.SkipPacket = true } }

// WithProgress installs a run observer.
func WithProgress(fn func(Progress)) Option { return func(s *Spec) { s.Progress = fn } }

// WithResultsDir writes rendered results to dir after the run.
func WithResultsDir(dir string) Option { return func(s *Spec) { s.ResultsDir = dir } }

// Experiments returns the full experiment catalogue — every table, figure
// and lab, each with a unique ID — in presentation order.
func Experiments() []Experiment { return experiments.Experiments() }

// ExperimentByID resolves one catalogue entry by its exact ID.
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// SelectExperiments resolves glob-style patterns against the catalogue
// (no patterns = the default selection). A pattern matching nothing is an
// error.
func SelectExperiments(patterns ...string) ([]Experiment, error) {
	return experiments.Select(patterns...)
}

// resolve checks a Spec's fleet sizing and populations, fills its
// defaulted fields and computes its selection.
func (s Spec) resolve() (Spec, []Experiment, error) {
	if s.Scale == (ScaleConfig{}) {
		if s.Quick {
			s.Scale = SmallScale()
		} else {
			s.Scale = DefaultScale()
		}
	}
	if err := cmp.Or(fleet.CheckShards(s.Fleet.Shards), fleet.CheckWorkers(s.Fleet.Workers),
		s.Scale.Check()); err != nil {
		return s, nil, err
	}
	patterns := s.Experiments
	if len(patterns) == 0 {
		// The default selection, with the opt-in labs joining when the
		// Spec configures them — the historical CLI contract.
		if len(s.Profiles) > 0 {
			patterns = append(patterns, "whatif")
		}
		if s.Scenario != nil {
			patterns = append(patterns, experiments.ScenarioPatterns(s.Scenario)...)
		}
		def, err := experiments.Select()
		if err != nil {
			return s, nil, err
		}
		if len(patterns) == 0 {
			return s, def, nil
		}
		for _, e := range def {
			patterns = append(patterns, e.ID)
		}
	}
	sel, err := experiments.Select(patterns...)
	return s, sel, err
}

// Check reports the error Run would refuse the Spec with before running
// anything: the shards and workers rules, the population-size rule for
// every population it names and its selection.
func (s Spec) Check() error {
	_, _, err := s.resolve()
	return err
}

// Run is the one entry point of the experiment API: it resolves the
// Spec's selection against the registry, builds a shared Session
// (campaign, packet labs and testbed are generated lazily, once), and
// executes the selected experiments in catalogue order.
//
// Cancelling ctx aborts the run promptly — campaign generation and the
// opt-in labs stop at fleet-shard granularity, the packet labs at their
// simulation-slice boundaries — and Run returns ctx.Err(). On any error
// the results completed so far are returned alongside it, and — when
// ResultsDir is set — written to disk, so an interrupted long campaign
// loses only the experiment in flight.
func Run(ctx context.Context, spec Spec, opts ...Option) ([]*Result, error) {
	for _, o := range opts {
		o(&spec)
	}
	spec, sel, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	if spec.SkipPacket {
		kept := sel[:0]
		for _, e := range sel {
			if !e.Needs.Packet {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 && len(sel) > 0 {
			// An explicit selection must not silently shrink to nothing
			// (Select enforces the same for unmatched patterns).
			return nil, fmt.Errorf("selection %v contains only packet-level experiments, which SkipPacket excludes", spec.Experiments)
		}
		sel = kept
	}

	// The observer serializes shard events from the fleet workers into
	// Progress callbacks and collects the per-shard timings the manifest
	// records. It chains any observer the caller installed on the Fleet
	// config.
	obs := &runObserver{progress: spec.Progress, next: spec.Fleet.Observer}
	fc := spec.Fleet
	fc.Observer = obs.observe

	session := &Session{
		Seed:     spec.Seed,
		Scale:    spec.Scale,
		Fleet:    fc,
		Quick:    spec.Quick,
		Profiles: spec.Profiles,
		Scenario: spec.Scenario,
	}
	results := make([]*Result, 0, len(sel))
	var expTimings []telemetry.ExperimentTiming
	// flush persists whatever completed plus the run manifest; on a
	// failed run the original error wins over a secondary write failure.
	flush := func(runErr error) error {
		if spec.ResultsDir == "" {
			return runErr
		}
		if len(results) > 0 {
			if err := WriteResults(spec.ResultsDir, results); err != nil {
				if runErr == nil {
					runErr = err
				}
				return runErr
			}
		}
		m := telemetry.NewManifest(spec.Seed)
		m.Spec = specProvenance(spec, sel)
		m.Experiments = expTimings
		m.Shards = obs.shardTimings()
		if err := writeManifest(spec.ResultsDir, m); err != nil && runErr == nil {
			runErr = err
		}
		return runErr
	}
	emit := func(p Progress) {
		if spec.Progress != nil {
			spec.Progress(p)
		}
	}
	for i, e := range sel {
		if err := ctx.Err(); err != nil {
			return results, flush(err)
		}
		obs.setCurrent(e.ID, e.Title, i+1, len(sel))
		emit(Progress{ID: e.ID, Title: e.Title, Index: i + 1, Total: len(sel)})
		start := time.Now()
		r, err := e.Run(ctx, session)
		elapsed := time.Since(start)
		mExperimentSeconds.Observe(elapsed)
		t := telemetry.ExperimentTiming{ID: e.ID, Title: e.Title, Seconds: elapsed.Seconds()}
		if err != nil {
			err = fmt.Errorf("experiment %s: %w", e.ID, err)
			t.Err = err.Error()
			expTimings = append(expTimings, t)
			emit(Progress{ID: e.ID, Title: e.Title, Index: i + 1, Total: len(sel), Done: true, Err: err, Elapsed: elapsed})
			return results, flush(err)
		}
		expTimings = append(expTimings, t)
		annotate(r, spec, elapsed)
		results = append(results, r)
		emit(Progress{ID: e.ID, Title: e.Title, Index: i + 1, Total: len(sel), Done: true, Elapsed: elapsed})
	}
	return results, flush(nil)
}

// RunManifest is the machine-readable provenance record a Run with
// ResultsDir writes as manifest.json: execution environment, flattened
// spec, per-experiment and per-shard timings, and a full telemetry
// snapshot.
type RunManifest = telemetry.Manifest

// LoadRunManifest parses and validates a run manifest written by Run (or
// by cmd/dropsim -manifest).
func LoadRunManifest(path string) (*RunManifest, error) { return telemetry.LoadManifest(path) }

// mExperimentSeconds times each experiment's Run.
var mExperimentSeconds = telemetry.NewHist("run.experiment_seconds")

// runObserver adapts fleet.ShardEvents into shard-granularity Progress
// events and the manifest's per-shard timing records. Fleet workers call
// observe concurrently, with one call's populations (the four vantage
// points, the what-if profiles) interleaved on one pool; the mutex
// serializes both the Progress callbacks and the timing log.
type runObserver struct {
	mu       sync.Mutex
	progress func(Progress)
	next     func(fleet.ShardEvent)

	id           string // current experiment identity
	title        string
	index, total int

	vps     map[string]*vpProgress
	timings []telemetry.ShardTiming
}

// vpProgress tracks one (experiment, vantage point) generation run.
type vpProgress struct {
	start   time.Time
	records int64
}

func (o *runObserver) setCurrent(id, title string, index, total int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.id, o.title, o.index, o.total = id, title, index, total
}

func (o *runObserver) shardTimings() []telemetry.ShardTiming {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.timings
}

func (o *runObserver) observe(ev fleet.ShardEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	key := o.id + "/" + ev.VP
	if o.vps == nil {
		o.vps = make(map[string]*vpProgress)
	}
	vp := o.vps[key]
	if vp == nil {
		// Backdate the VP's start to this first shard's own start so
		// single-shard runs still get a meaningful rate.
		vp = &vpProgress{start: time.Now().Add(-ev.Elapsed)}
		o.vps[key] = vp
	}
	vp.records += int64(ev.Records)
	o.timings = append(o.timings, telemetry.ShardTiming{
		Experiment: o.id,
		VP:         ev.VP,
		Shard:      ev.Shard,
		Shards:     ev.Shards,
		Records:    int64(ev.Records),
		Seconds:    ev.Elapsed.Seconds(),
	})
	if o.progress != nil {
		p := Progress{
			ID: o.id, Title: o.title, Index: o.index, Total: o.total,
			VP:         ev.VP,
			Shard:      ev.Shard,
			Shards:     ev.Shards,
			ShardsDone: ev.Done,
			Records:    vp.records,
			Elapsed:    ev.Elapsed,
		}
		if wall := time.Since(vp.start); wall > 0 {
			p.RecordsPerSec = float64(vp.records) / wall.Seconds()
			if ev.Done > 0 && ev.Done < ev.Shards {
				// Scale elapsed wall time by remaining/completed shards:
				// crude, but stable under the pool's parallelism because
				// both sides saw the same worker count.
				p.ETA = time.Duration(float64(wall) * float64(ev.Shards-ev.Done) / float64(ev.Done))
			}
		}
		o.progress(p)
	}
	if o.next != nil {
		o.next(ev)
	}
}

// specProvenance flattens the run's effective configuration for the
// manifest: every input that can change a result, plus the worker count,
// so a manifest alone names the population, profiles and scenario that
// produced its results.
func specProvenance(spec Spec, sel []Experiment) map[string]string {
	ids := make([]string, len(sel))
	for i, e := range sel {
		ids[i] = e.ID
	}
	scale := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	m := map[string]string{
		"seed":          strconv.FormatInt(spec.Seed, 10),
		"shards":        strconv.Itoa(max(spec.Fleet.Shards, 1)),
		"workers":       strconv.Itoa(spec.Fleet.Workers),
		"scale_campus1": scale(spec.Scale.Campus1),
		"scale_campus2": scale(spec.Scale.Campus2),
		"scale_home1":   scale(spec.Scale.Home1),
		"scale_home2":   scale(spec.Scale.Home2),
		"experiments":   strings.Join(ids, ","),
	}
	if spec.Quick {
		m["quick"] = "true"
	}
	if spec.SkipPacket {
		m["skip_packet"] = "true"
	}
	if len(spec.Profiles) > 0 {
		keys := make([]string, len(spec.Profiles))
		for i, p := range spec.Profiles {
			keys[i] = p.Key()
		}
		m["profiles"] = strings.Join(keys, ",")
	}
	if spec.Scenario != nil {
		m["scenario"] = spec.Scenario.Name
		doc, _ := json.Marshal(spec.Scenario) // a parsed document marshals back
		m["scenario_doc"] = campaign.Fingerprint(string(doc))
	}
	return m
}

// writeManifest saves the run manifest into dir (creating it — a failed
// run may not have written any results yet).
func writeManifest(dir string, m *telemetry.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return m.Save(filepath.Join(dir, telemetry.ManifestFile))
}

// annotate attaches the run's provenance metadata to a result, in a fixed
// key order WriteResults preserves. The environment and timing keys come
// after the legacy ones, so consumers reading a meta prefix are
// undisturbed. An experiment that ran its own population (the session's
// scenario stream) has recorded its seed, shards, vantage point and scale
// already; the Run's population keys stay off it.
func annotate(r *Result, spec Spec, elapsed time.Duration) {
	if r == nil {
		return
	}
	if !slices.ContainsFunc(r.Meta, func(e ResultMeta) bool { return e.Key == "seed" }) {
		r.AddMeta("seed", strconv.FormatInt(spec.Seed, 10))
		r.AddMeta("shards", strconv.Itoa(max(spec.Fleet.Shards, 1)))
		r.AddMeta("scale_campus1", strconv.FormatFloat(spec.Scale.Campus1, 'g', -1, 64))
	}
	if spec.Quick {
		r.AddMeta("quick", "true")
	}
	r.AddMeta("go_version", runtime.Version())
	r.AddMeta("gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)))
	r.AddMeta("duration", elapsed.Round(time.Millisecond).String())
}

// ---------- ctx-aware campaign and lab entry points ----------

// Fold folds the four vantage points' generated records into Tallies
// through the sharded fleet engine, one pass per vantage point; no record
// is kept past its fold. fc.Shards == 1 folds the historical sequential
// generator's populations; cancellation aborts at fleet-shard granularity.
func Fold(ctx context.Context, seed int64, scale ScaleConfig, fc FleetConfig) (Tallies, error) {
	return experiments.Fold(ctx, seed, scale, fc)
}

// Summarize streams one vantage point through the engine's bounded-memory
// aggregation path, returning the streaming summary and generation ground
// truth — what dropsim -summary prints. Called at seed+1 … seed+4 with
// Campus1, Campus2, Home1 and Home2, it summarizes the populations Fold
// folds at seed.
func Summarize(ctx context.Context, cfg VPConfig, seed int64, fc FleetConfig) (*FleetSummary, FleetStats, error) {
	return fleet.Summarize(ctx, cfg, seed, fc)
}

// ---------- streaming record iterators ----------

// Records exposes one vantage point's generated flow records as an
// iterator, in canonical shard order with bounded buffering — the one
// record-stream abstraction trace export, fleet aggregation and user
// analysis share. Breaking the loop tears the generating workers down
// cleanly; a cancelled ctx surfaces as the final (nil, err) pair:
//
//	for r, err := range insidedropbox.Records(ctx, cfg, seed, fc) {
//		if err != nil { return err }
//		// consume r
//	}
//
// Record storage is pooled: r is valid until the loop advances. Copy to
// keep — the struct by value, NotifyNamespaces with slices.Clone.
func Records(ctx context.Context, cfg VPConfig, seed int64, fc FleetConfig) iter.Seq2[*FlowRecord, error] {
	return fleet.Records(ctx, cfg, seed, fc)
}

// StreamRecords is the callback form of Records, for consumers that also
// need the run's FleetStats: emit receives every record in canonical
// shard order until it returns false (a clean stop) or ctx is cancelled
// (surfaced as ctx.Err()). The stats describe generation: after an early
// stop they include in-flight shards whose output was discarded, so
// count deliveries in emit when the distinction matters. As with Records,
// a record is valid until emit returns; copy to keep.
func StreamRecords(ctx context.Context, cfg VPConfig, seed int64, fc FleetConfig, emit func(*FlowRecord) bool) (FleetStats, error) {
	return fleet.StreamRecords(ctx, cfg, seed, fc, emit)
}

// WriteRecordStream drains a record iterator into a RecordWriter (CSV or
// binary) and flushes it: the three-line export path.
func WriteRecordStream(w RecordWriter, seq iter.Seq2[*FlowRecord, error]) error {
	for r, err := range seq {
		if err != nil {
			return err
		}
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

// RecordReader is the streaming source every trace deserialization
// implements, and what OpenTrace returns: Read returns records until
// io.EOF. The inverse of RecordWriter.
type RecordReader = traces.RecordReader

// ReadRecords adapts a RecordReader into the same iterator shape Records
// produces, so an archived trace file re-streams through exactly the
// code paths a live generation run feeds — analysis, aggregation, or
// re-serialization. io.EOF ends the sequence cleanly; any other error
// surfaces as the final (nil, err) pair:
//
//	f, _ := os.Open("campaign.idbf")
//	rd, err := insidedropbox.OpenTrace(f) // csv, binary or binary-flate
//	for r, err := range insidedropbox.ReadRecords(rd) { ... }
//
// Seek the reader first (rd.(insidedropbox.TraceSeeker).SeekToRecord, on
// a binary-flate file) to re-stream just a shard or record range of an
// archival file.
func ReadRecords(r RecordReader) iter.Seq2[*FlowRecord, error] {
	return func(yield func(*FlowRecord, error) bool) {
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				yield(nil, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}
