// Package insidedropbox reproduces the measurement study "Inside Dropbox:
// Understanding Personal Cloud Storage Services" (Drago, Mellia, Munafò,
// Sperotto, Sadre, Pras — ACM IMC 2012) as a self-contained simulation and
// analysis laboratory.
//
// The package is a facade over the internal subsystems:
//
//   - a discrete-event network substrate (TCP with slow start and loss
//     recovery, a TLS-like record layer, DNS with the Table 1 name space);
//   - a from-scratch implementation of the 2012 Dropbox protocol — the
//     meta-data control plane, notification long-polling, Amazon-style
//     storage servers with per-chunk sequential acknowledgments, and the
//     v1.4.0 bundling the paper evaluates;
//   - a Tstat-like passive probe performing flow reassembly, RTT
//     estimation, PSH accounting and TLS/DNS/notification DPI;
//   - the paper's analysis methodology (f(u) tagging, chunk estimation,
//     session reconstruction, user grouping);
//   - calibrated workload generators standing in for the four European
//     vantage points of the study; and
//   - a sharded, streaming fleet engine (FleetConfig, Summarize,
//     StreamRecords) that scales those populations from thousands to
//     millions of devices across every core with bounded memory and
//     bit-reproducible results.
//
// # The experiment API
//
// Every table and figure of the paper is a registered Experiment with a
// stable ID; Experiments lists the catalogue, and Run executes any
// selection of it under one cancellable entry point:
//
//	results, err := insidedropbox.Run(ctx,
//		insidedropbox.Spec{Seed: 2012},
//		insidedropbox.WithExperiments("table4", "figure9"),
//		insidedropbox.WithShards(8))
//
// Spec unifies seed, population scale, fleet sizing, capability profiles
// and experiment selection; functional options (WithShards, WithProfiles,
// WithProgress, WithResultsDir, ...) layer adjustments on top. Context
// cancellation threads through the fleet worker pool and the packet-level
// labs, so million-device campaigns abort cleanly mid-shard.
//
// # Record streams
//
// Records exposes any vantage point's flow-record stream as an iterator;
// the same abstraction feeds CSV/binary export, fleet aggregation and
// user analysis:
//
//	for r, err := range insidedropbox.Records(ctx, cfg, seed, fc) { ... }
//
// Record storage is pooled, so r is valid until the loop advances; copy
// to keep.
//
// See cmd/experiments for the batch driver and EXPERIMENTS.md for the
// experiment catalogue and the fleet engine's sharding and determinism
// contract.
package insidedropbox

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Tally is one vantage point folded for the paper's tables and figures:
// exact counts and volumes plus the samples the order statistics need.
type Tally = experiments.Tally

// Tallies are the four vantage points' tallies in campus1, campus2, home1,
// home2 order: what every population table and figure renders from.
type Tallies = experiments.Tallies

// Result is one regenerated table or figure: rendered text, named metrics
// and (on registry runs) ordered provenance metadata.
type Result = experiments.Result

// ResultMeta is one ordered provenance entry on a Result.
type ResultMeta = experiments.MetaEntry

// Experiment is one registered table, figure or lab of the catalogue.
type Experiment = experiments.Experiment

// ExperimentNeeds declares which shared session inputs an experiment
// consumes (campaign, packet stack, opt-in configuration).
type ExperimentNeeds = experiments.Needs

// Session carries one run's inputs and memoizes the expensive shared
// artifacts (campaign, packet labs, testbed) across experiments.
type Session = experiments.Session

// ScaleConfig controls population downscaling per vantage point.
type ScaleConfig = experiments.ScaleConfig

// Dataset is one vantage point's generated flow records.
type Dataset = workload.Dataset

// FlowRecord is one monitored TCP flow as exported by the probe.
type FlowRecord = traces.FlowRecord

// RecordWriter is the sink interface every trace serialization implements;
// format-agnostic exporters write through it.
type RecordWriter = traces.RecordWriter

// WriterSink adapts a RecordWriter into a fleet sink: the glue between a
// record stream and either trace serialization. The first write error
// latches into Err and suppresses further writes.
type WriterSink = fleet.WriterSink

// CreateTrace returns an anonymizing writer of a dropsim -format name:
// "csv" (the format of the paper's public release), "binary" or
// "binary-flate" (wire formats in internal/traces), encoding blocks on
// GOMAXPROCS workers. Flush ends the stream.
func CreateTrace(w io.Writer, format string) (RecordWriter, error) {
	f, err := traces.LookupFormat(format)
	if err != nil {
		return nil, err
	}
	return f.New(w, true, 0), nil
}

// OpenTrace returns a reader for a trace stream in any of CreateTrace's
// formats, picked from the stream's first bytes (see traces.Open). Over a
// seekable binary-flate source the reader is also a TraceSeeker.
func OpenTrace(r io.Reader) (RecordReader, error) { return traces.Open(r) }

// TraceSeeker is the random access a binary-flate reader over an
// io.ReadSeeker (e.g. *os.File) adds, through the stream's trailing index:
// assert it on OpenTrace's reader to re-stream from any record ordinal.
type TraceSeeker interface {
	NumRecords() (int64, error)
	SeekToRecord(n int64) error
}

// VPConfig parameterizes a vantage point population.
type VPConfig = workload.VPConfig

// DefaultScale returns the standard laptop-sized population scaling.
func DefaultScale() ScaleConfig { return experiments.DefaultScale() }

// SmallScale returns a fast, test-sized scaling.
func SmallScale() ScaleConfig { return experiments.SmallScale() }

// Vantage point constructors, exposed for custom campaigns.
var (
	Campus1 = workload.Campus1
	Campus2 = workload.Campus2
	Home1   = workload.Home1
	Home2   = workload.Home2
	// Campus1JunJul is the post-bundling second dataset of Table 4.
	Campus1JunJul = workload.Campus1JunJul
)

// GenerateDataset runs the workload generator for one vantage point,
// materializing every record (use Records for bounded-memory streaming).
func GenerateDataset(cfg VPConfig, seed int64) *Dataset {
	return workload.Generate(cfg, seed)
}

// ---------- fleet engine (sharded, streaming campaigns) ----------

// FleetConfig shards the fleet engine: the deterministic shard count
// (part of the experiment definition), the worker pool (wall-clock only,
// never results) and an observer. A population's size is its scale's.
type FleetConfig = fleet.Config

// FleetStats is the merged ground truth of one vantage point's fleet run.
type FleetStats = fleet.VPStats

// ShardEvent is the per-shard completion event a FleetConfig.Observer
// receives: one per generated shard, with the shard's record count and
// wall time. Observation only — installing an observer never changes any
// generated output.
type ShardEvent = fleet.ShardEvent

// FleetSummary is the streaming aggregate of one vantage point: per-day
// volume accumulators, online flow-size histograms and device/namespace
// counters, at memory independent of the flow count.
type FleetSummary = fleet.Summary

// ---------- capability profiles (what-if campaigns) ----------

// CapabilityProfile is one client capability vector: chunk size limit,
// bundling, deduplication, delta encoding, compression, commit pipelining
// and the jointly-tuned server initial window. The two Dropbox presets are
// the clients the paper observed, and the calibrated vantage points carry
// them; the remaining presets are hypothetical clients for counterfactual
// campaigns.
type CapabilityProfile = capability.Profile

// CapabilityPresets returns the shipped profile catalogue: the two
// historical Dropbox clients, then the hypothetical profiles (no-dedup,
// no-delta, big-chunks-16mb, full-pipeline).
func CapabilityPresets() []CapabilityProfile { return capability.Presets() }

// CapabilityNames returns the preset profile names in catalogue order.
func CapabilityNames() []string { return capability.Names() }

// CapabilityByName resolves a preset profile by name ("dropbox-1.4.0";
// version aliases like "1.2.52" are accepted).
func CapabilityByName(name string) (CapabilityProfile, bool) { return capability.ByName(name) }

// ParseProfiles resolves a comma-separated preset list (the -profiles CLI
// flag format), preserving order.
func ParseProfiles(list string) ([]CapabilityProfile, error) { return capability.Parse(list) }

// ---------- declarative scenarios ----------

// ScenarioSpec is a schema-versioned declarative scenario: a population
// as a weighted mix of behavioral cohorts plus a time-varying backend
// timeline, compiled onto the engine configuration. The empty/default
// spec compiles to the legacy flag-driven configuration bit for bit.
type ScenarioSpec = scenario.Spec

// CompiledScenario is a scenario lowered onto VPConfig, fleet sizing and
// the backend capacity model — a pure function of (spec, seed).
type CompiledScenario = scenario.Compiled

// LoadScenario reads and strictly validates a scenario spec file
// (unknown fields, bad weights and foreign schema versions are errors).
func LoadScenario(path string) (*ScenarioSpec, error) { return scenario.Load(path) }

// CompileScenario lowers a spec onto the engine configuration; a non-zero
// base.seed in the spec overrides seed.
func CompileScenario(sp *ScenarioSpec, seed int64) (*CompiledScenario, error) {
	return scenario.Compile(sp, seed)
}

// ---------- exports ----------

// SaveTraces writes a dataset's flow records as anonymized CSV, the format
// of the paper's public release.
func SaveTraces(ds *Dataset, w io.Writer) error {
	tw, err := CreateTrace(w, "csv")
	if err != nil {
		return err
	}
	for _, r := range ds.Records {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// WriteResults renders results into dir, one text file per experiment,
// plus an index. Each file carries the result's title and rendered text,
// the ordered provenance metadata a registry Run attaches, and the named
// metrics in sorted-key order.
func WriteResults(dir string, results []*Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var index strings.Builder
	var body strings.Builder
	for _, r := range results {
		body.Reset()
		body.Grow(len(r.Title) + len(r.Text) + 64*(len(r.Meta)+len(r.Metrics)) + 32)
		body.WriteString(r.Title)
		body.WriteString("\n\n")
		body.WriteString(r.Text)
		if len(r.Meta) > 0 {
			body.WriteString("\nmeta:\n")
			for _, m := range r.Meta {
				fmt.Fprintf(&body, "  %s = %s\n", m.Key, m.Value)
			}
		}
		if len(r.Metrics) > 0 {
			body.WriteString("\nmetrics:\n")
			for _, k := range analysis.SortedKeys(r.Metrics) {
				fmt.Fprintf(&body, "  %s = %.6g\n", k, r.Metrics[k])
			}
		}
		// Namespaced IDs ("backend/baseline") flatten to one file per
		// result rather than growing a directory tree.
		name := filepath.Join(dir, strings.ReplaceAll(r.ID, "/", "-")+".txt")
		if err := os.WriteFile(name, []byte(body.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&index, "%s\t%s\n", r.ID, r.Title)
	}
	return os.WriteFile(filepath.Join(dir, "INDEX.txt"), []byte(index.String()), 0o644)
}
