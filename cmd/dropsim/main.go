// Command dropsim generates one vantage point's 42-day flow-record dataset
// through the sharded fleet engine and writes it as anonymized CSV (the
// format of the paper's public trace release), as the binary columnar
// trace format (-format=binary, ~3.5x smaller and allocation-free on
// write), or as the compressed archival tier (-format=binary-flate:
// flate-framed binary blocks with a trailing seek index, so readers can
// re-stream any record range without decompressing the file) — or, with
// -summary, reduces it to streaming aggregates without ever materializing
// records.
//
// Usage:
//
//	dropsim [-vp campus1|campus2|home1|home2] [-scale F] [-seed N]
//	        [-shards N] [-workers N] [-devices-scale F]
//	        [-profile NAME] [-format csv|binary|binary-flate]
//	        [-summary] [-o FILE]
//	        [-checkpoint DIR [-resume]]
//	        [-backend infinite|provisioned|scarce] [-scenario FILE]
//	        [-manifest FILE] [-pprof ADDR] [-cpuprofile FILE]
//	        [-memprofile FILE] [-telemetry-interval DUR]
//
// -workers bounds how many shards generate at once on the fleet engine's
// worker pool, for the straight export and the -checkpoint campaign alike.
//
// -scenario compiles a declarative scenario spec (see scenarios/) and
// takes its population from there: the spec's base section overrides
// -vp, -scale, -shards, -devices-scale and -profile (a base.seed
// overrides -seed), and its cohorts section splits the population into
// behavioral cohorts. A spec backend section drives the post-export
// replay — preset sizing from the base load, arrival surges, and
// timeline events (outages, rollouts) on the event queue; -backend, when
// also set, overrides just the preset.
//
// binary/binary-flate block encoding runs on GOMAXPROCS workers (inline,
// with no worker goroutines, when GOMAXPROCS is 1). The stream is
// byte-identical for every worker count, so the manifest stream hash is
// stable across GOMAXPROCS settings.
//
// -manifest writes a run manifest (the schema-versioned JSON of
// insidedropbox.RunManifest) with the FNV-1a hash of the serialized
// stream, per-shard timings and a telemetry snapshot — the reproducibility
// record the telemetry-on/off golden check in CI compares.
//
// -backend tees the record stream into the server capacity model
// (internal/backend) and, after the export, replays it against the named
// preset, printing per-node utilization, drop counts and queueing-delay
// quantiles to stderr. The tee is observation-only: the exported bytes and
// the manifest stream hash are identical with and without -backend, and an
// infinite preset reports zero delay and zero drops (the determinism
// contract's point 14). With -manifest, the backend.* counters land in the
// manifest's telemetry snapshot.
//
// Records stream from the generator shards straight into the trace
// writer over the facade's record iterator, so memory stays bounded
// however large -scale and -devices-scale grow the population. -shards
// changes the population sample (each shard draws an independent seeded
// stream); -workers only changes wall-clock time. The serialization
// format never changes the record stream itself — a binary export decodes
// to exactly the rows the CSV export carries (PERFORMANCE.md documents
// that contract). ^C cancels the export cleanly at shard granularity.
//
// Rows are emitted in deterministic shard/generation order, not sorted by
// first-packet time as the materializing GenerateDataset export is — a
// bounded-memory stream cannot globally sort. Sort post-hoc when the probe
// export order matters.
//
// -profile replaces the vantage point's calibrated client capabilities
// (the Version the paper observed there) with a named capability profile —
// the per-dataset entry point to the what-if engine. Omitting it keeps the
// historical behaviour bit for bit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"insidedropbox"
	"insidedropbox/internal/analysis"
	"insidedropbox/internal/backend"
	"insidedropbox/internal/cli"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
)

func main() {
	// `dropsim campaign plan|run|merge` is the multi-process campaign
	// fan-out flow; everything else is the classic flag-driven export.
	if len(os.Args) > 1 && os.Args[1] == "campaign" {
		campaignMain(os.Args[2:])
		return
	}
	vp := flag.String("vp", "home1", "vantage point: "+strings.Join(cli.VantageNames(), ", "))
	scale := flag.Float64("scale", 0.05, "population scale versus the paper")
	seed := flag.Int64("seed", 42, "random seed")
	shards := flag.Int("shards", 1, "deterministic population shards (part of the result)")
	workers := flag.Int("workers", 0, "concurrent shard workers (0 = GOMAXPROCS; never changes results)")
	devScale := flag.Float64("devices-scale", 1, "population multiplier on top of -scale")
	profile := flag.String("profile", "", "capability profile overriding the VP's client version: "+
		strings.Join(insidedropbox.CapabilityNames(), "|"))
	format := flag.String("format", "csv", "trace format: csv (public-release compatible), binary (columnar, ~3.5x smaller), or binary-flate (compressed archival with seek index)")
	backendPreset := flag.String("backend", "", "after the export, replay the stream against the server "+
		"capacity model under this preset: "+strings.Join(insidedropbox.BackendPresets(), "|"))
	scenarioPath := flag.String("scenario", "", "declarative scenario spec file; its base section overrides -vp/-scale/-seed/-shards/-devices-scale/-profile")
	summary := flag.Bool("summary", false, "print streaming aggregates instead of trace records")
	out := flag.String("o", "", "output file (default stdout)")
	manifest := flag.String("manifest", "", "write a run manifest (stream hash, shard timings, telemetry snapshot) to this file")
	checkpoint := flag.String("checkpoint", "", "campaign directory for per-shard checkpoint/resume (enables the multi-core campaign runner)")
	resume := flag.Bool("resume", false, "continue a checkpointed campaign from where it stopped (requires -checkpoint)")
	prof := cli.BindProfile(flag.CommandLine)
	flag.Parse()

	// The checkpointed campaign path owns serialization (parts + merge),
	// so the stream-tee features cannot combine with it.
	if *checkpoint != "" {
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{*summary, "-summary"},
			{*backendPreset != "", "-backend"},
			{*scenarioPath != "", "-scenario"},
		} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "-checkpoint cannot combine with %s: the campaign runner exports from checkpointed parts, not a live stream\n", bad.flag)
				os.Exit(2)
			}
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		os.Exit(2)
	}

	traceFormat, err := traces.LookupFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *backendPreset != "" {
		valid := false
		for _, p := range insidedropbox.BackendPresets() {
			valid = valid || p == *backendPreset
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "unknown backend preset %q (valid: %s)\n",
				*backendPreset, strings.Join(insidedropbox.BackendPresets(), ", "))
			os.Exit(2)
		}
		if *summary {
			fmt.Fprintln(os.Stderr, "-backend needs the record stream; it cannot combine with -summary")
			os.Exit(2)
		}
	}

	cfg, err := cli.VantagePoint(*vp, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *profile != "" {
		p, ok := insidedropbox.CapabilityByName(*profile)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown capability profile %q (valid: %s)\n",
				*profile, strings.Join(insidedropbox.CapabilityNames(), ", "))
			os.Exit(2)
		}
		cfg.Caps = &p
	}
	fc := insidedropbox.FleetConfig{Shards: *shards, Workers: *workers, DevicesScale: *devScale}
	runSeed := *seed

	// A scenario spec replaces the flag-assembled population wholesale:
	// compilation is a pure function of (spec, seed), so the exported
	// stream is reproducible from the committed file plus the seed alone.
	var comp *insidedropbox.CompiledScenario
	if *scenarioPath != "" {
		sp, err := insidedropbox.LoadScenario(*scenarioPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		comp, err = insidedropbox.CompileScenario(sp, runSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg = comp.VP
		runSeed = comp.Seed
		fc.Shards = comp.Fleet.Shards
		if comp.Fleet.DevicesScale > 0 {
			fc.DevicesScale = comp.Fleet.DevicesScale
		}
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	if *checkpoint != "" {
		ctx, stop := cli.SignalContext()
		defer stop()
		spec := campaignSpec(*vp, *scale, *seed, *shards, *devScale, *profile, *format)
		runCheckpointed(ctx, spec, *checkpoint, *out, *workers, *resume, *manifest)
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	// The manifest records the hash of the exact serialized bytes (tee'd
	// off the output stream) and per-shard timings via the fleet observer
	// — both observation-only, so -manifest never changes the exported
	// stream.
	var rec *manifestRecorder
	streamHash := fnv.New64a()
	if *manifest != "" {
		spec := manifestSpec(cfg.Name, *scale, fc.Shards, fc.DevicesScale, *format, *profile)
		spec["workers"] = strconv.Itoa(*workers)
		spec["backend"] = *backendPreset
		if comp != nil {
			spec["scenario"] = comp.Spec.Name
		}
		rec = newManifestRecorder(runSeed, spec)
		w = io.MultiWriter(w, streamHash)
		fc.Observer = rec.observe
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	if *summary {
		printSummary(ctx, cfg, runSeed, fc, w)
		return
	}

	// The backend collector tees off the record stream before
	// serialization — observation only, so -backend never changes the
	// exported bytes (the manifest stream hash stays preset-independent).
	var col *backend.Collector
	var tee func(*insidedropbox.FlowRecord)
	if *backendPreset != "" || (comp != nil && comp.Backend != nil) {
		col = &backend.Collector{}
		tee = col.Consume
	}

	stats, volume, err := streamTraces(ctx, cfg, runSeed, fc, w, traceFormat, tee)
	if err != nil {
		cli.Exit(ctx, "writing traces", err)
	}
	if col != nil {
		if err := simulateBackend(ctx, *backendPreset, comp, col.Requests); err != nil {
			cli.Exit(ctx, "backend simulation", err)
		}
	}
	if rec != nil {
		// Saved after the backend replay, so the telemetry snapshot in the
		// manifest carries the backend.* counters and gauges.
		if err := rec.save(*manifest, fmt.Sprintf("%016x", streamHash.Sum64())); err != nil {
			cli.Exit(ctx, "writing manifest", err)
		}
	}
	for _, v := range stats.BackgroundByDay {
		volume += v
	}
	fmt.Fprintf(os.Stderr, "%s: %d flow records, %d Dropbox devices, %.2f GB total\n",
		stats.Cfg.Name, stats.Records, stats.Devices, volume/1e9)
}

// manifestSpec renders the population flags every dropsim manifest
// records, whichever path ran; callers add what only they know.
func manifestSpec(vp string, scale float64, shards int, devScale float64, format, profile string) map[string]string {
	return map[string]string{
		"vp":            vp,
		"scale":         strconv.FormatFloat(scale, 'g', -1, 64),
		"shards":        strconv.Itoa(shards),
		"devices_scale": strconv.FormatFloat(devScale, 'g', -1, 64),
		"format":        format,
		"profile":       profile,
	}
}

// manifestRecorder accumulates the run manifest: the spec, and the
// per-shard timings the engine's workers report through observe,
// concurrently. The stream hash arrives at save — the straight export tees
// its bytes into one, a campaign reports its own.
type manifestRecorder struct {
	m  *insidedropbox.RunManifest
	mu sync.Mutex
}

func newManifestRecorder(seed int64, spec map[string]string) *manifestRecorder {
	m := telemetry.NewManifest(seed)
	m.Spec = spec
	return &manifestRecorder{m: m}
}

func (r *manifestRecorder) observe(ev insidedropbox.ShardEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Shards = append(r.m.Shards, telemetry.ShardTiming{
		VP:      ev.VP,
		Shard:   ev.Shard,
		Shards:  ev.Shards,
		Records: int64(ev.Records),
		Seconds: ev.Elapsed.Seconds(),
	})
}

func (r *manifestRecorder) save(path, streamHash string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.StreamHash = streamHash
	telemetry.SetInfo("stream_hash", streamHash)
	return r.m.Save(path)
}

// printSummary runs the bounded-memory aggregation path and renders the
// streaming metrics.
func printSummary(ctx context.Context, cfg insidedropbox.VPConfig, seed int64,
	fc insidedropbox.FleetConfig, w io.Writer) {

	sum, stats, err := insidedropbox.Summarize(ctx, cfg, seed, fc)
	if err != nil {
		cli.Exit(ctx, "summarizing", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s: %d IPs, %d shards\n", stats.Cfg.Name, stats.Cfg.TotalIPs, stats.Shards)
	m := sum.Metrics()
	for _, k := range analysis.SortedKeys(m) {
		fmt.Fprintf(bw, "  %-18s %.6g\n", k, m[k])
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "writing summary:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: %d flow records aggregated, %d Dropbox devices (ground truth)\n",
		stats.Cfg.Name, stats.Records, stats.Devices)
}

// streamTraces pipes records from the generator shards straight into the
// format's anonymizing trace writer through a WriterSink, without
// materializing the dataset. The sink latches the first write error and
// stops the stream; a cancelled context stops it at shard granularity.
func streamTraces(ctx context.Context, cfg insidedropbox.VPConfig, seed int64,
	fc insidedropbox.FleetConfig, w io.Writer, format traces.Format,
	tee func(*insidedropbox.FlowRecord)) (insidedropbox.FleetStats, float64, error) {

	bw := bufio.NewWriterSize(w, 1<<16)
	sink := &insidedropbox.WriterSink{W: format.New(bw, true, 0)}
	var volume float64
	stats, err := insidedropbox.StreamRecords(ctx, cfg, seed, fc, func(r *insidedropbox.FlowRecord) bool {
		volume += float64(r.BytesUp + r.BytesDown)
		if tee != nil {
			tee(r)
		}
		sink.Consume(r)
		return sink.Err == nil
	})
	if err == nil {
		err = sink.Err
	}
	if err == nil {
		err = sink.W.Flush()
	}
	if err == nil {
		err = bw.Flush()
	}
	return stats, volume, err
}

// simulateBackend replays the collected arrivals and prints the load
// response to stderr: overall counts and delay quantiles, then per-node
// utilization. A compiled scenario contributes its backend section —
// preset, timeline events, surges and report windows — with an explicit
// -backend preset overriding just the sizing.
func simulateBackend(ctx context.Context, preset string, comp *insidedropbox.CompiledScenario, reqs []backend.Request) error {
	backend.SortRequests(reqs)
	var be scenario.CompiledBackend
	if comp != nil && comp.Backend != nil {
		be = *comp.Backend
	}
	if preset != "" {
		be.Preset = preset
	}
	// Capacity is provisioned against the base load; surges amplify what
	// the deployment actually faces.
	cfg, err := be.Config(reqs)
	if err != nil {
		return err
	}
	rep, err := backend.Simulate(ctx, cfg, be.ApplySurges(reqs))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "backend %q: %d served / %d dropped / %d shed of %d requests; "+
		"queueing delay mean %v p95 %v p99 %v\n",
		be.Preset, rep.Served, rep.Dropped, rep.Shed, rep.Requests,
		rep.MeanDelay(), rep.DelayQuantile(0.95), rep.DelayQuantile(0.99))
	for _, wr := range rep.Windows {
		fmt.Fprintf(os.Stderr, "  window %-12s served %-8d dropped %-6d p95 delay %v\n",
			wr.Name, wr.Served, wr.Dropped, time.Duration(wr.Delay.Quantile(0.95)))
	}
	for _, n := range rep.Nodes {
		util := "unbounded"
		if n.Concurrency > 0 {
			util = fmt.Sprintf("%.1f%% of %d slots", 100*n.Utilization, n.Concurrency)
		}
		fmt.Fprintf(os.Stderr, "  %-12s served %-8d dropped %-6d queue max %-6d util %s\n",
			n.Name, n.Served, n.Dropped+n.Shed, n.QueueMax, util)
	}
	return nil
}
