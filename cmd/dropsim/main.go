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
//	        [-shards N] [-workers N] [-profile NAME]
//	        [-format csv|binary|binary-flate]
//	        [-summary] [-o FILE]
//	        [-checkpoint DIR [-resume]]
//	        [-scenario FILE]
//	        [-manifest FILE] [-pprof ADDR] [-cpuprofile FILE]
//	        [-memprofile FILE] [-telemetry-interval DUR]
//
// -workers bounds how many shards generate at once on the fleet engine's
// worker pool, for the straight export and the -checkpoint campaign alike.
//
// -o names the export file. Without it the export goes to stdout, or, with
// -checkpoint DIR, to DIR/export.csv, .idb or .idbf by -format.
//
// -checkpoint DIR makes the export a durable campaign (internal/campaign):
// each shard lands in a part file under DIR with a checkpoint entry, and
// one merger streams the committed parts, in shard order, into the export
// while later shards generate. A shard that fails ends the run at its
// first error, with no retry in the process. A run that is killed, fails
// or is cancelled (^C) leaves its committed shards and no export; -resume
// continues it and writes the bytes an uninterrupted run does. It takes
// no -summary or -scenario.
//
// -vp, -scale (a fraction of the paper's population, 1 being Table 2's),
// -seed, -shards and -profile name the population. -scale is the one
// size knob: > 0, and at most the 16,000,000 subscribers the 10/8 address
// plan holds (workload.CheckScale). The flags follow the rules of a
// campaign spec and a scenario base (fleet.PopulationSpec): an
// out-of-range value exits 2 on every path.
//
// -scenario compiles a declarative scenario spec (see scenarios/) and
// takes its population from there: the spec's base section replaces -vp,
// -scale, -shards and -profile, its defaults included (home1, 0.08, one
// shard, the vantage point's own client); a non-zero base.seed replaces
// -seed. Its cohorts section splits the population into behavioral
// cohorts. dropsim only exports: a spec backend section is not replayed,
// and one stderr line names `experiments -scenario FILE`, which runs it.
//
// binary/binary-flate block encoding runs on GOMAXPROCS workers (inline,
// with no worker goroutines, when GOMAXPROCS is 1). The stream is
// byte-identical for every worker count, so the manifest stream hash is
// stable across GOMAXPROCS settings.
//
// -manifest writes a run manifest (the schema-versioned JSON of
// insidedropbox.RunManifest) with the population that ran — with
// -scenario, the scenario's, not the flags' — the FNV-1a hash of the
// serialized stream, per-shard timings and a telemetry snapshot: the
// reproducibility record the telemetry-on/off golden check in CI compares.
// With -summary no record stream is serialized, so the manifest carries
// no stream hash.
//
// -summary prints fleet.Summary's metrics (the streaming summary,
// insidedropbox.Summarize) and, on stderr, the generation ground truth:
// records, Dropbox devices and households. It serializes no records, so
// it refuses -format (exit 2), and its manifest spec records no format.
//
// Records stream from the generator shards straight into the trace
// writer over the facade's record iterator, so memory stays bounded
// however large -scale grows the population. -shards
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
// -profile replaces the vantage point's calibrated client (the preset the
// paper observed there: dropbox-1.2.52, or dropbox-1.4.0 for
// campus1-junjul) with a named capability profile — the per-dataset entry
// point to the what-if engine. Naming the vantage point's own preset
// changes no byte; the manifest records the name -profile gave, "" without
// it.
package main

import (
	"bufio"
	"cmp"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"sync"

	"insidedropbox"
	"insidedropbox/internal/analysis"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/cli"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
)

func main() {
	popFlags := cli.BindPopulation(flag.CommandLine)
	workers := flag.Int("workers", 0, "concurrent shard workers (0 = GOMAXPROCS; never changes results)")
	format := flag.String("format", "csv", "trace format: csv (public-release compatible), binary (columnar, ~3.5x smaller), or binary-flate (compressed archival with seek index)")
	scenarioPath := flag.String("scenario", "", "declarative scenario spec file; its base section overrides -vp/-scale/-seed/-shards/-profile")
	summary := flag.Bool("summary", false, "print streaming aggregates instead of trace records")
	out := flag.String("o", "", "output file (default stdout; with -checkpoint, DIR/export.<ext>)")
	manifest := flag.String("manifest", "", "write a run manifest (stream hash, shard timings, telemetry snapshot) to this file")
	checkpoint := flag.String("checkpoint", "", "campaign directory for per-shard checkpoint/resume (enables the multi-core campaign runner)")
	resume := flag.Bool("resume", false, "continue a checkpointed campaign from where it stopped (requires -checkpoint)")
	prof := cli.BindProfile(flag.CommandLine)
	flag.Parse()
	// Parsing stops at the first argument that is not a flag: refuse it,
	// rather than run without the flags after it.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q: dropsim takes flags only\n", flag.Arg(0))
		os.Exit(2)
	}

	// The checkpointed campaign path owns serialization (parts + merge),
	// so the live-stream features cannot combine with it.
	if *checkpoint != "" {
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{*summary, "-summary"},
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
	if *summary {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "format" {
				fmt.Fprintln(os.Stderr, "-summary serializes no records; it cannot combine with -format")
				os.Exit(2)
			}
		})
		*format = "" // so the manifest records no format
	}

	popSpec, pop, fc, err := popFlags.Population()
	if err = cmp.Or(err, fleet.CheckWorkers(*workers)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fc.Workers = *workers
	var comp *insidedropbox.CompiledScenario
	if *scenarioPath != "" {
		if pop, fc, comp, err = scenarioPopulation(*scenarioPath, pop, fc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		popSpec = comp.Spec.Base
		if comp.Backend != nil {
			fmt.Fprintf(os.Stderr, "scenario %q: dropsim exports the population only; its backend section runs under experiments -scenario %s\n",
				comp.Spec.Name, *scenarioPath)
		}
	}
	// The manifest records the population that runs: with -scenario, the
	// scenario's.
	mspec := manifestSpec(popSpec, pop, fc, *format)
	mspec["workers"] = strconv.Itoa(*workers)

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	if *checkpoint != "" {
		ctx, stop := cli.SignalContext()
		defer stop()
		mspec["campaign_dir"] = *checkpoint
		runCheckpointed(ctx, campaign.NewSpec(popSpec, *format, true), mspec, *checkpoint, *out, *workers, *resume, *manifest)
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
	if *manifest != "" {
		if comp != nil {
			mspec["scenario"] = comp.Spec.Name
		}
		rec = newManifestRecorder(pop.Seed, mspec)
		fc.Observer = rec.observe
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	if *summary {
		printSummary(ctx, pop, fc, w)
		// An analysis-only run serializes no record stream: the manifest
		// carries the shard timings and no stream hash.
		if rec != nil {
			if err := rec.save(*manifest, ""); err != nil {
				cli.Exit(ctx, "writing manifest", err)
			}
		}
		return
	}
	streamHash := fnv.New64a()
	if rec != nil {
		w = io.MultiWriter(w, streamHash)
	}

	stats, volume, err := streamTraces(ctx, pop, fc, w, traceFormat)
	if err != nil {
		cli.Exit(ctx, "writing traces", err)
	}
	if rec != nil {
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

// scenarioPopulation compiles the scenario file at path under the flag
// seed and returns the population that replaces the flags' (see -scenario
// above). Compilation is a pure function of (spec, seed).
func scenarioPopulation(path string, pop fleet.Population, fc fleet.Config) (fleet.Population, fleet.Config, *insidedropbox.CompiledScenario, error) {
	sp, err := insidedropbox.LoadScenario(path)
	if err != nil {
		return pop, fc, nil, err
	}
	comp, err := insidedropbox.CompileScenario(sp, pop.Seed)
	if err != nil {
		return pop, fc, nil, err
	}
	fc.Shards = comp.Fleet.Shards
	return fleet.Population{VP: comp.VP, Seed: comp.Seed}, fc, comp, nil
}

// manifestSpec renders the population every dropsim manifest records,
// whichever path ran: spec is what was asked for (its profile, "" for the
// vantage point's own client), pop and fc what spec resolved to, format
// the trace format ("" for -summary, which serializes no records and
// records no format). Callers add what only they know.
func manifestSpec(spec fleet.PopulationSpec, pop fleet.Population, fc fleet.Config, format string) map[string]string {
	m := map[string]string{
		"vp":      pop.VP.Name,
		"scale":   strconv.FormatFloat(pop.VP.Scale, 'g', -1, 64),
		"shards":  strconv.Itoa(fc.Shards),
		"profile": spec.Profile,
	}
	if format != "" {
		m["format"] = format
	}
	return m
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
	return r.m.Save(path)
}

// printSummary runs the bounded-memory aggregation path and renders the
// streaming metrics.
func printSummary(ctx context.Context, pop fleet.Population, fc fleet.Config, w io.Writer) {
	sum, stats, err := insidedropbox.Summarize(ctx, pop.VP, pop.Seed, fc)
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
	fmt.Fprintf(os.Stderr, "%s: %d flow records aggregated, %d Dropbox devices in %d households (ground truth)\n",
		stats.Cfg.Name, stats.Records, stats.Devices, stats.Households)
}

// streamTraces pipes records from the generator shards straight into the
// format's anonymizing trace writer through a WriterSink, without
// materializing the dataset. The sink latches the first write error and
// stops the stream; a cancelled context stops it at shard granularity.
func streamTraces(ctx context.Context, pop fleet.Population, fc fleet.Config, w io.Writer,
	format traces.Format) (insidedropbox.FleetStats, float64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	sink := &insidedropbox.WriterSink{W: format.New(bw, true, 0)}
	var volume float64
	stats, err := insidedropbox.StreamRecords(ctx, pop.VP, pop.Seed, fc, func(r *insidedropbox.FlowRecord) bool {
		volume += float64(r.BytesUp + r.BytesDown)
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
