// Package cli is the shared command-line surface of the repo's binaries:
// one flag vocabulary bound to the facade's Spec, one vantage-point
// resolver, one progress printer and one signal-aware context, so
// cmd/experiments and cmd/dropsim parse and behave alike instead of
// growing private flag dialects.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"insidedropbox"
	"insidedropbox/internal/workload"
)

// SignalContext returns a context cancelled by SIGINT/SIGTERM, so a ^C
// tears campaigns down at fleet-shard granularity instead of killing the
// process mid-write. A second signal kills the process immediately
// (signal.NotifyContext semantics).
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// SpecFlags binds the shared campaign flag vocabulary onto a FlagSet and
// resolves it into a Spec. Commands bind it once, parse, then call Spec.
type SpecFlags struct {
	fs         *flag.FlagSet
	seed       *int64
	quick      *bool
	skipPacket *bool
	shards     *int
	workers    *int
	only       *string
	fleetScale *float64
	whatif     *bool
	profiles   *string
	backend    *string
	scenario   *string
	out        *string
	checkpoint *string
	resume     *bool
}

// BindSpec registers the shared campaign flags on fs.
func BindSpec(fs *flag.FlagSet) *SpecFlags {
	return &SpecFlags{
		fs:         fs,
		seed:       fs.Int64("seed", 2012, "campaign random seed"),
		quick:      fs.Bool("quick", false, "small populations and packet labs"),
		skipPacket: fs.Bool("skip-packet", false, "skip the packet-level labs (Figs. 1, 9, 10, 19)"),
		shards:     fs.Int("shards", 1, "population shards per vantage point (1 = historical datasets)"),
		workers:    fs.Int("workers", 0, "concurrent shard workers (0 = GOMAXPROCS; never changes results)"),
		only:       fs.String("only", "", "comma-separated experiment IDs or globs (e.g. table3,figure*); empty = default catalogue"),
		fleetScale: fs.Float64("fleet-scale", 0, "also run the streaming fleet lab at this device multiplier (0 = off)"),
		whatif:     fs.Bool("whatif", false, "run the capability what-if lab (Campus 1 under -profiles)"),
		profiles: fs.String("profiles", strings.Join(insidedropbox.CapabilityNames(), ","),
			"comma-separated capability profiles for the what-if lab (first = baseline; setting this opts the lab in)"),
		backend: fs.String("backend", "", "run the backend capacity lab under this preset ("+
			strings.Join(insidedropbox.BackendPresets(), "|")+"; setting this opts the lab in)"),
		scenario:   fs.String("scenario", "", "run the scenario/* experiments under this declarative spec file (setting this opts them in)"),
		out:        fs.String("out", "results", "output directory for rendered results"),
		checkpoint: fs.String("checkpoint", "", "record each experiment's result to this file as it completes, enabling -resume"),
		resume:     fs.Bool("resume", false, "load results already recorded in -checkpoint instead of recomputing them"),
	}
}

// Spec resolves the parsed flags into a Spec (profile parsing errors
// surface here, after flag.Parse).
func (f *SpecFlags) Spec() (insidedropbox.Spec, error) {
	spec := insidedropbox.Spec{
		Seed:       *f.seed,
		Quick:      *f.quick,
		SkipPacket: *f.skipPacket,
		Fleet:      insidedropbox.FleetConfig{Shards: *f.shards, Workers: *f.workers},
		FleetScale: *f.fleetScale,
		Backend:    *f.backend,
		ResultsDir: *f.out,
		Checkpoint: *f.checkpoint,
		Resume:     *f.resume,
	}
	if *f.resume && *f.checkpoint == "" {
		return spec, errors.New("-resume requires -checkpoint")
	}
	if *f.scenario != "" {
		sp, err := insidedropbox.LoadScenario(*f.scenario)
		if err != nil {
			return spec, err
		}
		spec.Scenario = sp
	}
	if *f.only != "" {
		spec.Experiments = SplitPatterns(*f.only)
		// An explicit selection suppresses the Spec's opt-in defaulting,
		// so flags that ask for a lab must join it here instead of being
		// silently ignored.
		if *f.whatif {
			spec.Experiments = append(spec.Experiments, "whatif")
		}
		if *f.fleetScale > 0 {
			spec.Experiments = append(spec.Experiments, "fleet")
		}
		if *f.backend != "" {
			spec.Experiments = append(spec.Experiments, "backend/*")
		}
		if *f.scenario != "" {
			spec.Experiments = append(spec.Experiments, "scenario/*")
		}
	}
	// Profiles apply when the what-if lab was asked for (-whatif) or when
	// the user explicitly passed -profiles — e.g. alongside `-only whatif`,
	// where the flag would otherwise be silently ignored. (Setting
	// Spec.Profiles also opts the lab into a default selection, so the
	// default -profiles value must not apply unasked.)
	profilesWanted := *f.whatif
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "profiles" {
			profilesWanted = true
		}
	})
	if profilesWanted {
		profiles, err := insidedropbox.ParseProfiles(*f.profiles)
		if err != nil {
			return spec, err
		}
		spec.Profiles = profiles
	}
	return spec, nil
}

// Exit terminates the process after a run error: exit 130 for an
// interrupted context (so scripts can distinguish ^C from real failures),
// 1 otherwise. Shared by every binary so they behave alike. Profile sinks
// started via ProfileFlags.Start are stopped first, so an interrupted or
// failed run still writes its profiles and final telemetry line.
func Exit(ctx context.Context, what string, err error) {
	runStops()
	if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", what, err)
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	os.Exit(1)
}

// SplitPatterns splits a comma-separated pattern list, trimming blanks.
func SplitPatterns(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// VantageNames lists the resolvable vantage point names.
func VantageNames() []string { return workload.VantagePoints() }

// VantagePoint resolves a vantage point name and population scale into
// its calibrated config.
func VantagePoint(name string, scale float64) (insidedropbox.VPConfig, error) {
	if cfg, ok := workload.ByName(name, scale); ok {
		return cfg, nil
	}
	return insidedropbox.VPConfig{}, fmt.Errorf("unknown vantage point %q (valid: %s)",
		name, strings.Join(VantageNames(), ", "))
}

// Progress returns a Spec progress observer that prints one line per
// experiment to w — start, and completion with wall-clock or failure —
// plus, on multi-shard runs, one line per completed generation shard with
// live throughput and ETA.
func Progress(w io.Writer) func(insidedropbox.Progress) {
	return func(p insidedropbox.Progress) {
		switch {
		case p.ShardEvent():
			if p.Shards < 2 {
				return // single-shard VPs: the experiment lines suffice
			}
			line := fmt.Sprintf("        %s: shard %d/%d, %s records (%s rec/s",
				p.VP, p.ShardsDone, p.Shards, Count(p.Records), Count(int64(p.RecordsPerSec)))
			if p.ETA > 0 {
				line += ", ETA " + p.ETA.Round(time.Second).String()
			}
			fmt.Fprintln(w, line+")")
		case !p.Done:
			fmt.Fprintf(w, "[%2d/%d] %-10s %s ...\n", p.Index, p.Total, p.ID, p.Title)
		case p.Err != nil:
			fmt.Fprintf(w, "[%2d/%d] %-10s FAILED after %v: %v\n",
				p.Index, p.Total, p.ID, p.Elapsed.Round(time.Millisecond), p.Err)
		default:
			fmt.Fprintf(w, "[%2d/%d] %-10s done in %v\n",
				p.Index, p.Total, p.ID, p.Elapsed.Round(time.Millisecond))
		}
	}
}

// Count humanizes a count for progress lines (1234567 -> "1.2M").
func Count(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.0fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
