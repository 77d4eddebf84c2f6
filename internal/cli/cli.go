// Package cli is the shared command-line surface of the repo's binaries:
// one flag vocabulary bound to the facade's Spec, one bound to a
// population, one progress printer and one signal-aware context, so
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
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
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
	seed       *int64
	quick      *bool
	skipPacket *bool
	shards     *int
	workers    *int
	only       *string
	profiles   *string
	scenario   *string
	out        *string
}

// BindSpec registers the shared campaign flags on fs.
func BindSpec(fs *flag.FlagSet) *SpecFlags {
	return &SpecFlags{
		seed:       fs.Int64("seed", 2012, "campaign random seed"),
		quick:      fs.Bool("quick", false, "small populations and packet labs"),
		skipPacket: fs.Bool("skip-packet", false, "skip the packet-level labs (Figs. 1, 9, 10, 19)"),
		shards:     fs.Int("shards", 1, "population shards per vantage point (1 = historical datasets)"),
		workers:    fs.Int("workers", 0, "concurrent shard workers (0 = GOMAXPROCS; never changes results)"),
		only:       fs.String("only", "", "comma-separated experiment IDs or globs (e.g. table3,figure*); empty = default catalogue"),
		profiles: fs.String("profiles", "", "comma-separated capability profiles for the what-if lab, first = baseline ("+
			strings.Join(insidedropbox.CapabilityNames(), ",")+"; setting this opts the lab in)"),
		scenario: fs.String("scenario", "", "run the scenario/* experiments under this declarative spec file (setting this opts them in; backend/* replays its population)"),
		out:      fs.String("out", "results", "output directory for rendered results"),
	}
}

// Spec resolves the parsed flags into a Spec and checks it as Run would
// (insidedropbox.Spec.Check): profile parsing errors and every refusal
// Run makes surface here, after flag.Parse and before anything runs.
func (f *SpecFlags) Spec() (insidedropbox.Spec, error) {
	spec := insidedropbox.Spec{
		Seed:       *f.seed,
		Quick:      *f.quick,
		SkipPacket: *f.skipPacket,
		Fleet:      insidedropbox.FleetConfig{Shards: *f.shards, Workers: *f.workers},
		ResultsDir: *f.out,
	}
	if *f.profiles != "" {
		profiles, err := insidedropbox.ParseProfiles(*f.profiles)
		if err != nil {
			return spec, err
		}
		spec.Profiles = profiles
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
		// so flags that configure a lab must join it here instead of being
		// silently ignored.
		if *f.profiles != "" {
			spec.Experiments = append(spec.Experiments, "whatif")
		}
		if spec.Scenario != nil {
			spec.Experiments = append(spec.Experiments, experiments.ScenarioPatterns(spec.Scenario)...)
		}
	}
	return spec, spec.Check()
}

// Exit terminates the process after a run error: exit 130 for an
// interrupted context (so scripts can distinguish ^C from real failures),
// 1 otherwise. Shared by every binary so they behave alike. Profile sinks
// started via ProfileFlags.Start are stopped first, so an interrupted or
// failed run still writes its profiles and final telemetry line. The
// message is prefixed with what, unless err already starts with it.
func Exit(ctx context.Context, what string, err error) {
	runStops()
	if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", what, err)
		os.Exit(130)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, what+": ") {
		msg = what + ": " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
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

// PopulationFlags binds the population flag vocabulary of dropsim's export,
// with or without -checkpoint: -vp -scale -seed -shards -profile, checked
// and resolved by fleet.PopulationSpec. -scale is the one
// population-size knob.
type PopulationFlags struct{ spec fleet.PopulationSpec }

// BindPopulation registers the population flags on fs.
func BindPopulation(fs *flag.FlagSet) *PopulationFlags {
	f := new(PopulationFlags)
	fs.StringVar(&f.spec.VP, "vp", "home1", "vantage point: "+strings.Join(workload.VantagePoints(), ", "))
	fs.Float64Var(&f.spec.Scale, "scale", 0.05, "fraction of the paper's population (1 = Table 2), > 0 and at most 16M subscribers")
	fs.Int64Var(&f.spec.Seed, "seed", 42, "random seed")
	fs.IntVar(&f.spec.Shards, "shards", 1, "deterministic population shards (part of the result)")
	fs.StringVar(&f.spec.Profile, "profile", "", "capability profile replacing the VP's calibrated client: "+
		strings.Join(insidedropbox.CapabilityNames(), "|"))
	return f
}

// Population checks the parsed flags and returns them with the population
// and fleet configuration they name.
func (f *PopulationFlags) Population() (fleet.PopulationSpec, fleet.Population, fleet.Config, error) {
	pop, fc, err := f.spec.Resolve()
	return f.spec, pop, fc, err
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
