// Command experiments regenerates the paper's tables and figures through
// the unified experiment API and writes them to a results directory.
//
// Usage:
//
//	experiments [-seed N] [-out DIR] [-quick] [-skip-packet]
//	            [-only IDS] [-shards N] [-workers N]
//	            [-profiles LIST] [-scenario FILE] [-list]
//	            [-pprof ADDR] [-cpuprofile FILE] [-memprofile FILE]
//	            [-telemetry-interval DUR]
//	            [-validate-manifest FILE] [-validate-scenario FILE]
//
// Every run with -out writes a machine-readable manifest.json next to
// the rendered results (seed, spec, environment, per-experiment and
// per-shard timings, telemetry snapshot). -validate-manifest checks such
// a file, or a dropsim -manifest, against the schema; its stream_hash
// field is plain JSON (jq -er .stream_hash FILE).
//
// -only selects a catalogue subset by ID or glob ("table3", "figure*",
// "table4,figure9"); without it the full default catalogue runs. -shards
// routes campaign generation through the sharded fleet engine (changing
// the population sample but not its size, which -quick alone picks; one
// vantage point's streaming summary at any size is `dropsim -scale F
// -summary`). Each opt-in lab has one knob, which adds it to the default
// selection and to -only: -profiles LIST the capability what-if lab
// (Campus 1 under the profiles, compared against the first; `-only
// whatif` alone runs the full preset catalogue), and -scenario FILE the
// scenario/* experiments under a declarative spec (cohort mixes, backend
// timelines — see scenarios/; scenario/flash-crowd only for a spec with a
// backend section). The backend/* lab, selected with -only,
// replays that spec's population under its backend.preset, or without a
// spec Home 1 under the provisioned preset. -validate-scenario strictly
// validates a spec file and exits, the CI gate for the committed
// catalogue. ^C cancels cleanly at fleet-shard granularity.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"insidedropbox"
	"insidedropbox/internal/cli"
)

func main() {
	flags := cli.BindSpec(flag.CommandLine)
	prof := cli.BindProfile(flag.CommandLine)
	list := flag.Bool("list", false, "print the experiment catalogue and exit")
	validateManifest := flag.String("validate-manifest", "", "validate a manifest.json against the current schema and exit")
	validateScenario := flag.String("validate-scenario", "", "strictly validate a scenario spec file and exit")
	flag.Parse()
	// Parsing stops at the first argument that is not a flag: refuse it,
	// rather than run without the flags after it.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q: experiments takes flags only\n", flag.Arg(0))
		os.Exit(2)
	}

	if *validateScenario != "" {
		sp, err := insidedropbox.LoadScenario(*validateScenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s\n", *validateScenario, sp.Summary())
		return
	}

	if *validateManifest != "" {
		m, err := insidedropbox.LoadRunManifest(*validateManifest)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s: schema %d, seed %d, %d experiments, %d shards, %d counters\n",
			*validateManifest, m.Schema, m.Seed, len(m.Experiments), len(m.Shards), len(m.Telemetry.Counters))
		return
	}
	if *list {
		for _, e := range insidedropbox.Experiments() {
			kind := ""
			switch {
			case e.Needs.Packet:
				kind = "  [packet]"
			case e.Needs.OptIn:
				kind = "  [opt-in]"
			}
			fmt.Printf("%-10s %s%s\n", e.ID, e.Title, kind)
		}
		return
	}

	spec, err := flags.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec.Progress = cli.Progress(os.Stdout)

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProf()

	ctx, stop := cli.SignalContext()
	defer stop()

	start := time.Now()
	results, err := insidedropbox.Run(ctx, spec)
	if err != nil {
		cli.Exit(ctx, fmt.Sprintf("run (%d experiments completed)", len(results)), err)
	}
	fmt.Printf("wrote %d experiments to %s/ in %v\n",
		len(results), spec.ResultsDir, time.Since(start).Round(time.Millisecond))
	for _, r := range results {
		fmt.Printf("  %-10s %s\n", r.ID, r.Title)
	}
}
