// What-if profiles: replay one vantage-point population under several
// client capability profiles and compare the storage traffic each would
// have produced — the generalization of the paper's Sec. 6 bundling
// analysis (examples/bundling-comparison) to capabilities Dropbox never
// shipped: no deduplication, no delta encoding, 16 MB chunks, a fully
// pipelined storage protocol.
//
// The what-if lab is an opt-in registry experiment: configuring profiles
// on the Spec (WithProfiles) opts it into the run. The first profile is
// the baseline the delta table references. The two Dropbox presets
// reproduce the historical clients bit for bit, so the dropbox-1.2.52 row
// is exactly the Campus 1 population the other experiments measure.
package main

import (
	"context"
	"fmt"
	"log"

	"insidedropbox"
)

func main() {
	profiles := insidedropbox.CapabilityPresets()

	// A small Campus 1 fraction keeps the example fast (each of the six
	// profiles replays the full 42-day population at this scale); the
	// other vantage points' fractions must be > 0 too, though the lab
	// never generates them. WithShards(4) spreads each profile's replay
	// across four deterministic population shards.
	results, err := insidedropbox.Run(context.Background(),
		insidedropbox.Spec{Seed: 2012},
		insidedropbox.WithScale(insidedropbox.ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}),
		insidedropbox.WithExperiments("whatif"),
		insidedropbox.WithProfiles(profiles...),
		insidedropbox.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	fmt.Println(r.Text)

	// The metrics carry every absolute value keyed by profile name, so the
	// deltas recompute from the Result alone.
	base := profiles[0].Name
	vol := func(p string) float64 { return r.Metrics["store_gb_"+p] + r.Metrics["retrieve_gb_"+p] }
	fmt.Println("Reading the table:")
	fmt.Printf("  baseline %s moved %.2f GB of storage traffic in %.0f flows\n",
		base, vol(base), r.Metrics["storage_flows_"+base])
	for _, p := range profiles[1:] {
		name := p.Name
		fmt.Printf("  %-16s volume %+6.1f%%  ops %+6.1f%%  store latency %+6.1f%%\n",
			name,
			100*(vol(name)/vol(base)-1),
			100*(r.Metrics["ops_"+name]/r.Metrics["ops_"+base]-1),
			100*(r.Metrics["store_med_ms_"+name]/r.Metrics["store_med_ms_"+base]-1))
	}
	fmt.Println("\nNote: profiles that change operation structure resample the heavy-tailed")
	fmt.Println("file sizes (EXPERIMENTS.md, determinism contract point 8), so volume deltas")
	fmt.Println("at this example's small scale carry sampling noise of a few tail files —")
	fmt.Println("grow the population (its scale, the one size knob) to tighten them.")
}
