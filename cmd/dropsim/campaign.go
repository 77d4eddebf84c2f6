package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"insidedropbox"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/cli"
	"insidedropbox/internal/telemetry"
)

// campaignSpec assembles the checkpointable campaign description from the
// shared flag vocabulary. Anonymize matches dropsim's default export:
// client addresses are replaced with stable opaque tokens, exactly as the
// flag-driven streaming path does.
func campaignSpec(vp string, scale float64, seed int64, shards int, devScale float64, profile, format string) campaign.Spec {
	return campaign.Spec{
		VP:           vp,
		Scale:        scale,
		Seed:         seed,
		Shards:       shards,
		DevicesScale: devScale,
		Profile:      profile,
		Format:       format,
		Anonymize:    true,
	}
}

// crashAfterShard reads the DROPSIM_CRASH_AFTER_SHARD kill-injection
// hook: when set to N, the process hard-exits (status 137, no cleanup —
// the scripted stand-in for SIGKILL) after N shards have committed their
// checkpoint entries. CI's campaign job uses it to prove a killed run
// resumes to byte-identical output.
func crashAfterShard() func(shard int) {
	n, err := strconv.Atoi(os.Getenv("DROPSIM_CRASH_AFTER_SHARD"))
	if err != nil || n < 1 {
		return nil
	}
	done := 0
	return func(shard int) {
		if done++; done >= n {
			fmt.Fprintf(os.Stderr, "crash injection: killing after %d shards\n", done)
			os.Exit(137)
		}
	}
}

// runCheckpointed is the -checkpoint path of the main dropsim command: a
// single-process campaign run with per-shard checkpoint/resume, workers
// shards at a time on the fleet engine's pool.
func runCheckpointed(ctx context.Context, spec campaign.Spec, dir, out string, workers int, resume bool, manifest string) {
	rec := newCampaignRecorder(spec, dir)
	res, err := campaign.Run(ctx, campaign.Config{
		Spec:       spec,
		Dir:        dir,
		Out:        out,
		Jobs:       workers,
		Resume:     resume,
		AfterShard: crashAfterShard(),
		Observer: func(ev campaign.Event) {
			campaignProgress(ev)
			if ev.Stage == "shard" {
				rec.observe(insidedropbox.ShardEvent{VP: spec.VP, Shard: ev.Shard, Shards: ev.Total,
					Records: ev.Records, Elapsed: ev.Elapsed})
			}
		},
	})
	if err != nil {
		cli.Exit(ctx, "campaign", err)
	}
	if manifest != "" {
		if err := rec.saveCampaign(manifest, res); err != nil {
			cli.Exit(ctx, "writing manifest", err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d flow records -> %s (%d bytes, hash %s; %d shards resumed, %d generated)\n",
		spec.VP, res.Records, res.ExportPath, res.ExportBytes, res.StreamHash, res.ResumedShards, res.GeneratedShards)
}

// campaignProgress prints one stderr line per completed shard or merge.
func campaignProgress(ev campaign.Event) {
	switch ev.Stage {
	case "resume":
		fmt.Fprintf(os.Stderr, "  shard %d/%d resumed from checkpoint\n", ev.Done, ev.Total)
	case "shard":
		fmt.Fprintf(os.Stderr, "  shard %d done (%d/%d, %s records)\n",
			ev.Shard, ev.Done, ev.Total, cli.Count(int64(ev.Records)))
	case "merge":
		fmt.Fprintf(os.Stderr, "  merged %d shards\n", ev.Total)
	}
}

// newCampaignRecorder starts the run manifest of a checkpointed campaign:
// the same recorder, spec rendering and per-shard timings as the straight
// export's, plus the campaign directory.
func newCampaignRecorder(spec campaign.Spec, dir string) *manifestRecorder {
	m := manifestSpec(spec.VP, spec.Scale, spec.Shards, spec.DevicesScale, spec.Format, spec.Profile)
	m["campaign_dir"] = dir
	return newManifestRecorder(spec.Seed, m)
}

// saveCampaign writes the manifest with the export's stream hash and — on
// resumed runs — the checkpoint resume record.
func (r *manifestRecorder) saveCampaign(path string, res *campaign.Result) error {
	if res.ResumedShards > 0 {
		r.m.Resume = &telemetry.ResumeInfo{Checkpoint: r.m.Spec["campaign_dir"], ResumedShards: res.ResumedShards}
	}
	return r.save(path, res.StreamHash)
}

// campaignMain dispatches the `dropsim campaign plan|run|merge`
// subcommands — the multi-process fan-out flow. plan splits the shard
// space into job ranges and records them; run executes one planned job
// (its own checkpoint file, so concurrent job processes never contend);
// merge folds the completed parts into the final export.
func campaignMain(args []string) {
	if len(args) < 1 {
		campaignUsage()
		os.Exit(2)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	switch args[0] {
	case "plan":
		campaignPlan(args[1:])
	case "run":
		campaignRun(ctx, args[1:])
	case "merge":
		campaignMerge(ctx, args[1:])
	default:
		fmt.Fprintf(os.Stderr, "unknown campaign subcommand %q\n", args[0])
		campaignUsage()
		os.Exit(2)
	}
}

func campaignUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  dropsim campaign plan  -dir DIR -jobs N [-vp VP] [-scale F] [-seed N] [-shards N]
                         [-devices-scale F] [-profile NAME] [-format FMT]
  dropsim campaign run   -dir DIR -job N [-resume]
  dropsim campaign merge -dir DIR [-o FILE] [-manifest FILE]`)
}

func campaignPlan(args []string) {
	fs := flag.NewFlagSet("campaign plan", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (required)")
	jobs := fs.Int("jobs", 1, "number of shard-range jobs to split the campaign into")
	vp := fs.String("vp", "home1", "vantage point: "+strings.Join(cli.VantageNames(), ", "))
	scale := fs.Float64("scale", 0.05, "population scale versus the paper")
	seed := fs.Int64("seed", 42, "random seed")
	shards := fs.Int("shards", 1, "deterministic population shards (part of the result)")
	devScale := fs.Float64("devices-scale", 1, "population multiplier on top of -scale")
	profile := fs.String("profile", "", "capability profile overriding the VP's client version: "+
		strings.Join(insidedropbox.CapabilityNames(), "|"))
	format := fs.String("format", "csv", "final export format: csv, binary, or binary-flate")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "campaign plan: -dir is required")
		os.Exit(2)
	}
	spec := campaignSpec(*vp, *scale, *seed, *shards, *devScale, *profile, *format)
	plan, err := campaign.WritePlan(*dir, spec, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign plan:", err)
		os.Exit(1)
	}
	fmt.Printf("planned %d jobs over %d shards in %s\n", len(plan.Jobs), plan.Spec.Shards, *dir)
	for _, j := range plan.Jobs {
		fmt.Printf("  job %d: shards [%d, %d)\n", j.Job, j.Lo, j.Hi)
	}
}

func campaignRun(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory holding the plan (required)")
	job := fs.Int("job", -1, "planned job index to execute (required)")
	resume := fs.Bool("resume", false, "continue this job from its checkpoint")
	fs.Parse(args)
	if *dir == "" || *job < 0 {
		fmt.Fprintln(os.Stderr, "campaign run: -dir and -job are required")
		os.Exit(2)
	}
	res, err := campaign.RunJob(ctx, *dir, *job, campaign.JobOptions{
		Resume:     *resume,
		Observer:   campaignProgress,
		AfterShard: crashAfterShard(),
	})
	if err != nil {
		cli.Exit(ctx, fmt.Sprintf("campaign job %d", *job), err)
	}
	fmt.Fprintf(os.Stderr, "job %d: %d shards done (%d resumed, %d generated)\n",
		*job, res.ResumedShards+res.GeneratedShards, res.ResumedShards, res.GeneratedShards)
}

func campaignMerge(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("campaign merge", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory holding the plan and completed parts (required)")
	out := fs.String("o", "", "final export path (default DIR/export.<ext>)")
	manifest := fs.String("manifest", "", "write a run manifest to this file")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "campaign merge: -dir is required")
		os.Exit(2)
	}
	plan, err := campaign.LoadPlan(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign merge:", err)
		os.Exit(1)
	}
	res, err := campaign.Merge(ctx, plan.Spec, *dir, *out)
	if err != nil {
		cli.Exit(ctx, "campaign merge", err)
	}
	if *manifest != "" {
		if err := newCampaignRecorder(plan.Spec, *dir).saveCampaign(*manifest, res); err != nil {
			cli.Exit(ctx, "writing manifest", err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d flow records -> %s (%d bytes, hash %s)\n",
		plan.Spec.VP, res.Records, res.ExportPath, res.ExportBytes, res.StreamHash)
}
