package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"

	"insidedropbox"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/cli"
	"insidedropbox/internal/telemetry"
)

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
func runCheckpointed(ctx context.Context, spec campaign.Spec, mspec map[string]string, dir, out string, workers int, resume bool, manifest string) {
	rec := newManifestRecorder(spec.Seed, mspec)
	res, err := campaign.Run(ctx, campaign.Config{
		Spec:       spec,
		Dir:        dir,
		Out:        out,
		Workers:    workers,
		Resume:     resume,
		AfterShard: crashAfterShard(),
		Observer: func(ev campaign.Event) {
			campaignProgress(os.Stderr, ev)
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

// campaignProgress prints one line to w per resumed, completed or merged shard.
func campaignProgress(w io.Writer, ev campaign.Event) {
	switch ev.Stage {
	case "resume":
		fmt.Fprintf(w, "  shard %d/%d resumed from checkpoint\n", ev.Shard, ev.Total)
	case "shard":
		fmt.Fprintf(w, "  shard %d done (%d/%d, %s records)\n",
			ev.Shard, ev.Done, ev.Total, cli.Count(int64(ev.Records)))
	case "merge":
		fmt.Fprintf(w, "  merged %d shards\n", ev.Total)
	}
}

// saveCampaign writes the manifest with the export's stream hash and — on
// resumed runs — the checkpoint resume record.
func (r *manifestRecorder) saveCampaign(path string, res *campaign.Result) error {
	if res.ResumedShards > 0 {
		r.m.Resume = &telemetry.ResumeInfo{Checkpoint: r.m.Spec["campaign_dir"], ResumedShards: res.ResumedShards}
	}
	return r.save(path, res.StreamHash)
}
