package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"insidedropbox/internal/golden"
)

// crashExit is the status the crash helper dies with — distinct from
// both success and ordinary test failure so the harness can tell an
// injected kill from a real bug.
const crashExit = 137

// TestCampaignCrashHelper is not a test: it is the subprocess body the
// crash-injection suite re-executes. Guarded by env so a normal `go
// test` run skips it. The helper runs a campaign with a crashAt hook
// that hard-kills the process (os.Exit, no deferred cleanup — the
// closest in-process stand-in for SIGKILL) when the injected stage and
// shard are reached.
func TestCampaignCrashHelper(t *testing.T) {
	if os.Getenv("CAMPAIGN_CRASH_HELPER") != "1" {
		t.Skip("crash helper: only runs re-executed")
	}
	var spec Spec
	if err := json.Unmarshal([]byte(os.Getenv("CAMPAIGN_SPEC")), &spec); err != nil {
		t.Fatalf("helper spec: %v", err)
	}
	stage := os.Getenv("CAMPAIGN_STAGE")
	shard, _ := strconv.Atoi(os.Getenv("CAMPAIGN_SHARD"))
	jobs, _ := strconv.Atoi(os.Getenv("CAMPAIGN_JOBS"))
	cfg := Config{
		Spec:   spec,
		Dir:    os.Getenv("CAMPAIGN_DIR"),
		Jobs:   jobs,
		Resume: os.Getenv("CAMPAIGN_RESUME") == "1",
		crashAt: func(st string, sh int) {
			if st == stage && sh == shard {
				os.Exit(crashExit)
			}
		},
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatalf("helper run: %v", err)
	}
}

// crashRun re-executes the test binary as a campaign process that kills
// itself at (stage, shard), asserting it did crash.
func crashRun(t *testing.T, dir string, spec Spec, stage string, shard, jobs int, resume bool) {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCampaignCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CAMPAIGN_CRASH_HELPER=1",
		"CAMPAIGN_SPEC="+string(specJSON),
		"CAMPAIGN_DIR="+dir,
		"CAMPAIGN_STAGE="+stage,
		"CAMPAIGN_SHARD="+strconv.Itoa(shard),
		"CAMPAIGN_JOBS="+strconv.Itoa(jobs),
	)
	if resume {
		cmd.Env = append(cmd.Env, "CAMPAIGN_RESUME=1")
	}
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != crashExit {
		t.Fatalf("crash at %s/shard %d: process err = %v (want exit %d)\n%s", stage, shard, err, crashExit, out)
	}
}

// TestResumeMatchesUninterrupted is the PR's correctness backbone: kill
// the campaign at shard completion, mid-checkpoint fsync, and mid-merge,
// resume, and require every resulting export to reproduce its legacy
// golden stream hash bit for bit. Killed processes leave no cleanup —
// stray .tmp files, committed checkpoints, and finished parts are
// exactly what a real SIGKILL leaves behind.
func TestResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash matrix is not -short")
	}
	for _, g := range golden.Streams {
		t.Run(g.Name, func(t *testing.T) {
			spec := goldenSpec(g).normalized()
			lastShard := spec.Shards - 1
			stages := []struct {
				stage string
				shard int
			}{
				// Kill right after a shard's checkpoint entry is durable
				// (the "arbitrary shard boundary" case).
				{"checkpoint", 0},
				// Kill after the part file landed but before its
				// checkpoint entry: the shard must regenerate.
				{"part", lastShard},
				// Kill mid-checkpoint-write, after the partial temp file
				// was fsynced: the previous checkpoint must survive.
				{"checkpoint-mid-write", lastShard},
				// Kill while the merge is streaming parts into the export.
				{"merge-mid-write", 0},
			}
			straight := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Jobs: 1})
			for _, st := range stages {
				t.Run(st.stage, func(t *testing.T) {
					dir := t.TempDir()
					crashRun(t, dir, spec, st.stage, st.shard, 2, false)
					res := mustRun(t, Config{Spec: spec, Dir: dir, Jobs: 2, Resume: true})
					if !g.MatchHex(res.StreamHash) {
						t.Fatalf("resume after %s kill: export hash = %s, want golden %s", st.stage, res.StreamHash, g.Hex())
					}
					// Byte-compare against the straight-through run too
					// (the hash pins it; this catches hash-path bugs).
					if !bytes.Equal(readExport(t, res), readExport(t, straight)) {
						t.Fatal("resumed export bytes differ from an uninterrupted run")
					}
				})
			}
		})
	}
}

// TestRepeatedKillsConverge chains several kills at different shard
// boundaries of one campaign directory — every intermediate state must
// resume, and the final export must still be golden.
func TestRepeatedKillsConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash chain is not -short")
	}
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	dir := t.TempDir()
	chain := []struct {
		stage string
		shard int
	}{
		{"checkpoint", 0},
		{"part", 2},
		{"checkpoint-mid-write", 3},
		{"merge-mid-write", 0},
	}
	// jobs=1 keeps the shard order deterministic so each injected stage
	// is guaranteed to still be pending when its run starts.
	for i, st := range chain {
		crashRun(t, dir, spec, st.stage, st.shard, 1, i > 0)
	}
	res := mustRun(t, Config{Spec: spec, Dir: dir, Jobs: 2, Resume: true})
	if want := golden.Home1FourShard.Hex(); !golden.Home1FourShard.MatchHex(res.StreamHash) {
		t.Fatalf("after %d kills, resumed export hash = %s, want %s", len(chain), res.StreamHash, want)
	}
}

// TestCrashLeavesLoadableState documents what a kill leaves behind: a
// valid checkpoint (never a torn one), and possibly stray .tmp files
// that the resumed run ignores.
func TestCrashLeavesLoadableState(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test is not -short")
	}
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	dir := t.TempDir()
	crashRun(t, dir, spec, "checkpoint-mid-write", 2, 1, false)

	// The mid-write kill left a stray temp next to a valid checkpoint.
	if _, err := os.Stat(filepath.Join(dir, checkpointName+".tmp")); err != nil {
		t.Fatalf("expected a stray checkpoint temp after the mid-write kill: %v", err)
	}
	own, all, err := loadCheckpoints(dir, checkpointName, spec.Fingerprint())
	if err != nil {
		t.Fatalf("checkpoint left by the kill must load cleanly: %v", err)
	}
	if len(all) == 0 || len(own) != len(all) {
		t.Fatalf("expected committed shard progress before the kill, got own=%d all=%d", len(own), len(all))
	}

	res := mustRun(t, Config{Spec: spec, Dir: dir, Resume: true})
	if want := golden.Home1FourShard.Hex(); !golden.Home1FourShard.MatchHex(res.StreamHash) {
		t.Fatalf("post-crash resume hash = %s, want %s", res.StreamHash, want)
	}
	if res.ResumedShards != len(all) {
		t.Fatalf("resume reused %d shards, checkpoint held %d", res.ResumedShards, len(all))
	}
}

// TestPlannedJobCrashResume runs the multi-process flow under injection:
// plan, crash job 0 mid-range, resume job 0, run job 1, merge — the
// golden hash must survive the whole dance.
func TestPlannedJobCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test is not -short")
	}
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	dir := t.TempDir()
	plan, err := WritePlan(dir, spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Job 0 owns shards [0, 2): kill it right after shard 0 checkpoints.
	helperJob(t, dir, 0, "checkpoint", 0, false)
	// Resume job 0 to completion, then run job 1 straight through.
	if _, err := RunJob(context.Background(), dir, 0, JobOptions{Resume: true}); err != nil {
		t.Fatalf("resuming job 0: %v", err)
	}
	if _, err := RunJob(context.Background(), dir, 1, JobOptions{}); err != nil {
		t.Fatalf("job 1: %v", err)
	}
	res, err := Merge(context.Background(), spec, dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden.Home1FourShard.Hex(); !golden.Home1FourShard.MatchHex(res.StreamHash) {
		t.Fatalf("planned crash-resume merge hash = %s, want %s", res.StreamHash, want)
	}
	if got := len(plan.Jobs); got != 2 {
		t.Fatalf("plan has %d jobs, want 2", got)
	}
}

// helperJob re-executes the binary as one planned job with a crash
// injection (see TestCampaignJobCrashHelper).
func helperJob(t *testing.T, dir string, job int, stage string, shard int, resume bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCampaignJobCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CAMPAIGN_JOB_HELPER=1",
		"CAMPAIGN_DIR="+dir,
		"CAMPAIGN_JOB="+strconv.Itoa(job),
		"CAMPAIGN_STAGE="+stage,
		"CAMPAIGN_SHARD="+strconv.Itoa(shard),
	)
	if resume {
		cmd.Env = append(cmd.Env, "CAMPAIGN_RESUME=1")
	}
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != crashExit {
		t.Fatalf("job %d crash at %s/shard %d: err = %v (want exit %d)\n%s", job, stage, shard, err, crashExit, out)
	}
}

// TestCampaignJobCrashHelper is the planned-job twin of
// TestCampaignCrashHelper (env-guarded, not a real test).
func TestCampaignJobCrashHelper(t *testing.T) {
	if os.Getenv("CAMPAIGN_JOB_HELPER") != "1" {
		t.Skip("job crash helper: only runs re-executed")
	}
	dir := os.Getenv("CAMPAIGN_DIR")
	job, _ := strconv.Atoi(os.Getenv("CAMPAIGN_JOB"))
	stage := os.Getenv("CAMPAIGN_STAGE")
	shard, _ := strconv.Atoi(os.Getenv("CAMPAIGN_SHARD"))

	p, err := LoadPlan(dir)
	if err != nil {
		t.Fatalf("helper plan: %v", err)
	}
	cfg := Config{
		Spec:   p.Spec,
		Dir:    dir,
		Resume: os.Getenv("CAMPAIGN_RESUME") == "1",
		crashAt: func(st string, sh int) {
			if st == stage && sh == shard {
				os.Exit(crashExit)
			}
		},
	}
	r, err := newJobRunner(cfg, job, p.Jobs[job])
	if err != nil {
		t.Fatalf("helper job runner: %v", err)
	}
	if err := r.generate(context.Background(), p.Jobs[job].Lo, p.Jobs[job].Hi, 1); err != nil {
		t.Fatalf("helper job run: %v", err)
	}
}
