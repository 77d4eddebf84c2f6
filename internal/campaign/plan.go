package campaign

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"insidedropbox/internal/fleet"
)

// Plan is a campaign's multi-process job split: the spec plus the
// contiguous shard ranges each job owns. Plans are persisted in the
// campaign directory inside the same guarded envelope as checkpoints, so
// every process in the fan-out validates it is working on the same
// campaign.
type Plan struct {
	Spec Spec
	Jobs []fleet.ShardJob
}

const planName = "plan.ckpt"

// WritePlan validates the spec, splits its shards into up to jobs
// balanced ranges, and persists the plan into dir. Planning an already
// planned directory is an error unless the existing plan is identical
// (same fingerprint and split) — replanning a half-finished campaign
// differently would orphan its checkpoints.
func WritePlan(dir string, spec Spec, jobs int) (*Plan, error) {
	spec = spec.normalized()
	if _, err := spec.resolve(); err != nil {
		return nil, err
	}
	if jobs < 1 {
		return nil, fmt.Errorf("campaign: plan needs at least 1 job (got %d)", jobs)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: preparing campaign directory: %w", err)
	}
	p := &Plan{Spec: spec, Jobs: fleet.SplitJobs(spec.Shards, jobs)}
	path := filepath.Join(dir, planName)
	if _, err := os.Stat(path); err == nil {
		prev, err := LoadPlan(dir)
		if err != nil {
			return nil, err
		}
		if prev.Spec.Fingerprint() != spec.Fingerprint() || len(prev.Jobs) != len(p.Jobs) {
			return nil, fmt.Errorf("campaign: %s already holds a different plan (%d jobs, fingerprint %s) — use a fresh directory",
				dir, len(prev.Jobs), prev.Spec.Fingerprint())
		}
		return prev, nil
	}
	body := checkpointBody{
		Schema:      CheckpointSchema,
		Kind:        kindPlan,
		Fingerprint: spec.Fingerprint(),
		Spec:        &spec,
	}
	for _, j := range p.Jobs {
		body.Jobs = append(body.Jobs, [2]int{j.Lo, j.Hi})
	}
	if err := saveCheckpoint(path, body, nil); err != nil {
		return nil, fmt.Errorf("campaign: writing plan: %w", err)
	}
	return p, nil
}

// LoadPlan reads and validates a campaign directory's plan.
func LoadPlan(dir string) (*Plan, error) {
	body, err := readCheckpointFile(filepath.Join(dir, planName), kindPlan, "")
	if err != nil {
		return nil, err
	}
	if body.Spec == nil {
		return nil, fmt.Errorf("campaign: %s: plan carries no spec", filepath.Join(dir, planName))
	}
	spec := body.Spec.normalized()
	if _, err := spec.resolve(); err != nil {
		return nil, err
	}
	if got := spec.Fingerprint(); got != body.Fingerprint {
		return nil, fmt.Errorf("campaign: plan fingerprint %s does not match its own spec (%s) — the plan file is inconsistent", body.Fingerprint, got)
	}
	p := &Plan{Spec: spec}
	for i, jb := range body.Jobs {
		if jb[0] < 0 || jb[1] > spec.Shards || jb[0] >= jb[1] {
			return nil, fmt.Errorf("campaign: plan job %d has invalid shard range [%d, %d) for %d shards", i, jb[0], jb[1], spec.Shards)
		}
		p.Jobs = append(p.Jobs, fleet.ShardJob{Job: i, Lo: jb[0], Hi: jb[1]})
	}
	if len(p.Jobs) == 0 {
		return nil, fmt.Errorf("campaign: plan holds no jobs")
	}
	return p, nil
}

// JobOptions tunes one planned job's execution.
type JobOptions struct {
	// Resume permits continuing from the job's existing checkpoint.
	Resume bool
	// Observer / AfterShard as in Config.
	Observer   func(Event)
	AfterShard func(shard int)
}

// JobResult describes one completed planned job.
type JobResult struct {
	// Job is the executed shard range.
	Job fleet.ShardJob
	// ResumedShards counts shards satisfied from the job's checkpoint;
	// GeneratedShards counts shards generated by this run.
	ResumedShards, GeneratedShards int
}

// RunJob executes one planned job — the shard range plan.Jobs[job] — in
// this process, checkpointing into the job's own file so concurrent
// processes never contend. It does not merge; run Merge once every job
// has finished.
func RunJob(ctx context.Context, dir string, job int, opt JobOptions) (*JobResult, error) {
	p, err := LoadPlan(dir)
	if err != nil {
		return nil, err
	}
	if job < 0 || job >= len(p.Jobs) {
		return nil, fmt.Errorf("campaign: job %d out of range: the plan has %d jobs", job, len(p.Jobs))
	}
	cfg := Config{
		Spec:       p.Spec,
		Dir:        dir,
		Resume:     opt.Resume,
		Observer:   opt.Observer,
		AfterShard: opt.AfterShard,
	}
	r, err := newJobRunner(cfg, job, p.Jobs[job])
	if err != nil {
		return nil, err
	}
	if err := r.generate(ctx, p.Jobs[job].Lo, p.Jobs[job].Hi, 1); err != nil {
		return nil, err
	}
	return &JobResult{Job: p.Jobs[job], ResumedShards: r.resumed, GeneratedShards: r.genned}, nil
}

// newJobRunner builds a runner scoped to one planned job: it checkpoints
// into the job's own file, and the Resume gate considers only progress
// inside the job's shard range (another job's checkpoints are not this
// job's progress).
func newJobRunner(cfg Config, job int, jb fleet.ShardJob) (*runner, error) {
	r, err := newRunner(cfg, jobCheckpointName(job))
	if err == nil || cfg.Resume {
		return r, err
	}
	// Without Resume, newRunner rejects any checkpointed progress in the
	// directory. For a planned job that gate is too wide: sibling jobs
	// legitimately checkpoint into the same directory. Retry the load in
	// resume mode and apply the gate to this job's own range only.
	cfg.Resume = true
	r, err2 := newRunner(cfg, jobCheckpointName(job))
	if err2 != nil {
		return nil, err2
	}
	for sh := jb.Lo; sh < jb.Hi; sh++ {
		if _, ok := r.done[sh]; ok {
			return nil, fmt.Errorf("campaign: job %d already has checkpointed progress in %s (shard %d done); pass -resume to continue", job, cfg.Dir, sh)
		}
	}
	return r, nil
}
