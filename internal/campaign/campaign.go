// Package campaign is the process-level runner for continental-scale
// trace campaigns: the durable tier over the fleet engine. Scheduling,
// cancellation and shard telemetry are the engine's (fleet.ForEachShard on
// its one worker pool, or separate processes via the plan/run/merge flow);
// this package adds what durability costs — a part file and a checkpoint
// entry per shard, so an interrupted run resumes exactly where it stopped.
//
// The export is written by one ordered merger (merge.go), a consumer of
// committed shards rather than a second phase: it walks the shards in
// canonical order, waits until shard k has its checkpoint entry, streams
// that part into the export writer — block to block, columns re-blocked
// onto the export's grid, for the binary formats; a reused block of
// records at a time for CSV — and folds its generation stats from the
// checkpoint entry, while the pool is still generating shards k+1 onwards.
// Run starts it beside generate; Merge, for planned jobs, runs the same
// loop over a directory where every shard is already committed. When
// generation fails or is cancelled the merger stops with it and takes its
// half-written export along.
//
// The layout on disk is one campaign directory holding:
//
//   - parts/shard-NNNN.part — the shard's record stream in the binary
//     columnar codec (full fidelity, never anonymized);
//   - checkpoint.ckpt (and checkpoint-job-NNN.ckpt per planned job) —
//     schema-versioned, CRC-guarded progress records listing completed
//     shards with the part's size and CRC-32C, checked as the merge reads
//     it, and the shard's workload.ShardStats;
//   - plan.ckpt — the shard-range job split for multi-process fan-out.
//
// Every checkpoint carries the campaign spec's fingerprint, so a
// checkpoint from a different spec, a truncated file, a corrupted
// payload, or a stale schema all fail loudly — there is no silent
// partial resume. Writes are atomic (tmp + fsync + rename): a crash mid
// checkpoint-write leaves the previous valid checkpoint plus a stray
// .tmp that the next run ignores and overwrites.
//
// Determinism contract (EXPERIMENTS.md point 16): each shard's stream is
// a pure function of (seed, shard, nshards) and parts are concatenated
// in canonical shard order by the merger, so the job count, the order the
// pool ran the shards in, whether the merger ran beside generation or
// after it, the process count, GOMAXPROCS, and any kill/resume history
// never change a byte of the final export — only wall-clock time. The
// per-shard generation stats are folded in shard-index order, as
// fleet.StreamRecords folds them. The crash-injection suite pins all of
// this against the legacy golden stream hashes.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Campaign telemetry: checkpoint events and resume provenance feed the
// same counter registry every other subsystem reports through, so run
// manifests pick them up without campaign-specific plumbing. The last two
// say which side a run waited on: merge_wait_ns is the time the merger
// spent blocked on a shard not yet committed (near the run's wall time
// when generation is the bottleneck, near zero when the merge is), and
// merge_backlog the most committed-but-unmerged shards it ever had
// waiting (a high-water mark: the instantaneous value is zero at the end
// of every run).
var (
	mCheckpoints   = telemetry.NewCounter("campaign.checkpoints_written")
	mShardsResumed = telemetry.NewCounter("campaign.shards_resumed")
	mShardRetries  = telemetry.NewCounter("campaign.shard_retries")
	mMerges        = telemetry.NewCounter("campaign.merges")
	mMergeWait     = telemetry.NewCounter("campaign.merge_wait_ns")
	mMergeBacklog  = telemetry.NewGauge("campaign.merge_backlog")
)

// Spec defines a campaign. It is the identity the checkpoint fingerprint
// derives from: two specs with equal fingerprints generate byte-identical
// campaigns, so resuming under a changed spec is always an error.
type Spec struct {
	// VP names the vantage point (campus1, campus1-junjul, campus2,
	// home1, home2).
	VP string `json:"vp"`
	// Scale is the population scale in percent of the paper's dataset.
	Scale float64 `json:"scale"`
	// Seed is the campaign's root random seed.
	Seed int64 `json:"seed"`
	// Shards partitions the population (part of the campaign identity,
	// exactly as in fleet.Config).
	Shards int `json:"shards"`
	// DevicesScale multiplies the subscriber population; <=0 means 1.
	DevicesScale float64 `json:"devices_scale,omitempty"`
	// Profile optionally swaps in a capability profile by name.
	Profile string `json:"profile,omitempty"`
	// Format is the final export encoding, a name from the traces format
	// table: csv (default), binary, or binary-flate. Parts are always
	// stored binary; only the merge writes this format.
	Format string `json:"format,omitempty"`
	// Anonymize replaces client addresses with stable opaque tokens as
	// the merge writes the final export; parts keep full fidelity.
	Anonymize bool `json:"anonymize,omitempty"`
}

// normalized fills defaults without validating.
func (s Spec) normalized() Spec {
	if s.DevicesScale <= 0 {
		s.DevicesScale = 1
	}
	if s.Format == "" {
		s.Format = "csv"
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	return s
}

// validate checks the normalized spec resolves to a runnable campaign.
func (s Spec) validate() error {
	if _, err := s.vpConfig(); err != nil {
		return err
	}
	if s.Scale <= 0 {
		return fmt.Errorf("campaign: spec scale must be > 0 (got %g)", s.Scale)
	}
	if s.Shards > workload.MaxShards {
		return fmt.Errorf("campaign: spec shards %d exceeds the maximum %d", s.Shards, workload.MaxShards)
	}
	if _, err := traces.LookupFormat(s.Format); err != nil {
		return fmt.Errorf("campaign: spec export format: %w", err)
	}
	return nil
}

// vpConfig resolves the spec's vantage point and capability profile into
// the scaled generation config.
func (s Spec) vpConfig() (workload.VPConfig, error) {
	cfg, ok := workload.ByName(s.VP, s.Scale)
	if !ok {
		return cfg, fmt.Errorf("campaign: unknown vantage point %q (%s)", s.VP, strings.Join(workload.VantagePoints(), ", "))
	}
	if s.Profile != "" {
		p, ok := capability.ByName(s.Profile)
		if !ok {
			return cfg, fmt.Errorf("campaign: unknown capability profile %q (valid: %s)",
				s.Profile, strings.Join(capability.Names(), ", "))
		}
		cfg.Caps = &p
	}
	return fleet.Config{DevicesScale: s.DevicesScale}.ScaledVP(cfg), nil
}

// Fingerprint is the campaign's identity hash: FNV-1a over the canonical
// rendering of every spec field that affects generated bytes. Checkpoint
// files embed it, and loaders reject any mismatch.
func (s Spec) Fingerprint() string {
	s = s.normalized()
	h := fnv.New64a()
	fmt.Fprintf(h, "campaign|v1|vp=%s|scale=%g|seed=%d|shards=%d|devscale=%g|profile=%s|format=%s|anon=%t",
		s.VP, s.Scale, s.Seed, s.Shards, s.DevicesScale, s.Profile, s.Format, s.Anonymize)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint hashes an arbitrary canonical identity string into the
// 16-hex-digit form checkpoints embed — shared with the facade's
// experiment-level checkpoints so every resume path validates identity
// the same way.
func Fingerprint(canonical string) string {
	h := fnv.New64a()
	io.WriteString(h, canonical)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Event reports campaign progress to a Config.Observer. Stages: "resume"
// (a shard skipped because the checkpoint already records it), "shard"
// (a shard generated and checkpointed, with Elapsed its wall time on the
// worker, retries included), "retry" (a failed attempt about to be
// retried, with Err and Attempt set), "merge" (the final export
// committed). Events fire concurrently from the pool's workers, the
// merger and Run's caller; observers must be safe for concurrent use.
// Observation only — an observer never changes campaign output.
type Event struct {
	Stage       string
	Shard       int
	Attempt     int
	Records     int
	Elapsed     time.Duration
	Done, Total int
	Err         error
}

// Config drives one campaign run.
type Config struct {
	Spec Spec
	// Dir is the campaign directory (checkpoints and shard parts).
	Dir string
	// Out is the final export path; empty means Dir/export.<ext>.
	Out string
	// Jobs bounds how many shards generate concurrently in this process
	// (the fleet pool's Workers); 0 means GOMAXPROCS. Jobs never changes
	// results.
	Jobs int
	// Resume permits continuing from existing checkpoints. Without it,
	// a directory that already holds checkpointed progress is an error —
	// never a silent partial resume.
	Resume bool
	// Observer, when non-nil, receives progress Events (see Event).
	Observer func(Event)
	// AfterShard, when non-nil, runs after a shard's checkpoint entry is
	// durably committed — the hook process-kill harnesses attach to. It
	// runs on the pool's workers; observation only.
	AfterShard func(shard int)

	// crashAt injects a hard stop at a named stage for the
	// crash-equivalence tests ("part", "checkpoint-mid-write",
	// "checkpoint", "merge-mid-write"). Test-only.
	crashAt func(stage string, shard int)
	// failShard injects a transient per-attempt failure for the retry
	// tests, and delay, when set, replaces retryDelay there. Test-only.
	failShard func(shard, attempt int) error
	delay     time.Duration
}

// A failed shard is retried shardRetries times, the first retry after
// retryDelay and each later one after twice the delay before it.
const (
	shardRetries = 2
	retryDelay   = 100 * time.Millisecond
)

// Result describes a completed campaign.
type Result struct {
	Spec        Spec
	Records     int
	ExportPath  string
	ExportBytes int64
	// StreamHash is the FNV-1a hash of the export bytes, formatted
	// exactly like manifest stream hashes ("%016x").
	StreamHash string
	// Stats is the merged generation ground truth, folded from the
	// checkpoint entries in canonical shard order.
	Stats workload.ShardStats
	// ResumedShards counts shards satisfied from checkpoints;
	// GeneratedShards counts shards generated by this run.
	ResumedShards, GeneratedShards int
}

// Run executes a campaign start to finish in this process: generate (or
// resume) every shard, Jobs at a time, while the merger streams each
// committed part, in canonical shard order, into the final export — so
// only the parts behind the slowest shard are left to merge once the last
// one commits. Cancelling ctx stops at shard granularity with all
// completed progress checkpointed and no export, finished or partial,
// left behind — rerunning with Resume picks up exactly where it stopped,
// and the resumed export is byte-identical to an uninterrupted run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	r, err := newRunner(cfg, checkpointName)
	if err != nil {
		return nil, err
	}
	mctx, stopMerge := context.WithCancel(ctx)
	defer stopMerge()
	var (
		res      *Result
		mergeErr error
		merged   = make(chan struct{})
	)
	go func() {
		defer close(merged)
		res, mergeErr = r.merge(mctx)
	}()
	// A shard that failed for good will never commit: the merger must not
	// wait for it. A failed merge leaves generation running — every shard
	// it checkpoints is one a resumed run only has to merge.
	genErr := r.generate(ctx, 0, r.spec.Shards, cfg.Jobs)
	if genErr != nil {
		stopMerge()
	}
	<-merged
	if genErr != nil {
		return nil, genErr
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	res.ResumedShards, res.GeneratedShards = r.resumed, r.genned
	return res, nil
}

// runner holds one campaign process's state.
type runner struct {
	cfg  Config
	spec Spec
	vp   workload.VPConfig
	fp   string

	dir    string
	ckPath string

	mu      sync.Mutex
	done    map[int]ShardDone // every known completed shard (all checkpoint files)
	own     []ShardDone       // entries owned by ckPath, sorted by shard
	resumed int
	genned  int

	// wake tells the merger that done grew. One slot: a pending signal
	// already makes it look again.
	wake chan struct{}
}

// newRunner validates the spec, prepares the campaign directory, and
// loads any existing checkpoints (enforcing the Resume gate).
func newRunner(cfg Config, ckFile string) (*runner, error) {
	spec := cfg.Spec.normalized()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	vp, err := spec.vpConfig()
	if err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return nil, errors.New("campaign: config needs a campaign directory (Dir)")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "parts"), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: preparing campaign directory: %w", err)
	}
	r := &runner{
		cfg:    cfg,
		spec:   spec,
		vp:     vp,
		fp:     spec.Fingerprint(),
		dir:    cfg.Dir,
		ckPath: filepath.Join(cfg.Dir, ckFile),
		done:   make(map[int]ShardDone),
		wake:   make(chan struct{}, 1),
	}
	own, all, err := loadCheckpoints(cfg.Dir, ckFile, r.fp)
	if err != nil {
		return nil, err
	}
	if len(all) > 0 && !cfg.Resume {
		return nil, fmt.Errorf("campaign: %s already holds checkpointed progress (%d shards); pass Resume to continue or use a fresh directory", cfg.Dir, len(all))
	}
	r.own = own
	for _, e := range all {
		if err := r.verifyArtifacts(e); err != nil {
			return nil, err
		}
		r.done[e.Shard] = e
	}
	return r, nil
}

// verifyArtifacts checks a checkpointed shard's part file is present
// with the recorded size — a cheap loud-failure gate at load time; the
// content hash is verified as the bytes stream through merge.
func (r *runner) verifyArtifacts(e ShardDone) error {
	path := partPath(r.dir, e.Shard)
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint records shard %d complete but its artifact is missing: %w", e.Shard, err)
	}
	if fi.Size() != e.PartBytes {
		return fmt.Errorf("campaign: shard %d artifact %s is %d bytes, checkpoint recorded %d — artifacts and checkpoint disagree",
			e.Shard, filepath.Base(path), fi.Size(), e.PartBytes)
	}
	return nil
}

func (r *runner) observe(ev Event) {
	if r.cfg.Observer != nil {
		ev.Total = r.spec.Shards
		r.cfg.Observer(ev)
	}
}

func (r *runner) crash(stage string, shard int) {
	if r.cfg.crashAt != nil {
		r.cfg.crashAt(stage, shard)
	}
}

// generate runs every not-yet-done shard in [lo, hi) on the fleet
// engine's worker pool, jobs shards at a time: the pool schedules, cancels
// and reports (shard timings, worker occupancy, the "shard" Event) exactly
// as for the engine's own paths; what a shard's task does — generate,
// write, fsync, checkpoint, retry — is the runner's.
func (r *runner) generate(ctx context.Context, lo, hi, jobs int) error {
	var pending []int
	for sh := lo; sh < hi; sh++ {
		if e, ok := r.doneEntry(sh); ok {
			// Resumed means "this run's range, satisfied from checkpoint" —
			// sibling jobs' progress elsewhere in the directory is not ours.
			r.resumed++
			mShardsResumed.Inc()
			r.observe(Event{Stage: "resume", Shard: sh, Records: e.Records, Done: r.doneCount()})
			continue
		}
		pending = append(pending, sh)
	}
	if len(pending) == 0 {
		return ctx.Err()
	}
	fc := fleet.Config{Shards: r.spec.Shards, Workers: jobs, Observer: func(ev fleet.ShardEvent) {
		r.observe(Event{Stage: "shard", Shard: ev.Shard, Records: ev.Records, Elapsed: ev.Elapsed, Done: r.doneCount()})
	}}
	return fleet.ForEachShard(ctx, fc, r.vp.Name, pending, func(sh int) (workload.ShardStats, error) {
		return r.runShardWithRetry(ctx, sh)
	})
}

func (r *runner) doneEntry(sh int) (ShardDone, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.done[sh]
	return e, ok
}

func (r *runner) doneCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.done)
}

// runShardWithRetry is the bounded-retry wrapper around one shard's
// generation: transient failures (sink IO, injected faults) back off and
// retry up to shardRetries times; a cancelled ctx never retries.
func (r *runner) runShardWithRetry(ctx context.Context, sh int) (workload.ShardStats, error) {
	delay := retryDelay
	if r.cfg.delay > 0 {
		delay = r.cfg.delay
	}
	for attempt := 0; ; attempt++ {
		st, err := r.runShardOnce(sh, attempt)
		if err == nil {
			return st, nil
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		if attempt >= shardRetries {
			return st, fmt.Errorf("campaign: shard %d failed after %d attempts: %w", sh, attempt+1, err)
		}
		mShardRetries.Inc()
		r.observe(Event{Stage: "retry", Shard: sh, Attempt: attempt + 1, Err: err})
		select {
		case <-time.After(delay << attempt):
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// runShardOnce generates one shard into its part file and commits a
// checkpoint entry carrying the shard's stats. Both land atomically (tmp
// + fsync + rename), so a crash at any point leaves either the previous
// state or the complete new one — never a torn file.
func (r *runner) runShardOnce(sh, attempt int) (st workload.ShardStats, err error) {
	if r.cfg.failShard != nil {
		if ferr := r.cfg.failShard(sh, attempt); ferr != nil {
			return st, ferr
		}
	}

	part := partPath(r.dir, sh)
	partHash := newPartHash()
	var partBytes int64
	err = writeFileAtomicFunc(part, func(f *os.File) error {
		cw := &countWriter{w: io.MultiWriter(f, partHash), n: &partBytes}
		bw := traces.NewBinaryWriter(cw)
		ws := &fleet.WriterSink{W: bw}
		st = fleet.RunShard(r.vp, r.spec.Seed, sh, r.spec.Shards, ws)
		if ws.Err != nil {
			return ws.Err
		}
		return bw.Flush()
	})
	if err != nil {
		return st, fmt.Errorf("campaign: shard %d part: %w", sh, err)
	}
	r.crash("part", sh)

	entry := ShardDone{
		Shard:     sh,
		Records:   st.Records,
		PartBytes: partBytes,
		PartHash:  partHashHex(partHash),
		Stats:     st,
	}
	if err := r.commit(sh, entry); err != nil {
		return st, err
	}
	r.crash("checkpoint", sh)
	if r.cfg.AfterShard != nil {
		r.cfg.AfterShard(sh)
	}
	return st, nil
}

// commit records a completed shard in the runner's checkpoint file, and
// only once that file is durable in done, where the merger picks it up.
func (r *runner) commit(sh int, e ShardDone) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	own := append(r.own[:len(r.own):len(r.own)], e)
	sort.Slice(own, func(i, j int) bool { return own[i].Shard < own[j].Shard })
	body := checkpointBody{
		Schema:      CheckpointSchema,
		Kind:        kindShards,
		Fingerprint: r.fp,
		Spec:        &r.spec,
		Shards:      own,
	}
	if err := saveCheckpoint(r.ckPath, body, func(f *os.File) {
		r.crash("checkpoint-mid-write", sh)
		_ = f
	}); err != nil {
		return fmt.Errorf("campaign: shard %d checkpoint: %w", sh, err)
	}
	mCheckpoints.Inc()
	r.own = own
	r.done[sh] = e
	r.genned++
	select {
	case r.wake <- struct{}{}:
	default:
	}
	return nil
}

// countWriter counts bytes written through it.
type countWriter struct {
	w io.Writer
	n *int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// partTable is the part check's CRC-32C (Castagnoli) table: the polynomial
// with a hardware instruction, so the check runs at memory speed on both
// sides of a part instead of a byte-wise hash's loop over every byte.
var partTable = crc32.MakeTable(crc32.Castagnoli)

func newPartHash() hash.Hash32 { return crc32.New(partTable) }

// partHashHex renders a part checksum the way checkpoint entries record it.
func partHashHex(h hash.Hash32) string { return fmt.Sprintf("%08x", h.Sum32()) }

// hashReader hashes and counts everything read through it.
type hashReader struct {
	r io.Reader
	h hash.Hash32
	n int64
}

func (h *hashReader) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	if n > 0 {
		h.h.Write(p[:n])
		h.n += int64(n)
	}
	return n, err
}

// Paths inside a campaign directory.

const checkpointName = "checkpoint.ckpt"

func partPath(dir string, sh int) string {
	return filepath.Join(dir, "parts", fmt.Sprintf("shard-%04d.part", sh))
}

func jobCheckpointName(job int) string {
	return fmt.Sprintf("checkpoint-job-%03d.ckpt", job)
}

// ExportExt maps a spec format to the conventional export extension
// (.csv for anything the format table does not know, as before it
// existed; such a spec never passes validate).
func ExportExt(format string) string {
	f, err := traces.LookupFormat(format)
	if err != nil {
		return ".csv"
	}
	return f.Ext
}
