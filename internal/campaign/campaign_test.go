package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/golden"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// goldenSpec is the campaign spec of one legacy golden stream
// (internal/golden): a campaign's merged CSV export (non-anonymized) must
// reproduce its hash bit for bit on every path — fresh, resumed, at any
// worker count.
func goldenSpec(g golden.Stream) Spec {
	return Spec{VP: g.VP, Scale: g.Scale, Seed: g.Seed, Shards: g.Shards, Profile: g.Profile}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("campaign run: %v", err)
	}
	return res
}

func readExport(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := os.ReadFile(res.ExportPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignGolden pins the campaign runner to the legacy golden
// stream hashes: generating through per-shard part files and merging in
// canonical order must be byte-equivalent to the direct generation path.
func TestCampaignGolden(t *testing.T) {
	for _, g := range golden.Streams {
		t.Run(g.Name, func(t *testing.T) {
			spec := goldenSpec(g)
			res := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 2})
			if !g.MatchHex(res.StreamHash) {
				t.Fatalf("campaign export hash = %s, want %s", res.StreamHash, g.Hex())
			}
			if res.GeneratedShards != spec.normalized().Shards || res.ResumedShards != 0 {
				t.Fatalf("fresh run generated %d / resumed %d shards, want %d / 0",
					res.GeneratedShards, res.ResumedShards, spec.normalized().Shards)
			}
			if res.Records != res.Stats.Records {
				t.Fatalf("export carries %d records, generation stats say %d", res.Records, res.Stats.Records)
			}
		})
	}
}

// streamStats is the generation ground truth of spec's population as
// fleet.StreamRecords merges it, with no parts and no checkpoints.
func streamStats(t *testing.T, spec Spec) fleet.VPStats {
	t.Helper()
	spec = spec.normalized()
	vp, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fleet.StreamRecords(context.Background(), vp, spec.Seed, fleet.Config{Shards: spec.Shards},
		func(*traces.FlowRecord) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// checkStats fails unless a campaign's merged Stats carry what the
// single-process stream merged: records, households, devices, both day
// vectors and the cohort maps.
func checkStats(t *testing.T, how string, got workload.ShardStats, stream fleet.VPStats) {
	t.Helper()
	want := workload.ShardStats{Records: stream.Records, Households: stream.Households, Devices: stream.Devices,
		BackgroundByDay: stream.BackgroundByDay, YouTubeByDay: stream.YouTubeByDay,
		CohortDevices: stream.CohortDevices, CohortRecords: stream.CohortRecords}
	got.SyncEvents = 0 // fleet.VPStats does not carry it
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: campaign stats %+v, single-process stream %+v", how, got, want)
	}
}

// TestCampaignStatsMatchSingleProcess: the generation stats folded from
// the checkpoint entries in shard order equal the single-process stream's
// merged stats — for a fresh run, for a run resumed after a kill, whose
// killed shards' stats come back from the checkpoint, and for a resume
// of the finished directory, which generates nothing and only merges.
func TestCampaignStatsMatchSingleProcess(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	want := streamStats(t, spec)
	if len(want.BackgroundByDay) == 0 || len(want.YouTubeByDay) == 0 {
		t.Fatalf("single-process stream carries no day vectors: %+v", want)
	}

	dir := t.TempDir()
	res := mustRun(t, Config{Spec: spec, Dir: dir, Workers: 4})
	checkStats(t, "fresh run", res.Stats, want)

	killed := t.TempDir()
	crashRun(t, killed, spec, "checkpoint", 1, 1, false)
	resumed := mustRun(t, Config{Spec: spec, Dir: killed, Workers: 2, Resume: true})
	if resumed.ResumedShards == 0 {
		t.Fatal("the run after the kill resumed no shard")
	}
	checkStats(t, "resumed run", resumed.Stats, want)

	merged := mustRun(t, Config{Spec: spec, Dir: dir, Out: filepath.Join(t.TempDir(), "merged.csv"), Resume: true})
	if merged.ResumedShards != spec.Shards || merged.GeneratedShards != 0 {
		t.Fatalf("resuming a finished campaign resumed %d / generated %d shards, want %d / 0",
			merged.ResumedShards, merged.GeneratedShards, spec.Shards)
	}
	checkStats(t, "merge-only resume", merged.Stats, want)
}

// TestCampaignPartsAreTheOnlyShardFiles: a shard costs one part file and a
// checkpoint entry, so after a run parts/ holds one shard-NNNN.part per
// shard and nothing else.
func TestCampaignPartsAreTheOnlyShardFiles(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.01, Seed: 7, Shards: 3}
	dir := t.TempDir()
	mustRun(t, Config{Spec: spec, Dir: dir, Workers: 2})
	entries, err := os.ReadDir(filepath.Join(dir, "parts"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := []string{"shard-0000.part", "shard-0001.part", "shard-0002.part"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parts/ holds %v, want %v", got, want)
	}
}

// TestFailingShardEndsRunAtFirstAttempt: a shard whose first attempt
// fails ends the run with that error, naming the shard, and is not tried
// again in the process. The checkpoint holds only the shards committed
// before it, and a resume without the fault exports the bytes of the
// straight export.
func TestFailingShardEndsRunAtFirstAttempt(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	dir := t.TempDir()
	injected := errors.New("injected failure")
	attempts := 0
	_, err := Run(context.Background(), Config{
		Spec: spec, Dir: dir, Workers: 1,
		crashAt: func(stage string, sh int) error {
			if stage != "part" || sh != 2 {
				return nil
			}
			if attempts++; attempts == 1 {
				return injected
			}
			return nil
		},
	})
	if !errors.Is(err, injected) || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("Run = %v, want the injected failure of shard 2", err)
	}
	if attempts != 1 {
		t.Fatalf("shard 2 ran %d times, want 1", attempts)
	}
	done, err := loadCheckpoint(filepath.Join(dir, checkpointName), spec.Fingerprint(), spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	var shards []int
	for _, e := range done {
		shards = append(shards, e.Shard)
	}
	if !reflect.DeepEqual(shards, []int{0, 1}) {
		t.Fatalf("checkpoint holds shards %v, want [0 1]", shards)
	}

	res := mustRun(t, Config{Spec: spec, Dir: dir, Workers: 1, Resume: true})
	same := bytes.Equal(readExport(t, res), straightExport(t, spec))
	if res.ResumedShards != 2 || !same {
		t.Fatalf("resume reused %d shards, want 2; export equals the straight one: %v", res.ResumedShards, same)
	}
}

// TestCampaignResumeAfterCancel exercises the soft-interruption path: a
// context cancelled mid-generation leaves checkpointed progress, and a
// resumed run completes to the golden hash without regenerating the
// finished shards.
func TestCampaignResumeAfterCancel(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, err := Run(ctx, Config{
		Spec: spec, Dir: dir, Workers: 1,
		crashAt: func(stage string, _ int) error {
			if stage == "checkpoint" {
				if done++; done == 2 {
					cancel()
				}
			}
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}

	res := mustRun(t, Config{Spec: spec, Dir: dir, Workers: 2, Resume: true})
	if want := golden.Home1FourShard.Hex(); !golden.Home1FourShard.MatchHex(res.StreamHash) {
		t.Fatalf("resumed export hash = %s, want %s", res.StreamHash, want)
	}
	if res.ResumedShards == 0 || res.ResumedShards+res.GeneratedShards != 4 {
		t.Fatalf("resumed %d + generated %d shards, want them to partition 4 with a non-empty resume",
			res.ResumedShards, res.GeneratedShards)
	}
}

// TestCampaignSpecValidation covers the loud-failure surface of spec
// resolution.
func TestCampaignSpecValidation(t *testing.T) {
	base := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 1}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown vp", func(s *Spec) { s.VP = "mars1" }, "unknown vantage point"},
		{"zero scale", func(s *Spec) { s.Scale = 0 }, "scale must be > 0"},
		{"scale past 10/8", func(s *Spec) { s.Scale = 900 }, "give home1 at most 16000000 subscribers, the distinct 10/8 addresses (got 900)"},
		{"bad format", func(s *Spec) { s.Format = "xml" }, "unknown format"},
		{"bad profile", func(s *Spec) { s.Profile = "quantum" }, "unknown capability profile"},
		{"too many shards", func(s *Spec) { s.Shards = workload.MaxShards + 1 }, "exceeds the maximum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mut(&spec)
			_, err := Run(context.Background(), Config{Spec: spec, Dir: t.TempDir()})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	if _, err := Run(context.Background(), Config{Spec: base}); err == nil || !strings.Contains(err.Error(), "campaign directory") {
		t.Fatalf("missing Dir: err = %v, want directory error", err)
	}
	// Workers take the fleet pool's worker rule, checked before the
	// directory is made.
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := Run(context.Background(), Config{Spec: base, Dir: dir, Workers: -1}); err == nil || !strings.Contains(err.Error(), "workers must be >= 0") {
		t.Fatalf("Workers -1: err = %v, want the workers rule", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused campaign left %s behind (%v)", dir, err)
	}
}

// TestFingerprintSensitivity: every byte-affecting spec field must move
// the fingerprint, and normalization-equivalent specs must share it. The
// literals were computed before the device multiplier was retired: its
// directories must still resume.
func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	fp := base.Fingerprint()
	if fp != "203bcc18e5da8dd8" {
		t.Fatalf("fingerprint %s, want the pinned 203bcc18e5da8dd8", fp)
	}
	full := Spec{VP: "campus2", Scale: 0.3, Seed: 42, Shards: 8, Profile: "no-dedup", Format: "binary-flate", Anonymize: true}
	if got := full.Fingerprint(); got != "eeccfe36adfc889c" {
		t.Fatalf("fingerprint %s, want the pinned eeccfe36adfc889c", got)
	}
	muts := []func(*Spec){
		func(s *Spec) { s.VP = "home2" },
		func(s *Spec) { s.Scale = 0.03 },
		func(s *Spec) { s.Seed = 8 },
		func(s *Spec) { s.Shards = 8 },
		func(s *Spec) { s.Profile = "big-chunks-16mb" },
		func(s *Spec) { s.Format = "binary" },
		func(s *Spec) { s.Anonymize = true },
	}
	for i, mut := range muts {
		spec := base
		mut(&spec)
		if spec.Fingerprint() == fp {
			t.Fatalf("mutation %d did not change the fingerprint", i)
		}
	}
	norm := base
	norm.Format = "csv"
	if norm.Fingerprint() != fp {
		t.Fatal("normalization-equivalent specs must share a fingerprint")
	}
}

// TestCampaignRunsUnderFleetTelemetry: campaign shards run on the fleet
// engine's pool, so each reports one timed "shard" Event and moves the
// engine's counters by exactly one shard's worth — the durable tier of
// fleet's executor contract test.
func TestCampaignRunsUnderFleetTelemetry(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	var mu sync.Mutex
	shardEvents := map[int]Event{}
	before := telemetry.Snapshot()
	res := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 2, Observer: func(ev Event) {
		if ev.Stage == "shard" {
			mu.Lock()
			shardEvents[ev.Shard] = ev
			mu.Unlock()
		}
	}})
	after := telemetry.Snapshot()

	records := 0
	for sh := 0; sh < spec.Shards; sh++ {
		ev, ok := shardEvents[sh]
		if !ok || ev.Elapsed <= 0 || ev.Total != spec.Shards || ev.Done < 1 || ev.Done > spec.Shards {
			t.Fatalf("shard %d: event %+v (reported: %v)", sh, ev, ok)
		}
		records += ev.Records
	}
	if records != res.Records {
		t.Fatalf("shard events carry %d records, export %d", records, res.Records)
	}
	if got := after.Counters["fleet.records"] - before.Counters["fleet.records"]; got != uint64(res.Records) {
		t.Fatalf("fleet.records rose by %d over a campaign of %d records", got, res.Records)
	}
	if got := after.Counters["fleet.shards_done"] - before.Counters["fleet.shards_done"]; got != uint64(spec.Shards) {
		t.Fatalf("fleet.shards_done rose by %d over %d shards", got, spec.Shards)
	}
	if got := after.Timings["fleet.shard_seconds"].Count - before.Timings["fleet.shard_seconds"].Count; got != uint64(spec.Shards) {
		t.Fatalf("fleet.shard_seconds took %d observations over %d shards", got, spec.Shards)
	}
}
