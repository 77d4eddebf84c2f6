package campaign

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
)

// straightExport is contract point 16's control: the spec's population
// through fleet.StreamRecords into the spec's export writer — no parts,
// no checkpoints, no merge.
func straightExport(t *testing.T, spec Spec) []byte {
	t.Helper()
	spec = spec.normalized()
	vp, err := spec.vpConfig()
	if err != nil {
		t.Fatal(err)
	}
	format, err := traces.LookupFormat(spec.Format)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := &fleet.WriterSink{W: format.New(&buf, spec.Anonymize, 1)}
	_, err = fleet.StreamRecords(context.Background(), vp, spec.Seed, fleet.Config{Shards: spec.Shards},
		func(r *traces.FlowRecord) bool {
			sink.Consume(r)
			return sink.Err == nil
		})
	if err == nil {
		err = sink.Err
	}
	if err == nil {
		err = sink.W.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// strays lists what a campaign directory must not hold after a failed
// run, or after one that exports elsewhere: any export, any temp file.
func strays(t *testing.T, dir string) []string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && (strings.HasPrefix(e.Name(), "export") || strings.HasSuffix(e.Name(), ".tmp")) {
			found = append(found, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestMergeOverlapsGeneration: the merger consumes shard 0 while the
// other seven have not been generated — the only worker is held after
// shard 0's commit until the merger has streamed that part, which a merge
// that waited for generation would never do — and merging alongside is
// one more invisible execution choice: the export equals the straight
// export and a Merge()-only pass over the same directory, stats
// included. A stale export temp left by a killed run is written over.
func TestMergeOverlapsGeneration(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 8, Format: "binary", Anonymize: true}
	dir, out := t.TempDir(), filepath.Join(t.TempDir(), "export.idb")
	stale := out + ".tmp"
	if err := os.WriteFile(stale, []byte("left behind by a killed run"), 0o644); err != nil {
		t.Fatal(err)
	}

	var (
		mu           sync.Mutex
		shardEvents  int
		eventsAtPart = -1
		merging      = make(chan struct{})
	)
	before := telemetry.Snapshot()
	res := mustRun(t, Config{
		Spec: spec, Dir: dir, Out: out, Jobs: 1,
		Observer: func(ev Event) {
			if ev.Stage == "shard" {
				mu.Lock()
				shardEvents++
				mu.Unlock()
			}
		},
		AfterShard: func(sh int) {
			if sh != 0 {
				return
			}
			select {
			case <-merging:
			case <-time.After(20 * time.Second):
				t.Error("shard 0 was committed 20 s ago and the merger has not streamed its part")
			}
		},
		crashAt: func(stage string, sh int) {
			if stage == "merge-mid-write" {
				mu.Lock()
				eventsAtPart = shardEvents
				mu.Unlock()
				close(merging)
			}
		},
	})
	after := telemetry.Snapshot()
	if eventsAtPart < 0 || eventsAtPart >= spec.Shards {
		t.Fatalf("the first part was merged after %d of %d shard events, want before the last", eventsAtPart, spec.Shards)
	}
	if res.GeneratedShards != spec.Shards || res.ResumedShards != 0 {
		t.Fatalf("generated %d / resumed %d shards, want %d / 0", res.GeneratedShards, res.ResumedShards, spec.Shards)
	}
	// The merger sat blocked on shard 1 at least while the worker was held.
	if after.Counters["campaign.merge_wait_ns"] <= before.Counters["campaign.merge_wait_ns"] {
		t.Fatal("campaign.merge_wait_ns did not move over a run whose merger waited for every shard")
	}
	if after.Gauges["campaign.merge_backlog"] < 1 {
		t.Fatalf("campaign.merge_backlog = %d, want at least the one committed shard", after.Gauges["campaign.merge_backlog"])
	}
	if left := strays(t, dir); len(left) > 0 {
		t.Fatalf("a run exporting elsewhere left %v in its directory", left)
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale export temp after the run: %v", err)
	}

	got := readExport(t, res)
	if !bytes.Equal(got, straightExport(t, spec)) {
		t.Fatal("export merged alongside generation differs from the straight export")
	}
	merged, err := Merge(context.Background(), spec, dir, filepath.Join(t.TempDir(), "merged.idb"))
	if err != nil {
		t.Fatal(err)
	}
	if merged.StreamHash != res.StreamHash || !bytes.Equal(readExport(t, merged), got) {
		t.Fatal("export merged alongside generation differs from a Merge()-only pass over the same parts")
	}
	if res.Stats.Records != res.Records || !reflect.DeepEqual(merged.Stats, res.Stats) {
		t.Fatalf("stats alongside generation %+v, merged afterwards %+v", res.Stats, merged.Stats)
	}
}

// TestRunFailureLeavesNoExport: when generation fails for good or is
// cancelled mid-run, Run returns that error, the merger is gone with its
// half-written export, the checkpoint still loads, and a resumed run
// writes the bytes an undisturbed one does.
func TestRunFailureLeavesNoExport(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 8}
	want := straightExport(t, spec)
	injected := errors.New("injected permanent failure")
	cases := []struct {
		name  string
		arm   func(cfg *Config, cancel context.CancelFunc)
		check func(error) bool
	}{
		{"shard fails past its retries", func(cfg *Config, _ context.CancelFunc) {
			cfg.delay = 1
			cfg.failShard = func(sh, _ int) error {
				if sh == 5 {
					return injected
				}
				return nil
			}
		}, func(err error) bool {
			return errors.Is(err, injected) && strings.Contains(err.Error(), "shard 5 failed after 3 attempts")
		}},
		{"cancelled mid-run", func(cfg *Config, cancel context.CancelFunc) {
			var commits sync.Mutex
			n := 0
			cfg.AfterShard = func(int) {
				commits.Lock()
				defer commits.Unlock()
				if n++; n == 3 {
					cancel()
				}
			}
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Spec: spec, Dir: dir, Jobs: 2}
			tc.arm(&cfg, cancel)

			base := runtime.NumGoroutine()
			res, err := Run(ctx, cfg)
			if res != nil || !tc.check(err) {
				t.Fatalf("Run = %v, %v; want no result and the generation error", res, err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the failed run, %d before it", runtime.NumGoroutine(), base)
				}
			}
			if left := strays(t, dir); len(left) > 0 {
				t.Fatalf("the failed run left %v", left)
			}
			_, all, err := loadCheckpoints(dir, checkpointName, spec.Fingerprint())
			if err != nil || len(all) == 0 || len(all) >= spec.Shards {
				t.Fatalf("checkpoint after the failed run: %d shards, %v; want some, not all, loadable", len(all), err)
			}

			resumed := mustRun(t, Config{Spec: spec, Dir: dir, Jobs: 2, Resume: true})
			if resumed.ResumedShards != len(all) || !bytes.Equal(readExport(t, resumed), want) {
				t.Fatalf("resumed run reused %d of %d checkpointed shards; export equals the straight one: %v",
					resumed.ResumedShards, len(all), bytes.Equal(readExport(t, resumed), want))
			}
		})
	}
}

// TestBlockExportsCopyColumns: streamPart takes a part through WriteFrom
// exactly when the export writer is a block format's, so wrapping those
// writers would silently send the merge back to decoding records.
func TestBlockExportsCopyColumns(t *testing.T) {
	for name, want := range map[string]bool{"binary": true, "binary-flate": true, "csv": false} {
		format, err := traces.LookupFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := format.New(io.Discard, true, 1).(columnWriter); ok != want {
			t.Errorf("%s export writer implements WriteFrom: %v, want %v", name, ok, want)
		}
	}
}

// TestMergeAllocationBudget: copying a part into the export costs no
// allocation per record — what is left is per part (the file, its reader
// and that reader's body scratch) and per distinct name. The record path
// (ReadBlock, then Write) read 0.044 here; the column path reads ≈0.001.
func TestMergeAllocationBudget(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.05, Seed: 7, Shards: 2, Format: "binary", Anonymize: true}
	dir := t.TempDir()
	res := mustRun(t, Config{Spec: spec, Dir: dir})
	r, err := newRunner(Config{Spec: spec, Dir: dir, Resume: true}, checkpointName)
	if err != nil {
		t.Fatal(err)
	}
	format, err := traces.LookupFormat(spec.Format)
	if err != nil {
		t.Fatal(err)
	}
	w := format.New(io.Discard, spec.Anonymize, 1)
	allocs := testing.AllocsPerRun(3, func() {
		for sh := 0; sh < spec.Shards; sh++ {
			e, _ := r.doneEntry(sh)
			if n, err := r.streamPart(e, w); err != nil || n != e.Records {
				t.Fatalf("shard %d: streamed %d of %d records: %v", sh, n, e.Records, err)
			}
		}
	})
	if perRecord := allocs / float64(res.Records); perRecord > 0.005 {
		t.Fatalf("streamPart allocates %.4f objects per record (%.0f over %d records), budget 0.005", perRecord, allocs, res.Records)
	} else {
		t.Logf("streamPart: %.4f allocations per record (%.0f over %d records)", perRecord, allocs, res.Records)
	}
}
