package experiments

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/workload"
)

// whatIfVP is a fast test population: Campus 1 trimmed to a week.
func whatIfVP(scale float64) workload.VPConfig {
	cfg := workload.Campus1(scale)
	cfg.Days = 7
	return cfg
}

// runWhatIf executes cfg under a background context and fails the test on
// error.
func runWhatIf(t *testing.T, cfg WhatIfConfig) *WhatIfReport {
	t.Helper()
	rep, err := cfg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWhatIfPresetMatchesLegacyFleetRun pins the acceptance criterion: a
// what-if run under the dropbox-1.2.52 preset is bit-identical to the
// legacy Version-based fleet campaign of the same population — same flows,
// same bytes, same streaming aggregates.
func TestWhatIfPresetMatchesLegacyFleetRun(t *testing.T) {
	vp := whatIfVP(0.2)
	fc := fleet.Config{Shards: 2}

	legacySum, legacyStats, err := fleet.Summarize(context.Background(), vp, 2012, fc)
	if err != nil {
		t.Fatal(err)
	}

	rep := runWhatIf(t, WhatIfConfig{
		Seed: 2012, VP: vp, Fleet: fc,
		Profiles: []capability.Profile{capability.DropboxV1252()},
	})
	run := rep.ByProfile("dropbox-1.2.52")
	if run == nil {
		t.Fatal("baseline run missing from report")
	}
	if !reflect.DeepEqual(run.Agg.Summary, legacySum) {
		t.Fatalf("preset summary diverged from legacy fleet summary:\npreset %+v\nlegacy %+v",
			run.Agg.Summary.Metrics(), legacySum.Metrics())
	}
	if run.Stats.Records != legacyStats.Records || run.Stats.Devices != legacyStats.Devices {
		t.Fatalf("ground truth diverged: %+v vs %+v", run.Stats, legacyStats)
	}
}

// TestWhatIfWorkerInvariance pins determinism across worker counts for a
// profile whose branches draw extra randomness: results depend on (seed,
// population, shards, profile), never on scheduling.
func TestWhatIfWorkerInvariance(t *testing.T) {
	vp := whatIfVP(0.15)
	profiles := []capability.Profile{capability.DropboxV140(), capability.NoDedup()}
	run := func(workers int) *Result {
		return runWhatIf(t, WhatIfConfig{
			Seed: 5, VP: vp,
			Fleet:    fleet.Config{Shards: 4, Workers: workers},
			Profiles: profiles,
		}).Result()
	}
	one, four := run(1), run(4)
	if one.Text != four.Text {
		t.Fatalf("what-if table changed with worker count:\n%s\nvs\n%s", one.Text, four.Text)
	}
	if !reflect.DeepEqual(one.Metrics, four.Metrics) {
		t.Fatalf("what-if metrics changed with worker count:\n%v\nvs\n%v", one.Metrics, four.Metrics)
	}
}

// TestWhatIfTableGolden is the reproducibility golden: the rendered table
// is byte-identical across runs, covers every requested profile with
// absolute metrics, and reports baseline-relative deltas.
func TestWhatIfTableGolden(t *testing.T) {
	cfg := WhatIfConfig{
		Seed: 99, VP: whatIfVP(0.2),
		Fleet: fleet.Config{Shards: 2},
		Profiles: []capability.Profile{
			capability.DropboxV1252(),
			capability.DropboxV140(),
			capability.NoDedup(),
			capability.FullPipeline(),
		},
	}
	res := runWhatIf(t, cfg).Result()
	again := runWhatIf(t, cfg).Result()
	if res.Text != again.Text {
		t.Fatal("what-if table not reproducible across runs")
	}
	for _, p := range cfg.Profiles {
		if !strings.Contains(res.Text, p.Name) {
			t.Fatalf("table missing profile %q:\n%s", p.Name, res.Text)
		}
		for _, metric := range []string{"store_gb_", "retrieve_gb_", "storage_flows_", "ops_", "store_med_ms_"} {
			if _, ok := res.Metrics[metric+p.Name]; !ok {
				t.Fatalf("metric %s%s missing", metric, p.Name)
			}
		}
		if res.Metrics["storage_flows_"+p.Name] <= 0 {
			t.Fatalf("profile %s generated no storage flows", p.Name)
		}
	}
	if !strings.Contains(res.Text, "Deltas versus baseline dropbox-1.2.52") {
		t.Fatalf("delta table missing:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "Reproducibility keys:") {
		t.Fatal("reproducibility keys missing")
	}

	// Directional physics on the same seed: the bundling client must need
	// fewer storage operations than the per-chunk client (Sec. 6 — the
	// saving concentrates in multi-chunk transfers, so small populations
	// see a modest but strictly positive reduction), and disabling dedup
	// must move more bytes than the same client with dedup.
	if res.Metrics["ops_dropbox-1.4.0"] >= res.Metrics["ops_dropbox-1.2.52"] {
		t.Fatalf("bundling did not reduce ops: %v vs %v",
			res.Metrics["ops_dropbox-1.4.0"], res.Metrics["ops_dropbox-1.2.52"])
	}
	if res.Metrics["store_gb_no-dedup"] <= res.Metrics["store_gb_dropbox-1.4.0"] {
		t.Fatalf("no-dedup store volume %v not above 1.4.0 %v",
			res.Metrics["store_gb_no-dedup"], res.Metrics["store_gb_dropbox-1.4.0"])
	}
}

// TestWhatIfAllocationBudget pins the what-if engine's allocation profile:
// Campus 1 at a tenth of its population, four shards, replayed under both
// historical Dropbox profiles, stays under 0.8 allocations per generated
// record (0.57 at this scale and 0.53 at scale 0.5 in the pr14 column of
// PERFORMANCE.md's archived table; 4.9 before records were pooled). It is
// the one scenario of the retired scenario-catalogue gate that no benchmark
// workload covers.
func TestWhatIfAllocationBudget(t *testing.T) {
	cfg := WhatIfConfig{
		Seed:     2012,
		VP:       workload.Campus1(0.1),
		Fleet:    fleet.Config{Shards: 4},
		Profiles: []capability.Profile{capability.DropboxV1252(), capability.DropboxV140()},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runWhatIf(t, cfg)
	runtime.ReadMemStats(&after)
	records := 0
	for _, run := range rep.Runs {
		records += run.Stats.Records
	}
	perRec := float64(after.Mallocs-before.Mallocs) / float64(records)
	if perRec > 0.8 {
		t.Fatalf("what-if allocates %.2f objects/record over %d records, want <= 0.8", perRec, records)
	}
	t.Logf("%.3f allocs/record over %d records", perRec, records)
}
