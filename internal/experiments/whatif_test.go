package experiments

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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
// what-if run under the dropbox-1.2.52 preset, the vantage point's own
// client, is the plain fold of the same population — the same Tally,
// every sample and the generation ground truth (VPStats) included.
func TestWhatIfPresetMatchesLegacyFleetRun(t *testing.T) {
	vp := whatIfVP(0.2)
	fc := fleet.Config{Shards: 2}

	legacy, err := fold(context.Background(), []fleet.Population{{VP: vp, Seed: 2012}}, fc)
	if err != nil {
		t.Fatal(err)
	}

	rep := runWhatIf(t, WhatIfConfig{
		Seed: 2012, VP: vp, Fleet: fc,
		Profiles: []capability.Profile{capability.DropboxV1252()},
	})
	var run *WhatIfRun
	for _, r := range rep.Runs {
		if r.Profile.Name == "dropbox-1.2.52" {
			run = r
		}
	}
	if run == nil {
		t.Fatal("baseline run missing from report")
	}
	if !reflect.DeepEqual(run.Tally, legacy[0]) {
		t.Fatalf("preset tally diverged from the plain fold: %d vs %d storage samples, stats %+v vs %+v",
			len(run.Tally.Storage), len(legacy[0].Storage), run.Tally.VPStats, legacy[0].VPStats)
	}
	if !reflect.DeepEqual(run.Stats, legacy[0].VPStats) {
		t.Fatalf("ground truth diverged: %+v vs %+v", run.Stats, legacy[0].VPStats)
	}
}

// TestWhatIfTotalsMatchSummary is the reference check that the what-if
// rows, read off each profile's Tally, agree with the streaming
// fleet.Summary of the same population under that profile: store and
// retrieve volume and storage flow counts, for every preset.
func TestWhatIfTotalsMatchSummary(t *testing.T) {
	vp := whatIfVP(0.1)
	fc := fleet.Config{Shards: 2}
	profiles := capability.Presets()
	res := runWhatIf(t, WhatIfConfig{Seed: 7, VP: vp, Fleet: fc, Profiles: profiles}).Result()
	for _, p := range profiles {
		pvp := vp
		pvp.Caps = p
		sum, _, err := fleet.Summarize(context.Background(), pvp, 7, fc)
		if err != nil {
			t.Fatal(err)
		}
		for metric, want := range map[string]float64{
			"store_gb_":      float64(sum.StoreBytes) / 1e9,
			"retrieve_gb_":   float64(sum.RetrieveBytes) / 1e9,
			"storage_flows_": float64(sum.StoreFlows + sum.RetrieveFlows),
		} {
			if got := res.Metrics[metric+p.Name]; got != want {
				t.Errorf("%s%s = %v, fleet.Summary says %v", metric, p.Name, got, want)
			}
		}
		if sum.StoreFlows == 0 || sum.RetrieveFlows == 0 {
			t.Errorf("%s: %d store and %d retrieve flows, want both directions", p.Name, sum.StoreFlows, sum.RetrieveFlows)
		}
	}
}

// TestWhatIfEmptyDirection pins how a profile without flows in one
// direction renders: its latency prints "-" and its delta "n/a", never a
// NaN.
func TestWhatIfEmptyDirection(t *testing.T) {
	store := StorageFlow{BytesUp: 1e6, BytesDown: 5000, LastPayloadUp: time.Second, PSHDown: 4}
	retr := StorageFlow{BytesUp: 1000, BytesDown: 1e6, LastPayloadDown: 2 * time.Second, PSHUp: 4}
	rep := &WhatIfReport{Runs: []*WhatIfRun{
		{Profile: capability.DropboxV1252(), Tally: &Tally{Storage: []StorageFlow{store, retr}}},
		{Profile: capability.DropboxV140(), Tally: &Tally{Storage: []StorageFlow{store}}},
	}}
	res := rep.Result()
	if strings.Contains(res.Text, "NaN") {
		t.Fatalf("NaN in the table:\n%s", res.Text)
	}
	// The profile's row in the absolute table, then in the delta table:
	// the retrieve column is the last of each.
	var last []string
	for _, line := range strings.Split(res.Text, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "dropbox-1.4.0" {
			last = append(last, f[len(f)-1])
		}
	}
	if !reflect.DeepEqual(last, []string{"-", "n/a"}) {
		t.Fatalf("retrieve latency cells %q, want [- n/a]:\n%s", last, res.Text)
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
