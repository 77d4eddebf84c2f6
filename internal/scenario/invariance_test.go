package scenario

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
)

// mixSpec is a small cohort-mix spec used by the invariance tests: three
// presets over the calibrated Home 1 population at test scale.
const mixSpec = `{
	"schema": 1, "name": "mix",
	"base": {"vp": "home1", "scale": 0.02, "seed": 7, "shards": 4},
	"cohorts": [
		{"name": "office", "preset": "office-worker", "weight": 0.5},
		{"name": "mobile", "preset": "mobile-intermittent", "weight": 0.3},
		{"name": "bots", "preset": "ci-bot", "weight": 0.2}
	]
}`

func collectMix(t *testing.T, workers int) *StreamResult {
	t.Helper()
	return collectDoc(t, mixSpec, workers)
}

func collectDoc(t *testing.T, doc string, workers int) *StreamResult {
	t.Helper()
	sp, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CollectStream(context.Background(), c, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCollectStreamWorkerInvariance pins determinism-contract point 15 for
// the full scenario path: a cohort-mix run at 1 worker and at 8 workers
// produces the identical stream hash, identical merged stats (per-cohort
// counts included) and the identical canonical request set.
func TestCollectStreamWorkerInvariance(t *testing.T) {
	one := collectMix(t, 1)
	eight := collectMix(t, 8)

	if one.StreamHash != eight.StreamHash {
		t.Fatalf("stream hash differs: workers=1 %#x, workers=8 %#x", one.StreamHash, eight.StreamHash)
	}
	if !reflect.DeepEqual(one.Stats, eight.Stats) {
		t.Fatalf("merged stats differ between worker counts:\n1: %+v\n8: %+v", one.Stats, eight.Stats)
	}
	if !reflect.DeepEqual(one.Requests, eight.Requests) {
		t.Fatalf("backend request sets differ between worker counts (%d vs %d requests)", len(one.Requests), len(eight.Requests))
	}
}

// TestCollectStreamHashSensitivity: the stream hash tells runs apart. A
// different seed, or one cohort weight moved on mixSpec, changes it, so
// the worker-invariance checks could not pass on a constant.
func TestCollectStreamHashSensitivity(t *testing.T) {
	base := collectMix(t, 0).StreamHash
	for name, doc := range map[string]string{
		"seed":    strings.Replace(mixSpec, `"seed": 7`, `"seed": 8`, 1),
		"weights": strings.NewReplacer(`"office-worker", "weight": 0.5`, `"office-worker", "weight": 0.4`, `"mobile-intermittent", "weight": 0.3`, `"mobile-intermittent", "weight": 0.4`).Replace(mixSpec),
	} {
		if doc == mixSpec {
			t.Fatalf("%s variant did not edit mixSpec", name)
		}
		if got := collectDoc(t, doc, 0).StreamHash; got == base {
			t.Errorf("a different %s leaves the stream hash at %#016x", name, got)
		}
	}
}

// TestCollectStreamWritesNoCSV: fingerprinting the stream serializes
// nothing, so a scenario run's manifest counts no CSV records.
func TestCollectStreamWritesNoCSV(t *testing.T) {
	before := telemetry.Snapshot().Counters["traces.csv_records"]
	collectMix(t, 0)
	if d := telemetry.Snapshot().Counters["traces.csv_records"] - before; d != 0 {
		t.Fatalf("CollectStream published %d traces.csv_records", d)
	}
}

// TestCollectStreamEqualsConcatSort pins CollectStream's per-shard sorted
// runs against concatenate-then-sort: at every shard and worker count the
// arrival set is exactly the shards' requests sorted once.
func TestCollectStreamEqualsConcatSort(t *testing.T) {
	sp, err := Parse([]byte(mixSpec))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4, 16} {
		cs := *c
		cs.Fleet.Shards = shards
		var want []backend.Request
		for sh := 0; sh < shards; sh++ {
			var col backend.Collector
			fleet.RunShard(cs.VP, cs.Seed, sh, shards, &col)
			want = append(want, col.Requests...)
		}
		backend.SortRequests(want)
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				res, err := CollectStream(context.Background(), &cs, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !reflect.DeepEqual(res.Requests, want) {
					t.Fatalf("collected %d arrivals, not the %d of concatenate-then-sort", len(res.Requests), len(want))
				}
			})
		}
	}
}

// TestCohortGroundTruthSane checks the stream's cohort accounting: every
// spec cohort appears with a non-zero device population, device counts sum
// to the campaign total, and record counts stay within it (web/direct-link
// flows are unattributed household traffic).
func TestCohortGroundTruthSane(t *testing.T) {
	res := collectMix(t, 0)
	st := res.Stats
	var devSum, recSum int
	for _, name := range []string{"office", "mobile", "bots"} {
		if st.CohortDevices[name] == 0 {
			t.Errorf("cohort %s has no devices (population too small or assignment broken)", name)
		}
		devSum += st.CohortDevices[name]
		recSum += st.CohortRecords[name]
	}
	if devSum != st.Devices {
		t.Errorf("cohort devices sum to %d, campaign has %d", devSum, st.Devices)
	}
	if recSum <= 0 || recSum > st.Records {
		t.Errorf("cohort records sum to %d, campaign has %d", recSum, st.Records)
	}
	if len(res.Requests) == 0 {
		t.Error("cohort-mix stream produced no backend arrivals")
	}
}

// TestFlashCrowdDrivesBackend is the PR's acceptance experiment, run on
// the committed flash-crowd-scarce spec: under the scarce preset the surge
// window exhibits the queueing knee (window p95 above the run-wide p95,
// window mean delay a multiple of the run-wide mean); under an infinite
// deployment the same surged arrival set is absorbed with zero delay and
// zero loss. Both simulations consume the same collected stream, and the
// collection is identical at 1 and 8 workers.
func TestFlashCrowdDrivesBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("flash-crowd acceptance run skipped in -short mode")
	}
	sp, err := Load("../../scenarios/flash-crowd-scarce.json")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := CollectStream(context.Background(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := CollectStream(context.Background(), c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if one.StreamHash != eight.StreamHash || !reflect.DeepEqual(one.Requests, eight.Requests) {
		t.Fatal("flash-crowd collection differs between 1 and 8 workers")
	}

	base := one.Requests
	load := c.Backend.ApplySurges(base)
	if len(load) <= len(base) {
		t.Fatalf("surge did not amplify arrivals: %d -> %d", len(base), len(load))
	}

	// Scarce: capacity provisioned from the BASE load, surged arrivals
	// replayed against it.
	cfg, err := c.Backend.Config(base)
	if err != nil {
		t.Fatal(err)
	}
	scarce, err := backend.Simulate(context.Background(), cfg, load)
	if err != nil {
		t.Fatal(err)
	}
	if len(scarce.Windows) != 1 || scarce.Windows[0].Name != "surge-0" {
		t.Fatalf("expected the one surge report window, got %+v", scarce.Windows)
	}
	win := scarce.Windows[0]
	winP95 := time.Duration(win.Delay.Quantile(0.95))
	overallP95 := scarce.DelayQuantile(0.95)
	if winP95 <= 0 {
		t.Fatal("surge window shows no queueing delay under the scarce preset")
	}
	if winP95 <= overallP95 {
		t.Fatalf("no queueing knee: surge-window p95 %v is not above run-wide p95 %v", winP95, overallP95)
	}
	winMean, overallMean := win.Delay.Mean(), scarce.Delay.Mean()
	if winMean < 2*overallMean {
		t.Fatalf("surge-window mean delay %.3gms is not well above the run-wide %.3gms", winMean/1e6, overallMean/1e6)
	}

	// Infinite: the same surged load, zero effect — the event is only
	// visible because capacity is finite.
	icfg, err := backend.PresetConfig(backend.PresetInfinite, base)
	if err != nil {
		t.Fatal(err)
	}
	icfg.Windows = cfg.Windows
	inf, err := backend.Simulate(context.Background(), icfg, load)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Dropped != 0 || inf.Shed != 0 {
		t.Fatalf("infinite deployment lost requests: dropped=%d shed=%d", inf.Dropped, inf.Shed)
	}
	if d := inf.DelayQuantile(0.99); d != 0 {
		t.Fatalf("infinite deployment shows queueing delay: p99=%v", d)
	}
	if iw := time.Duration(inf.Windows[0].Delay.Quantile(0.99)); iw != 0 {
		t.Fatalf("infinite deployment shows in-window delay: %v", iw)
	}
}
