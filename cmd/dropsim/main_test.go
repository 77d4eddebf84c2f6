package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"insidedropbox"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/cli"
)

// TestManifestSpecRecordsPopulationThatRan: the manifest spec renders the
// resolved population. Without -scenario that is the flags', and the
// profile is the one -profile named ("" when the vantage point runs its
// own client); with -scenario, the scenario's base section wins over a
// conflicting -scale and -profile. A -summary run serializes no records,
// so its spec has no format key.
func TestManifestSpecRecordsPopulationThatRan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		args     []string
		scenario string
		format   string
		want     map[string]string
	}{
		{"no -profile", nil, "", "csv", map[string]string{"vp": "home1", "scale": "0.05", "shards": "1",
			"format": "csv", "profile": ""}},
		{"-profile dropbox-1.2.52", []string{"-profile", "dropbox-1.2.52"}, "", "csv", map[string]string{"vp": "home1",
			"scale": "0.05", "shards": "1", "format": "csv", "profile": "dropbox-1.2.52"}},
		{"flag population", []string{"-scale", "0.3", "-profile", "dropbox-1.4.0"}, "", "csv",
			map[string]string{"vp": "home1", "scale": "0.3", "shards": "1", "format": "csv", "profile": "dropbox-1.4.0"}},
		{"-scenario", []string{"-scale", "0.3", "-profile", "dropbox-1.4.0"},
			"../../scenarios/mobile-heavy.json", "csv", map[string]string{"vp": "home2", "scale": "0.05", "shards": "4",
				"format": "csv", "profile": ""}},
		{"-summary", []string{"-vp", "home1", "-scale", "0.01", "-seed", "7"}, "", "",
			map[string]string{"vp": "home1", "scale": "0.01", "shards": "1", "profile": ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("dropsim", flag.ContinueOnError)
			flags := cli.BindPopulation(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			spec, pop, fc, err := flags.Population()
			if err != nil {
				t.Fatal(err)
			}
			if tc.scenario != "" {
				var comp *insidedropbox.CompiledScenario
				if pop, fc, comp, err = scenarioPopulation(tc.scenario, pop, fc); err != nil {
					t.Fatal(err)
				}
				spec = comp.Spec.Base
				if pop.Seed != 9 || pop.VP.Cohorts == nil || comp.Spec.Name != "mobile-heavy" {
					t.Fatalf("seed %d, cohorts %v, scenario %q; want the spec's seed 9 and its cohorts",
						pop.Seed, pop.VP.Cohorts != nil, comp.Spec.Name)
				}
			}
			if got := manifestSpec(spec, pop, fc, tc.format); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("manifest spec %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCampaignProgressNamesResumedShards: a resumed shard's line names the
// shard, not the count of committed shards, so resuming shards 0 and 1 of
// 4 prints each of them once.
func TestCampaignProgressNamesResumedShards(t *testing.T) {
	var b strings.Builder
	for sh := range 2 {
		campaignProgress(&b, campaign.Event{Stage: "resume", Shard: sh, Done: 2, Total: 4})
	}
	want := "  shard 0/4 resumed from checkpoint\n  shard 1/4 resumed from checkpoint\n"
	if b.String() != want {
		t.Fatalf("progress:\n%s\nwant:\n%s", b.String(), want)
	}
}
