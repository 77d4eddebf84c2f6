package main

import (
	"flag"
	"reflect"
	"testing"

	"insidedropbox/internal/cli"
)

// TestManifestSpecRecordsPopulationThatRan: the manifest spec renders the
// resolved population. Without -scenario that is the flags'; with it, the
// scenario's base section wins over a conflicting -scale and -profile, and
// only its zero devices_scale leaves -devices-scale in force.
func TestManifestSpecRecordsPopulationThatRan(t *testing.T) {
	fs := flag.NewFlagSet("dropsim", flag.ContinueOnError)
	flags := cli.BindPopulation(fs)
	if err := fs.Parse([]string{"-scale", "0.3", "-profile", "dropbox-1.4.0", "-devices-scale", "2"}); err != nil {
		t.Fatal(err)
	}
	_, pop, fc, err := flags.Population()
	if err != nil {
		t.Fatal(err)
	}
	got := manifestSpec(pop, fc, "csv")
	want := map[string]string{"vp": "home1", "scale": "0.3", "shards": "1", "devices_scale": "2",
		"format": "csv", "profile": "dropbox-1.4.0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag population: manifest spec %v, want %v", got, want)
	}

	pop, fc, comp, err := scenarioPopulation("../../scenarios/mobile-heavy.json", pop, fc)
	if err != nil {
		t.Fatal(err)
	}
	got = manifestSpec(pop, fc, "csv")
	want = map[string]string{"vp": "home2", "scale": "0.05", "shards": "4", "devices_scale": "2",
		"format": "csv", "profile": ""}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("-scenario: manifest spec %v, want %v", got, want)
	}
	if pop.Seed != 9 || pop.VP.Cohorts == nil || comp.Spec.Name != "mobile-heavy" {
		t.Fatalf("-scenario: seed %d, cohorts %v, scenario %q; want the spec's seed 9 and its cohorts",
			pop.Seed, pop.VP.Cohorts != nil, comp.Spec.Name)
	}
}
