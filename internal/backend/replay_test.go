package backend_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"insidedropbox"
	"insidedropbox/internal/backend"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/scenario"
)

// goldenScale is the small population of the facade's equivalence tests.
var goldenScale = experiments.ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}

// TestBackendLabReplaysSessionPopulation: the backend/* lab replays the
// session's one scenario population. Without a spec that is Home 1 at
// Scale.Home1, seeded Seed+3, under the provisioned preset; with a spec it
// is the base's arrivals under the spec's backend.preset.
func TestBackendLabReplaysSessionPopulation(t *testing.T) {
	ctx := context.Background()
	replay := func(t *testing.T, preset string, arrivals []backend.Request) map[string]float64 {
		t.Helper()
		cfg, err := backend.PresetConfig(preset, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := backend.Simulate(ctx, cfg, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Served == 0 {
			t.Fatal("the replay served nothing")
		}
		return rep.Metrics()
	}

	t.Run("implied", func(t *testing.T) {
		fc := insidedropbox.FleetConfig{Shards: 2}
		results, err := insidedropbox.Run(ctx, insidedropbox.Spec{Seed: 3, Scale: goldenScale, Fleet: fc}, insidedropbox.WithExperiments("backend/baseline"))
		if err != nil {
			t.Fatal(err)
		}
		arrivals, _, err := backend.CollectArrivals(ctx, insidedropbox.Home1(goldenScale.Home1), 3+3, fc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := results[0].Metrics, replay(t, "provisioned", arrivals); !reflect.DeepEqual(got, want) {
			t.Fatalf("backend/baseline metrics\n%v\nwant the provisioned replay of Home 1's\n%v", got, want)
		}
	})

	t.Run("spec", func(t *testing.T) {
		scen, err := scenario.Parse([]byte(`{"schema": 1, "name": "base-scarce",
			"base": {"vp": "campus1", "scale": 0.05, "seed": 7, "shards": 2},
			"backend": {"preset": "scarce"}}`))
		if err != nil {
			t.Fatal(err)
		}
		results, err := insidedropbox.Run(ctx, insidedropbox.Spec{Seed: 3, Scale: goldenScale, Scenario: scen},
			insidedropbox.WithExperiments("backend/baseline", "backend/saturation"))
		if err != nil {
			t.Fatal(err)
		}
		pop, fc, err := scen.Base.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		arrivals, _, err := backend.CollectArrivals(ctx, pop.VP, pop.Seed, fc)
		if err != nil {
			t.Fatal(err)
		}
		base, sat := results[0], results[1]
		if !strings.Contains(base.Title, `"scarce" preset`) {
			t.Errorf("backend/baseline title %q does not name the spec's preset", base.Title)
		}
		if got, want := base.Metrics, replay(t, "scarce", arrivals); !reflect.DeepEqual(got, want) {
			t.Fatalf("backend/baseline metrics\n%v\nwant the scarce replay of the base's\n%v", got, want)
		}
		cfg, err := backend.PresetConfig("provisioned", arrivals)
		if err != nil {
			t.Fatal(err)
		}
		knee, ok := backend.SaturationPoint(cfg, arrivals)
		if got := sat.Metrics["knee_multiplier"]; !ok || got != knee {
			t.Fatalf("backend/saturation knee_multiplier = %v, want %v over the base's arrivals", got, knee)
		}
	})
}

// TestScenarioBackendIsPresetReplay: a spec holding only a base and a
// backend preset makes scenario/flash-crowd the plain preset replay of the
// base population's arrivals, backend.Simulate(backend.PresetConfig(P,
// arrivals)), metric for metric.
func TestScenarioBackendIsPresetReplay(t *testing.T) {
	scen, err := scenario.Parse([]byte(`{"schema": 1, "name": "base-scarce",
		"base": {"vp": "campus1", "scale": 0.05, "seed": 7, "shards": 2},
		"backend": {"preset": "scarce"}}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	results, err := insidedropbox.Run(ctx, insidedropbox.Spec{Seed: 3, Scale: goldenScale, Scenario: scen},
		insidedropbox.WithExperiments("scenario/flash-crowd"))
	if err != nil {
		t.Fatal(err)
	}

	pop, fc, err := scen.Base.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	arrivals, _, err := backend.CollectArrivals(ctx, pop.VP, pop.Seed, fc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := backend.PresetConfig("scarce", arrivals)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := backend.Simulate(ctx, cfg, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Metrics()
	want["requests_base"] = float64(len(arrivals))
	want["requests_load"] = float64(len(arrivals))
	if rep.Served == 0 {
		t.Fatal("the replay served nothing")
	}
	if got := results[0].Metrics; !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario/flash-crowd metrics\n%v\nwant the preset replay's\n%v", got, want)
	}
}
