package insidedropbox

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRunCheckpointResume: a run cancelled mid-campaign resumes from its
// results checkpoint, recomputing only the unfinished experiments, and
// the combined results match an uninterrupted run exactly — Text and
// Metrics both. The manifest records the resume provenance.
func TestRunCheckpointResume(t *testing.T) {
	spec := Spec{Seed: 5, Scale: goldenScale, Fleet: FleetConfig{Shards: 4}}
	sel := []string{"table1", "table2", "table3"}

	straight, err := Run(context.Background(), spec, WithExperiments(sel...))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "experiments.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := Run(ctx, spec,
		WithExperiments(sel...),
		WithCheckpoint(ckpt),
		WithProgress(func(p Progress) {
			if p.ID == "table2" && p.Done {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial) != 2 {
		t.Fatalf("cancelled run completed %d experiments, want 2", len(partial))
	}

	// Rerunning against the checkpoint without Resume must refuse.
	if _, err := Run(context.Background(), spec, WithExperiments(sel...), WithCheckpoint(ckpt)); err == nil ||
		!strings.Contains(err.Error(), "resume explicitly") {
		t.Fatalf("err = %v, want checkpoint resume-gate error", err)
	}

	resDir := t.TempDir()
	resumed, err := Run(context.Background(), spec,
		WithExperiments(sel...),
		WithCheckpoint(ckpt),
		WithResume(),
		WithResultsDir(resDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(straight) {
		t.Fatalf("resumed run returned %d results, want %d", len(resumed), len(straight))
	}
	for i, want := range straight {
		got := resumed[i]
		if got.ID != want.ID || got.Text != want.Text {
			t.Fatalf("result %s: resumed text differs from the uninterrupted run", want.ID)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Fatalf("result %s: resumed metrics differ:\n%v\nvs\n%v", want.ID, got.Metrics, want.Metrics)
		}
	}

	m, err := LoadRunManifest(filepath.Join(resDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Resume == nil || m.Resume.ResumedExperiments != 2 || m.Resume.Checkpoint != ckpt {
		t.Fatalf("manifest resume provenance = %+v, want 2 resumed experiments from %s", m.Resume, ckpt)
	}
}

// TestRunCheckpointSpecMismatch: a checkpoint never resumes under a
// different spec — seed, scale, shard count and selection all key the
// fingerprint — but a differing worker count does not block it.
func TestRunCheckpointSpecMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "experiments.ckpt")
	spec := Spec{Seed: 5, Scale: goldenScale, Fleet: FleetConfig{Shards: 4}}
	if _, err := Run(context.Background(), spec, WithExperiments("table1"), WithCheckpoint(ckpt)); err != nil {
		t.Fatal(err)
	}

	other := spec
	other.Seed = 6
	if _, err := Run(context.Background(), other, WithExperiments("table1"), WithCheckpoint(ckpt), WithResume()); err == nil ||
		!strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}

	workers := spec
	workers.Fleet.Workers = 3
	res, err := Run(context.Background(), workers, WithExperiments("table1"), WithCheckpoint(ckpt), WithResume())
	if err != nil {
		t.Fatalf("worker count must not invalidate a results checkpoint: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("resumed %d results, want 1", len(res))
	}
}

// TestRunCheckpointRefusesChangedInputs: the results-checkpoint
// fingerprint covers every population, the what-if profiles and the
// scenario document, so a resume under any other one is refused instead
// of replaying results the new spec would not produce.
func TestRunCheckpointRefusesChangedInputs(t *testing.T) {
	scen, err := LoadScenario("scenarios/mobile-heavy.json")
	if err != nil {
		t.Fatal(err)
	}
	edited := *scen
	edited.Base.Scale *= 2
	presets := CapabilityPresets()
	base := Spec{Seed: 5, Scale: goldenScale, Profiles: presets[:2], Scenario: scen}
	for _, tc := range []struct {
		name string
		mut  func(*Spec)
	}{
		{"home1 scale", func(s *Spec) { s.Scale.Home1 = 0.03 }},
		{"profiles", func(s *Spec) { s.Profiles = []CapabilityProfile{presets[0], presets[2]} }},
		{"scenario document", func(s *Spec) { s.Scenario = &edited }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "experiments.ckpt")
			if _, err := Run(context.Background(), base, WithExperiments("table1"), WithCheckpoint(ckpt)); err != nil {
				t.Fatal(err)
			}
			changed := base
			tc.mut(&changed)
			if _, err := Run(context.Background(), changed, WithExperiments("table1"), WithCheckpoint(ckpt), WithResume()); err == nil ||
				!strings.Contains(err.Error(), "different campaign spec") {
				t.Fatalf("err = %v, want fingerprint mismatch", err)
			}
			if _, err := Run(context.Background(), base, WithExperiments("table1"), WithCheckpoint(ckpt), WithResume()); err != nil {
				t.Fatalf("the unchanged spec must still resume: %v", err)
			}
		})
	}
}
