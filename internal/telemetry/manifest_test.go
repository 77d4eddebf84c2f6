package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestRoundTrip pins the manifest contract end to end: Save
// finalizes (environment stamped, snapshot captured, nil slices
// normalized), LoadManifest validates, and every recorded field
// survives the trip.
func TestManifestRoundTrip(t *testing.T) {
	reset() // metrics are process-global; -count=2 must start from zero
	c := NewCounter("test.manifest.counter")
	c.Add(11)

	m := NewManifest(42)
	m.Spec = map[string]string{"vp": "home1", "scale": "0.02"}
	m.StreamHash = "00000000deadbeef"
	m.Experiments = []ExperimentTiming{{ID: "table3", Title: "Flows", Seconds: 1.5}}
	m.Shards = []ShardTiming{{Experiment: "table3", VP: "home1", Shard: 0, Shards: 4, Records: 1210, Seconds: 0.01}}

	path := filepath.Join(t.TempDir(), ManifestFile)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema || got.Seed != 42 {
		t.Fatalf("schema/seed = %d/%d, want %d/42", got.Schema, got.Seed, ManifestSchema)
	}
	if got.GoVersion == "" || got.GOMAXPROCS < 1 || got.NumCPU < 1 {
		t.Fatalf("environment not stamped: %+v", got)
	}
	if got.Spec["vp"] != "home1" {
		t.Fatalf("spec lost: %v", got.Spec)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].ID != "table3" {
		t.Fatalf("experiments lost: %+v", got.Experiments)
	}
	if len(got.Shards) != 1 || got.Shards[0].Records != 1210 {
		t.Fatalf("shards lost: %+v", got.Shards)
	}
	if got.Telemetry.Counters["test.manifest.counter"] != 11 {
		t.Fatalf("counter snapshot lost: %v", got.Telemetry.Counters)
	}
	if got.StreamHash != "00000000deadbeef" {
		t.Fatalf("stream hash = %q, want 00000000deadbeef", got.StreamHash)
	}
}

// TestManifestEmptyRun pins that a manifest with no experiments and no
// shards still validates — a failed or selection-empty campaign keeps
// its provenance record, with arrays present (not null) in the JSON.
func TestManifestEmptyRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), ManifestFile)
	if err := NewManifest(1).Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"experiments": []`) || !strings.Contains(s, `"shards": []`) {
		t.Fatalf("empty manifest JSON carries null arrays:\n%s", s)
	}
}

// TestManifestValidate pins the rejection paths consumers rely on.
func TestManifestValidate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, mutate func(m *Manifest)) string {
		t.Helper()
		m := NewManifest(1)
		m.Finalize()
		mutate(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	cases := []struct {
		name   string
		mutate func(m *Manifest)
	}{
		{"bad-schema.json", func(m *Manifest) { m.Schema = ManifestSchema + 1 }},
		{"no-env.json", func(m *Manifest) { m.GoVersion = "" }},
		{"no-counters.json", func(m *Manifest) { m.Telemetry.Counters = nil }},
	}
	for _, tc := range cases {
		if _, err := LoadManifest(write(tc.name, tc.mutate)); err == nil {
			t.Errorf("%s: LoadManifest accepted an invalid manifest", tc.name)
		}
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("LoadManifest accepted a missing file")
	}
	if _, err := LoadManifest(write("ok.json", func(m *Manifest) {})); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}
