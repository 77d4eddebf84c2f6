package cli

import (
	"flag"
	"testing"
)

func TestBindSpecDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	spec, err := flags.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 2012 || spec.Fleet.Shards != 1 || spec.Quick || spec.SkipPacket {
		t.Fatalf("default spec: %+v", spec)
	}
	if len(spec.Experiments) != 0 || len(spec.Profiles) != 0 {
		t.Fatalf("default spec selects explicitly: %+v", spec)
	}
	if spec.ResultsDir != "results" {
		t.Fatalf("default results dir: %q", spec.ResultsDir)
	}
}

func TestBindSpecFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	err := fs.Parse([]string{
		"-seed", "7", "-quick", "-shards", "8", "-workers", "2",
		"-only", "table3, figure*", "-whatif", "-fleet-scale", "2.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := flags.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 7 || !spec.Quick || spec.Fleet.Shards != 8 || spec.Fleet.Workers != 2 {
		t.Fatalf("spec: %+v", spec)
	}
	// -whatif and -fleet-scale join the explicit selection (they would
	// otherwise be silently ignored alongside -only).
	want := []string{"table3", "figure*", "whatif", "fleet"}
	if len(spec.Experiments) != len(want) {
		t.Fatalf("patterns: %v, want %v", spec.Experiments, want)
	}
	for i := range want {
		if spec.Experiments[i] != want[i] {
			t.Fatalf("patterns: %v, want %v", spec.Experiments, want)
		}
	}
	if len(spec.Profiles) == 0 {
		t.Fatal("-whatif did not resolve the default profile catalogue")
	}
	if spec.FleetScale != 2.5 {
		t.Fatalf("fleet scale: %g", spec.FleetScale)
	}
}

func TestBindSpecOnlyComposesWithLabFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	if err := fs.Parse([]string{"-only", "table3", "-whatif", "-fleet-scale", "10"}); err != nil {
		t.Fatal(err)
	}
	spec, err := flags.Spec()
	if err != nil {
		t.Fatal(err)
	}
	// An explicit -only selection suppresses the Spec's opt-in defaulting,
	// so the lab flags must have joined the patterns explicitly.
	want := []string{"table3", "whatif", "fleet"}
	if len(spec.Experiments) != len(want) {
		t.Fatalf("patterns: %v, want %v", spec.Experiments, want)
	}
	for i := range want {
		if spec.Experiments[i] != want[i] {
			t.Fatalf("patterns: %v, want %v", spec.Experiments, want)
		}
	}
}

func TestBindSpecExplicitProfilesWithoutWhatifFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	// -profiles alongside -only whatif must be honored even without the
	// -whatif flag (historically it was silently ignored).
	if err := fs.Parse([]string{"-only", "whatif", "-profiles", "dropbox-1.2.52,no-dedup"}); err != nil {
		t.Fatal(err)
	}
	spec, err := flags.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Profiles) != 2 {
		t.Fatalf("explicit -profiles ignored: %d profiles", len(spec.Profiles))
	}
}

func TestBindSpecBadProfiles(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	if err := fs.Parse([]string{"-whatif", "-profiles", "no-such-profile"}); err != nil {
		t.Fatal(err)
	}
	if _, err := flags.Spec(); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestVantagePoint(t *testing.T) {
	for _, name := range VantageNames() {
		cfg, err := VantagePoint(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.TotalIPs == 0 {
			t.Fatalf("%s: empty population", name)
		}
	}
	if _, err := VantagePoint("campus9", 1); err == nil {
		t.Fatal("unknown vantage point accepted")
	}
}

func TestSplitPatterns(t *testing.T) {
	got := SplitPatterns(" a, ,b ,")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SplitPatterns = %v", got)
	}
}
