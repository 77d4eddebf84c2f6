package cli

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"insidedropbox"
	"insidedropbox/internal/campaign"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/workload"
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
		"-only", "table3, figure*", "-profiles", "dropbox-1.2.52,no-dedup",
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
	// -profiles joins the what-if lab to the explicit selection (it would
	// otherwise be silently ignored alongside -only).
	want := []string{"table3", "figure*", "whatif"}
	if len(spec.Experiments) != len(want) {
		t.Fatalf("patterns: %v, want %v", spec.Experiments, want)
	}
	for i := range want {
		if spec.Experiments[i] != want[i] {
			t.Fatalf("patterns: %v, want %v", spec.Experiments, want)
		}
	}
	if len(spec.Profiles) != 2 {
		t.Fatalf("-profiles resolved %d profiles, want 2", len(spec.Profiles))
	}
}

// TestBindSpecOnlyComposesWithLabFlags: an explicit -only selection
// suppresses the Spec's opt-in defaulting, so the lab flags must join the
// patterns explicitly — scenario/flash-crowd only for a spec with a
// backend section, so -only table1 runs on every committed spec, while
// -only scenario/flash-crowd still names it.
func TestBindSpecOnlyComposesWithLabFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-only", "table3", "-profiles", "no-dedup", "-scenario", "../../scenarios/flash-crowd-scarce.json"},
			[]string{"table3", "whatif", "scenario/*"}},
		{[]string{"-only", "table1", "-scenario", "../../scenarios/paper-baseline.json"},
			[]string{"table1", "scenario/cohorts"}},
		{[]string{"-only", "scenario/flash-crowd", "-scenario", "../../scenarios/paper-baseline.json"},
			[]string{"scenario/flash-crowd", "scenario/cohorts"}},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		flags := BindSpec(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		spec, err := flags.Spec()
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if !slices.Equal(spec.Experiments, c.want) {
			t.Errorf("%v: patterns %v, want %v", c.args, spec.Experiments, c.want)
		}
	}
}

func TestBindSpecExplicitProfilesWithoutWhatifFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	// -profiles is the what-if lab's one knob: alongside -only whatif it
	// is honored, and no -whatif flag (nor -backend) exists beside it.
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
	for _, gone := range []string{"-whatif", "-backend"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		BindSpec(fs)
		if err := fs.Parse([]string{gone, "scarce"}); err == nil {
			t.Errorf("%s parsed; the flag is gone", gone)
		}
	}
}

func TestBindSpecBadProfiles(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	flags := BindSpec(fs)
	if err := fs.Parse([]string{"-profiles", "no-such-profile"}); err != nil {
		t.Fatal(err)
	}
	if _, err := flags.Spec(); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// scale900 is the one refusal text of a population too large for 10/8:
// Home 1 at 900 would be 16,906,500 subscribers.
const scale900 = "scale must be > 0 and give home1 at most 16000000 subscribers, the distinct 10/8 addresses (got 900)"

// TestPopulationRules: fleet.PopulationSpec is the one rule set of a
// population. Each row is checked by Resolve, then fed through
// campaign.Run (campaign.NewSpec), scenario.Parse and BindPopulation,
// which refuse it with Resolve's text or accept it alike — except where a
// scenario base reads a zero as its default (an empty vp is home1, a zero
// scale 0.08). The scale rows bound the size by the address plan, not by
// a fixed factor: Campus 1 at 900 fits, Home 1 at 900 does not.
func TestPopulationRules(t *testing.T) {
	type row struct {
		name string
		mut  func(*fleet.PopulationSpec)
		want string // a substring of Resolve's error; "" accepts the row
		// scenarioDefault: a scenario base reads this zero as its default.
		scenarioDefault bool
	}
	rows := []row{
		{"unknown vp", func(s *fleet.PopulationSpec) { s.VP = "campus9" }, `unknown vantage point "campus9"`, false},
		{"empty vp", func(s *fleet.PopulationSpec) { s.VP = "" }, `unknown vantage point ""`, true},
		{"scale 0", func(s *fleet.PopulationSpec) { s.Scale = 0 }, "scale must be > 0 and give home1 at most 16000000 subscribers, the distinct 10/8 addresses (got 0)", true},
		{"scale -1", func(s *fleet.PopulationSpec) { s.Scale = -1 }, "scale must be > 0 and give home1 at most 16000000 subscribers, the distinct 10/8 addresses (got -1)", false},
		{"scale 11", func(s *fleet.PopulationSpec) { s.Scale = 11 }, "", false},
		{"scale 900", func(s *fleet.PopulationSpec) { s.Scale = 900 }, scale900, false},
		{"campus1 scale 900", func(s *fleet.PopulationSpec) { s.VP, s.Scale = "campus1", 900 }, "", false},
		{"shards 0", func(s *fleet.PopulationSpec) { s.Shards = 0 }, "", false},
		{"shards -1", func(s *fleet.PopulationSpec) { s.Shards = -1 }, "shards must be in [1, 1024], 0 meaning 1 (got -1", false},
		{"shards 1025", func(s *fleet.PopulationSpec) { s.Shards = 1025 }, "(got 1025: negative or exceeds the maximum)", false},
		{"unknown profile", func(s *fleet.PopulationSpec) { s.Profile = "quantum" }, `unknown capability profile "quantum"`, false},
		{"profile", func(s *fleet.PopulationSpec) { s.Profile = "dropbox-1.4.0" }, "", false},
	}
	for _, name := range workload.VantagePoints() {
		rows = append(rows, row{"vp " + name, func(s *fleet.PopulationSpec) { s.VP = name }, "", false})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			spec := fleet.PopulationSpec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 1}
			r.mut(&spec)
			pop, fc, err := spec.Resolve()
			switch {
			case r.want == "" && err != nil:
				t.Fatalf("Resolve refused the row: %v", err)
			case r.want == "" && (pop.VP.TotalIPs == 0 || fc.Shards != 1):
				t.Fatalf("Resolve: empty population or unnormalised config: %d IPs, %+v", pop.VP.TotalIPs, fc)
			case r.want != "" && (err == nil || !strings.Contains(err.Error(), r.want)):
				t.Fatalf("Resolve: err = %v, want %q", err, r.want)
			}
			same := func(front string, got error, accepted string) {
				t.Helper()
				if err != nil {
					if got == nil || !strings.Contains(got.Error(), err.Error()) {
						t.Errorf("%s: err = %v, want Resolve's %q", front, got, err)
					}
				} else if got != nil && (accepted == "" || !strings.Contains(got.Error(), accepted)) {
					t.Errorf("%s refused a population Resolve accepts: %v", front, got)
				}
			}

			// Without a Dir, a campaign that gets past its spec stops at
			// the directory check.
			_, got := campaign.Run(context.Background(), campaign.Config{Spec: campaign.NewSpec(spec, "", true)})
			if got == nil {
				t.Fatal("campaign.Run without a Dir succeeded")
			}
			same("campaign.Run", got, "campaign directory")

			doc, jerr := json.Marshal(scenario.Spec{Schema: scenario.Schema, Name: "t", Base: spec})
			if jerr != nil {
				t.Fatal(jerr)
			}
			_, got = scenario.Parse(doc)
			if r.scenarioDefault {
				if got != nil {
					t.Errorf("scenario.Parse refused a base that defaults: %v", got)
				}
			} else {
				same("scenario.Parse", got, "")
			}

			fs := flag.NewFlagSet("x", flag.ContinueOnError)
			flags := BindPopulation(fs)
			if perr := fs.Parse([]string{"-vp=" + spec.VP,
				"-scale=" + strconv.FormatFloat(spec.Scale, 'g', -1, 64),
				"-seed=" + strconv.FormatInt(spec.Seed, 10),
				"-shards=" + strconv.Itoa(spec.Shards),
				"-profile=" + spec.Profile}); perr != nil {
				t.Fatal(perr)
			}
			bound, _, _, got := flags.Population()
			same("BindPopulation", got, "")
			if bound != spec {
				t.Errorf("BindPopulation bound %+v, want %+v", bound, spec)
			}
		})
	}
}

// TestRunRefusesOutOfRangeFleet: insidedropbox.Run takes the population
// rule for shards, the pool's rule for workers, and the population-size
// rule for Scale (Home 1 at 900, refused with Resolve's text); all fail
// before anything is generated or written, and -shards and -workers fail
// alike in Spec(), so cmd/experiments exits 2.
func TestRunRefusesOutOfRangeFleet(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fleet insidedropbox.FleetConfig
		scale insidedropbox.ScaleConfig
		want  string
	}{
		{"shards -1", insidedropbox.FleetConfig{Shards: -1}, insidedropbox.ScaleConfig{}, "shards must be in [1, 1024], 0 meaning 1 (got -1"},
		{"shards 1025", insidedropbox.FleetConfig{Shards: 1025}, insidedropbox.ScaleConfig{}, "(got 1025: negative or exceeds the maximum)"},
		{"shards 2000", insidedropbox.FleetConfig{Shards: 2000}, insidedropbox.ScaleConfig{}, "(got 2000: negative or exceeds the maximum)"},
		{"home1 scale 900", insidedropbox.FleetConfig{}, insidedropbox.ScaleConfig{Campus1: 0.4, Campus2: 0.08, Home1: 900, Home2: 0.03}, scale900},
		{"workers -1", insidedropbox.FleetConfig{Workers: -1}, insidedropbox.ScaleConfig{}, "workers must be >= 0, 0 meaning GOMAXPROCS (got -1)"},
		{"workers -3", insidedropbox.FleetConfig{Workers: -3}, insidedropbox.ScaleConfig{}, "workers must be >= 0, 0 meaning GOMAXPROCS (got -3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			res, err := insidedropbox.Run(context.Background(), insidedropbox.Spec{
				Seed: 2012, Quick: true, Scale: tc.scale, Fleet: tc.fleet, ResultsDir: out,
			}, insidedropbox.WithExperiments("table2"))
			if err == nil || !strings.Contains(err.Error(), tc.want) || len(res) != 0 {
				t.Fatalf("Run = %d results, %v; want a refusal containing %q", len(res), err, tc.want)
			}
			if _, serr := os.Stat(out); !os.IsNotExist(serr) {
				t.Fatalf("refused run left %s behind (%v)", out, serr)
			}
			// cmd/experiments sizes populations by -quick alone: no flag
			// reaches Scale.
			args := []string{"-quick", "-skip-packet", "-only", "table2"}
			switch {
			case tc.fleet.Shards != 0:
				args = append(args, "-shards", strconv.Itoa(tc.fleet.Shards))
			case tc.fleet.Workers != 0:
				args = append(args, "-workers", strconv.Itoa(tc.fleet.Workers))
			default:
				return
			}
			fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
			flags := BindSpec(fs)
			if perr := fs.Parse(args); perr != nil {
				t.Fatal(perr)
			}
			if _, err := flags.Spec(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v: Spec() err = %v, want %q", args[4:], err, tc.want)
			}
		})
	}
}

// TestBindPopulationDefaults pins the population flags' defaults, which
// dropsim's straight export and its -checkpoint campaign share.
func TestBindPopulationDefaults(t *testing.T) {
	flags := BindPopulation(flag.NewFlagSet("x", flag.ContinueOnError))
	spec, _, _, err := flags.Population()
	if err != nil {
		t.Fatal(err)
	}
	want := fleet.PopulationSpec{VP: "home1", Scale: 0.05, Seed: 42, Shards: 1}
	if spec != want {
		t.Fatalf("defaults %+v, want %+v", spec, want)
	}
}

func TestSplitPatterns(t *testing.T) {
	got := SplitPatterns(" a, ,b ,")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SplitPatterns = %v", got)
	}
}
