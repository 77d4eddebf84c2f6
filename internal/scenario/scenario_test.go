package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// minimal returns the smallest valid spec document.
func minimal() string {
	return `{"schema": 1, "name": "t"}`
}

// TestParseMinimal: the smallest valid document parses, and the empty
// sections stay empty (no cohorts, no backend).
func TestParseMinimal(t *testing.T) {
	sp, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "t" || len(sp.Cohorts) != 0 || sp.Backend != nil {
		t.Fatalf("minimal spec parsed oddly: %+v", sp)
	}
}

// TestParseStrictness pins the strict-loader contract: unknown fields,
// version drift, trailing garbage, bad weights and malformed sections are
// all load errors, never warnings.
func TestParseStrictness(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"unknown top-level field", `{"schema":1,"name":"t","bogus":1}`, "bogus"},
		{"unknown nested field", `{"schema":1,"name":"t","base":{"vps":"home1"}}`, "vps"},
		{"unknown cohort field", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"rate":2}]}`, "rate"},
		{"missing schema", `{"name":"t"}`, "missing schema"},
		{"newer schema", `{"schema":2,"name":"t"}`, "schema 2 not supported"},
		{"trailing content", minimal() + ` {"schema":1,"name":"u"}`, "trailing content"},
		{"empty name", `{"schema":1,"name":""}`, "name"},
		{"uppercase name", `{"schema":1,"name":"Bad"}`, "name"},
		{"unknown vp", `{"schema":1,"name":"t","base":{"vp":"office1"}}`, "vantage point"},
		{"scale too large", `{"schema":1,"name":"t","base":{"scale":900}}`, "at most 16000000 subscribers"},
		{"negative shards", `{"schema":1,"name":"t","base":{"shards":-1}}`, "shards"},
		{"unknown base profile", `{"schema":1,"name":"t","base":{"profile":"dropbox-9"}}`, "profile"},
		{"weights sum low", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":0.5}]}`, "sum"},
		{"weights sum high", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":0.7},{"name":"b","weight":0.7}]}`, "sum"},
		{"zero weight", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":0}]}`, "weight"},
		{"duplicate cohort", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":0.5},{"name":"a","weight":0.5}]}`, "duplicate"},
		{"unknown preset", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"preset":"gamer"}]}`, "preset"},
		{"unknown daily", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"daily":"noon"}]}`, "daily"},
		{"unknown weekly", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"weekly":"noon"}]}`, "weekly"},
		{"nat chop out of range", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"nat_chop_frac":1.5}]}`, "nat_chop_frac"},
		{"flash inverted", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"flash":[{"day":5,"until_day":4,"mult":2}]}]}`, "flash"},
		{"flash past horizon", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"flash":[{"day":40,"until_day":50,"mult":2}]}]}`, "flash"},
		{"flash zero mult", `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1,"flash":[{"day":1,"until_day":2,"mult":0}]}]}`, "mult"},
		{"unknown backend preset", `{"schema":1,"name":"t","backend":{"preset":"huge"}}`, "backend preset"},
		{"surge mult too small", `{"schema":1,"name":"t","backend":{"timeline":[{"action":"surge","day":1,"until_day":2,"mult":1}]}}`, "surge mult"},
		{"surge empty window", `{"schema":1,"name":"t","backend":{"timeline":[{"action":"surge","day":2,"until_day":2,"mult":3}]}}`, "surge window"},
		{"outage empty window", `{"schema":1,"name":"t","backend":{"timeline":[{"action":"region-outage","day":2,"until_day":2}]}}`, "region-outage window"},
		{"scale zero mult", `{"schema":1,"name":"t","backend":{"timeline":[{"action":"capacity-scale","day":2,"mult":0}]}}`, "capacity-scale mult"},
		{"scale bad class", `{"schema":1,"name":"t","backend":{"timeline":[{"action":"capacity-scale","day":2,"mult":2,"class":"cache"}]}}`, "class"},
		{"unknown action", `{"schema":1,"name":"t","backend":{"timeline":[{"action":"restart","day":2}]}}`, "unknown action"},
		{"not json", `schema: 1`, "scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWeightToleranceAccepted: weights that sum to 1 within floating
// tolerance are fine (three thirds).
func TestWeightToleranceAccepted(t *testing.T) {
	doc := `{"schema":1,"name":"t","cohorts":[
		{"name":"a","weight":0.3333333},
		{"name":"b","weight":0.3333333},
		{"name":"c","weight":0.3333334}]}`
	if _, err := Parse([]byte(doc)); err != nil {
		t.Fatal(err)
	}
}

// TestPresetOverlay pins the overlay semantics: preset fields fill zero
// values, explicitly set fields win.
func TestPresetOverlay(t *testing.T) {
	c := CohortSpec{Name: "x", Weight: 1, Preset: "office-worker", FileSizeMult: 3}
	o := c.overlay()
	if o.FileSizeMult != 3 {
		t.Fatalf("explicit field lost: %v", o.FileSizeMult)
	}
	if o.EditRateMult != 1.3 || o.Daily != "office" || o.Profile != "dropbox-1.4.0" {
		t.Fatalf("preset fields not inherited: %+v", o)
	}
	// No preset: overlay is the identity.
	plain := CohortSpec{Name: "y", Weight: 1, EditRateMult: 2}
	if got := plain.overlay(); !reflect.DeepEqual(got, plain) {
		t.Fatalf("overlay changed a preset-less cohort: %+v", got)
	}
}

// TestPresetsComplete: every preset named by the issue exists and every
// preset validates as a cohort.
func TestPresetsComplete(t *testing.T) {
	want := []string{"ci-bot", "mobile-intermittent", "office-worker", "photo-hoarder", "shared-team-namespace"}
	got := Presets()
	if len(got) != len(want) {
		t.Fatalf("Presets() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Presets() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		p, _ := presetCohort(name)
		p.Name, p.Weight = name, 1
		if err := validateCohorts([]CohortSpec{p}); err != nil {
			t.Errorf("preset %s does not validate as a cohort: %v", name, err)
		}
	}
}

// TestCompileDefaults: the minimal spec compiles onto home1 at the
// campaign default scale with one shard, no cohort plan, no backend.
func TestCompileDefaults(t *testing.T) {
	sp, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp, 42)
	if err != nil {
		t.Fatal(err)
	}
	if c.VP.Name != "home1" || c.VP.Cohorts != nil || c.Backend != nil {
		t.Fatalf("minimal spec compiled oddly: vp=%s cohorts=%v backend=%v", c.VP.Name, c.VP.Cohorts, c.Backend)
	}
	if c.Seed != 42 || c.Fleet.Shards != 1 {
		t.Fatalf("defaults wrong: seed=%d shards=%d", c.Seed, c.Fleet.Shards)
	}
}

// TestCompileSeedOverride: base.seed beats the caller's seed, and the
// cohort salt follows the effective seed.
func TestCompileSeedOverride(t *testing.T) {
	sp, err := Parse([]byte(`{"schema":1,"name":"t","base":{"seed":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp, 42)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 7 {
		t.Fatalf("seed override lost: %d", c.Seed)
	}
}

// TestCompileBackendTimeline: each spec action lowers onto the expected
// events, surges and windows.
func TestCompileBackendTimeline(t *testing.T) {
	doc := `{"schema":1,"name":"t","backend":{"preset":"scarce","timeline":[
		{"action":"surge","day":10,"until_day":12,"mult":4},
		{"action":"region-outage","day":15,"until_day":18,"region":1},
		{"action":"capacity-scale","day":30,"mult":2,"class":"storage"}]}}`
	sp, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	be := c.Backend
	if be == nil || be.Preset != "scarce" {
		t.Fatalf("backend section lost: %+v", be)
	}
	if len(be.Surges) != 1 || be.Surges[0].Mult != 4 || be.Surges[0].Start != day(10) || be.Surges[0].End != day(12) {
		t.Fatalf("surge compiled wrong: %+v", be.Surges)
	}
	// Outage lowers to down+up; capacity-scale to one event.
	if len(be.Timeline) != 3 {
		t.Fatalf("timeline has %d events, want 3: %+v", len(be.Timeline), be.Timeline)
	}
	if be.Timeline[0].At != day(15) || be.Timeline[1].At != day(18) || be.Timeline[2].Factor != 2 {
		t.Fatalf("timeline events wrong: %+v", be.Timeline)
	}
	if len(be.Windows) != 3 {
		t.Fatalf("windows: %+v", be.Windows)
	}
}

// TestSummaryMentionsSections: the one-line render names the cohorts and
// backend so -validate-scenario output is useful.
func TestSummaryMentionsSections(t *testing.T) {
	doc := `{"schema":1,"name":"t","cohorts":[{"name":"a","weight":1}],"backend":{"preset":"scarce"}}`
	sp, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	s := sp.Summary()
	for _, want := range []string{"t:", "a:1.00", "scarce"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}
