package backend_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/golden"
	"insidedropbox/internal/scenario"
)

// metricsGolden is the FNV-1a of every Report.Metrics() rendering in the
// TestSimulateMetricsGolden matrix, recorded on the commit before the
// arrival cursor replaced the all-arrivals event heap. An optimisation of
// Simulate must reproduce each rendering byte for byte: edit this table
// only when the simulation's meaning changes on purpose.
var metricsGolden = map[string]uint64{
	"synth/infinite/0.5x/plain":       0x2dd5dfee663789b9,
	"synth/infinite/0.5x/timeline":    0xe97544d2a4d74b42,
	"synth/infinite/2x/plain":         0x2dd5dfee663789b9,
	"synth/infinite/2x/timeline":      0xe97544d2a4d74b42,
	"synth/provisioned/0.5x/plain":    0xed97bec02600eeb0,
	"synth/provisioned/0.5x/timeline": 0xfbef146ec1f00be3,
	"synth/provisioned/2x/plain":      0xbe072ffdb34b4945,
	"synth/provisioned/2x/timeline":   0x91e014be1e218e2c,
	"synth/scarce/0.5x/plain":         0xadf98ce850d73e64,
	"synth/scarce/0.5x/timeline":      0x6120b6edbe005500,
	"synth/scarce/2x/plain":           0x73423dcab21087e8,
	"synth/scarce/2x/timeline":        0x53d244e35b1d5584,
	"mix/infinite/0.5x/plain":         0x225fefd3cf5302a1,
	"mix/infinite/0.5x/timeline":      0x32ad29383469ba41,
	"mix/infinite/2x/plain":           0x225fefd3cf5302a1,
	"mix/infinite/2x/timeline":        0x32ad29383469ba41,
	"mix/provisioned/0.5x/plain":      0x641693593ccf53e1,
	"mix/provisioned/0.5x/timeline":   0x49bd13dbf5f544b3,
	"mix/provisioned/2x/plain":        0xcf2cb0afed36abf9,
	"mix/provisioned/2x/timeline":     0x2a897deb49f0f11a,
	"mix/scarce/0.5x/plain":           0x73163f67b51902ff,
	"mix/scarce/0.5x/timeline":        0x78b0e1fa3045d842,
	"mix/scarce/2x/plain":             0xa4a55a619218c9c1,
	"mix/scarce/2x/timeline":          0xf5882d4a3b260781,
}

// goldenMix is a small cohort-mix spec: the scenario path's arrival set,
// with the cohort overlay's burstier timestamps.
const goldenMix = `{
	"schema": 1, "name": "golden-mix",
	"base": {"vp": "home1", "scale": 0.02, "seed": 7, "shards": 4},
	"cohorts": [
		{"name": "office", "preset": "office-worker", "weight": 0.5},
		{"name": "mobile", "preset": "mobile-intermittent", "weight": 0.3},
		{"name": "bots", "preset": "ci-bot", "weight": 0.2}
	]
}`

func mixArrivals(t *testing.T) []backend.Request {
	t.Helper()
	sp, err := scenario.Parse([]byte(goldenMix))
	if err != nil {
		t.Fatal(err)
	}
	c, err := scenario.Compile(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.CollectStream(context.Background(), c, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Requests
}

// withTimeline adds a region outage, a capacity scale and two report
// windows to cfg. Their timestamps are arrival timestamps of load, so
// arrivals, timeline events and departures share instants and the tie
// order is exercised, not just the clock.
func withTimeline(cfg backend.Config, load []backend.Request) backend.Config {
	at := func(frac float64) backend.Request { return load[int(frac*float64(len(load)-1))] }
	down, up, scale := at(0.3).Arrive, at(0.5).Arrive, at(0.6).Arrive
	cfg.Timeline = []backend.TimelineEvent{
		{At: down, Action: backend.ActionRegionDown, Region: 1},
		{At: up, Action: backend.ActionRegionUp, Region: 1},
		{At: scale, Action: backend.ActionScaleCapacity, AllClasses: true, Factor: 0.5},
	}
	cfg.Windows = []backend.Window{
		{Name: "outage", Start: down, End: up},
		{Name: "degraded", Start: scale, End: backend.Horizon(load) + 1},
	}
	return cfg
}

// renderMetrics is the byte form the golden table hashes: sorted
// key=value lines, values in shortest round-trip form.
func renderMetrics(m map[string]float64) string {
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return b.String()
}

// TestSimulateMetricsGolden pins the simulation's output, not its speed:
// {synthetic, cohort-mix} arrivals × {infinite, provisioned, scarce} ×
// {0.5, 2}× the preset's knee (1 for the unbounded infinite preset) ×
// {plain, timeline + windows}. Every row must hash to its recorded value.
func TestSimulateMetricsGolden(t *testing.T) {
	inputs := []struct {
		name string
		reqs []backend.Request
	}{
		{"synth", backend.SynthReqs(11, 5000)},
		{"mix", mixArrivals(t)},
	}
	seen := 0
	for _, in := range inputs {
		for _, preset := range backend.Presets() {
			cfg, err := backend.PresetConfig(preset, in.reqs)
			if err != nil {
				t.Fatal(err)
			}
			knee, ok := backend.SaturationPoint(cfg, in.reqs)
			if !ok {
				knee = 1
			}
			for _, f := range []float64{0.5, 2} {
				load := backend.ScaleLoad(in.reqs, f*knee)
				for _, variant := range []string{"plain", "timeline"} {
					c := cfg
					if variant == "timeline" {
						c = withTimeline(cfg, load)
					}
					rep, err := backend.Simulate(context.Background(), c, load)
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					h.Write([]byte(renderMetrics(rep.Metrics())))
					name := fmt.Sprintf("%s/%s/%gx/%s", in.name, preset, f, variant)
					if want, ok := metricsGolden[name]; !ok || !golden.Match(h.Sum64(), want) {
						t.Errorf("%q: %#x, // want %#x", name, h.Sum64(), want)
					}
					seen++
				}
			}
		}
	}
	if seen != len(metricsGolden) {
		t.Errorf("matrix has %d rows, golden table %d", seen, len(metricsGolden))
	}
}
