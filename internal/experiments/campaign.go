// Package experiments contains one driver per table and figure of the
// paper, plus the engines that feed them. Each driver renders from the
// four vantage points' Tallies or runs a dedicated packet-level lab, and
// produces a Result holding the rendered text (tables / ASCII figures)
// plus named metrics that the benchmark harness and EXPERIMENTS.md
// assertions consume.
//
// Three engines coexist:
//
//   - Fold folds each vantage point's generated records into one Tally
//     through the sharded fleet engine, which every table and figure reads
//     (1 shard per VP folds the historical sequential generator's
//     population);
//   - RunFleet streams populations far larger than the paper's into
//     bounded-memory fleet.Summary aggregates;
//   - WhatIfConfig.Run folds one population into a Tally per client
//     capability profile (internal/capability) and tabulates storage
//     volume, flow, operation and sync-latency deltas against a baseline
//     profile — the generalization of the paper's Sec. 6 bundling analysis.
//
// See EXPERIMENTS.md at the repository root for the full catalogue, the
// determinism contract, and how each driver maps to the paper.
package experiments

import (
	"fmt"
	"strings"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/workload"
)

// Result is one regenerated table or figure.
type Result struct {
	ID      string // "table2", "figure9", ...
	Title   string
	Text    string
	Metrics map[string]float64

	// Meta is ordered provenance metadata (seed, scale, shards, ...)
	// attached by the Run orchestration. Renderers honor insertion order;
	// legacy drivers leave it nil, keeping their output byte-identical.
	Meta []MetaEntry
}

// MetaEntry is one ordered provenance key/value pair on a Result.
type MetaEntry struct {
	Key, Value string
}

// AddMeta appends one provenance entry, preserving insertion order.
func (r *Result) AddMeta(key, value string) {
	r.Meta = append(r.Meta, MetaEntry{Key: key, Value: value})
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: make(map[string]float64)}
}

func (r *Result) addText(s string) {
	if r.Text != "" && !strings.HasSuffix(r.Text, "\n") {
		r.Text += "\n"
	}
	r.Text += s
}

// ScaleConfig sets per-VP population scaling (fraction of the paper's
// population; the runtime and memory budget of a laptop run).
type ScaleConfig struct {
	Campus1, Campus2, Home1, Home2 float64
}

// DefaultScale keeps a full campaign around a few hundred thousand flows.
func DefaultScale() ScaleConfig {
	return ScaleConfig{Campus1: 1.0, Campus2: 0.25, Home1: 0.08, Home2: 0.08}
}

// SmallScale is used by unit tests and quick benchmarks.
func SmallScale() ScaleConfig {
	return ScaleConfig{Campus1: 0.4, Campus2: 0.08, Home1: 0.03, Home2: 0.03}
}

// Times multiplies every vantage point's fraction by f, the fleet lab's
// FleetScale; f <= 0 leaves sc as it is.
func (sc ScaleConfig) Times(f float64) ScaleConfig {
	if f <= 0 {
		return sc
	}
	return ScaleConfig{Campus1: sc.Campus1 * f, Campus2: sc.Campus2 * f, Home1: sc.Home1 * f, Home2: sc.Home2 * f}
}

// Check applies workload.CheckScale to the four populations.
func (sc ScaleConfig) Check() error {
	for _, p := range vantagePoints(0, sc) {
		if err := workload.CheckScale(p.VP); err != nil {
			return err
		}
	}
	return nil
}

// vantagePoints returns the four vantage points in campaign order with
// their per-VP seeds seed+1 … seed+4 (stable since the first release, so
// campaign results are reproducible across engine versions).
func vantagePoints(seed int64, sc ScaleConfig) []fleet.Population {
	return []fleet.Population{
		{VP: workload.Campus1(sc.Campus1), Seed: seed + 1},
		{VP: workload.Campus2(sc.Campus2), Seed: seed + 2},
		{VP: workload.Home1(sc.Home1), Seed: seed + 3},
		{VP: workload.Home2(sc.Home2), Seed: seed + 4},
	}
}

// fmtGB renders bytes as gigabytes with two decimals.
func fmtGB(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// All renders every experiment of the four vantage points' tallies
// (packet-level labs excluded; see RunPacketLabs) in paper order.
func All(ts Tallies) []*Result {
	return []*Result{
		Table1(),
		Table2(ts),
		Table3(ts),
		Table5(ts),
		Figure2(ts),
		Figure3(ts),
		Figure4(ts),
		Figure5(ts),
		Figure6(ts),
		Figure7(ts),
		Figure8(ts),
		Figure11(ts),
		Figure12(ts),
		Figure13(ts),
		Figure14(ts),
		Figure15(ts),
		Figure16(ts),
		Figure17(ts),
		Figure18(ts),
		Figure20(ts),
		Figure21(ts),
	}
}
