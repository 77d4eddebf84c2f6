package experiments

import (
	"context"
	"fmt"
	"math"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/workload"
)

// WhatIfConfig drives a capability what-if campaign: the same sharded
// fleet population generated once per capability profile, each run folded
// into a Tally and compared against the first profile (the baseline). It
// generalizes the paper's Sec. 6 bundling analysis — which compared
// exactly two client capabilities across two captures — to any point in
// the capability space.
type WhatIfConfig struct {
	// Seed is the campaign seed, shared by every profile run so the
	// populations draw from the same stream. Profiles that change
	// operation structure resample parts of it; see the determinism notes
	// in the capability package.
	Seed int64
	// VP is the vantage-point population to replay under each profile.
	VP workload.VPConfig
	// Fleet sizes the sharded engine for every run.
	Fleet fleet.Config
	// Profiles are the capability profiles to compare. Profiles[0] is the
	// baseline the delta columns reference.
	Profiles []capability.Profile
}

// WhatIfRun is one profile's outcome: its population folded into a Tally,
// and that Tally's generation ground truth.
type WhatIfRun struct {
	Profile capability.Profile
	Stats   fleet.VPStats
	Tally   *Tally
}

// WhatIfReport is the full what-if campaign outcome: one run per profile,
// baseline first.
type WhatIfReport struct {
	Config WhatIfConfig
	Runs   []*WhatIfRun
}

// ByProfile returns a profile's run by name (nil if absent).
func (r *WhatIfReport) ByProfile(name string) *WhatIfRun {
	for _, run := range r.Runs {
		if run.Profile.Name == name {
			return run
		}
	}
	return nil
}

// Run executes the what-if campaign: every profile replays the same
// vantage-point population, all profiles' shards folded on one fleet pool
// of cfg.Fleet.Workers, one Tally per profile. Determinism: each (seed,
// population, shards, profile) run is bit-reproducible regardless of
// worker count or how many profiles run alongside it, and a vantage
// point's own preset reproduces its campaign output exactly.
//
// Cancelling ctx aborts every profile run at fleet-shard granularity and
// returns ctx.Err() with a nil report.
func (cfg WhatIfConfig) Run(ctx context.Context) (*WhatIfReport, error) {
	pops := make([]fleet.Population, len(cfg.Profiles))
	for i, prof := range cfg.Profiles {
		pops[i] = fleet.Population{VP: cfg.VP, Seed: cfg.Seed}
		pops[i].VP.Caps = prof
	}
	tallies, err := fold(ctx, pops, cfg.Fleet)
	if err != nil {
		return nil, err
	}
	report := &WhatIfReport{Config: cfg, Runs: make([]*WhatIfRun, len(pops))}
	for i, t := range tallies {
		report.Runs[i] = &WhatIfRun{Profile: cfg.Profiles[i], Stats: t.VPStats, Tally: t}
	}
	return report, nil
}

// storageTraffic is one profile's client-storage flows, per direction
// (indexed by classify.Direction): payload bytes, flows, storage
// operations estimated from PSH flags with the paper's Appendix A.3
// estimator (classify.EstimateChunks), and the ECDF of per-flow transfer
// durations in ms, the client-visible sync latency (its median is NaN
// without flows).
type storageTraffic struct {
	bytes, flows, ops [2]int64
	latency           [2]*analysis.ECDF
}

// storageTrafficOf reads a Tally's storage samples in one walk.
func storageTrafficOf(t *Tally) storageTraffic {
	var st storageTraffic
	var ms [2][]float64
	for i := range t.Storage {
		r := t.Storage[i].Record()
		d := classify.TagStorage(&r)
		st.bytes[d] += classify.Payload(&r, d)
		st.flows[d]++
		st.ops[d] += int64(classify.EstimateChunks(&r, d))
		ms[d] = append(ms[d], classify.TransferDuration(&r, d).Seconds()*1e3)
	}
	for d := range ms {
		st.latency[d] = analysis.NewECDF(ms[d])
	}
	return st
}

// both totals a per-direction pair.
func both(v [2]int64) float64 { return float64(v[0] + v[1]) }

// pctDelta renders a percentage change versus a baseline value; a missing
// (NaN) or zero baseline has none.
func pctDelta(v, base float64) string {
	if base == 0 || math.IsNaN(base) || math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(v/base-1))
}

// Result renders the report as a standard experiment result ("whatif"):
// one row per profile with absolute storage traffic aggregates, followed
// by a delta table against the baseline profile. A direction without
// flows prints "-" for its latency and "n/a" for its delta. Metrics carry
// every absolute value keyed by profile name, so golden tests and
// EXPERIMENTS.md assertions can pin them.
func (r *WhatIfReport) Result() *Result {
	res := newResult("whatif", fmt.Sprintf(
		"What-if: %s under %d capability profiles (baseline %s, %d shards, seed %d)",
		r.Config.VP.Name, len(r.Runs), r.baselineName(), max(r.Config.Fleet.Shards, 1), r.Config.Seed))

	traffic := make([]storageTraffic, len(r.Runs))
	abs := analysis.NewTable(res.Title,
		"profile", "store GB", "retr GB", "flows", "ops", "store med ms", "retr med ms")
	for i, run := range r.Runs {
		traffic[i] = storageTrafficOf(run.Tally)
		st := &traffic[i]
		storeGB := float64(st.bytes[classify.DirStore]) / 1e9
		retrGB := float64(st.bytes[classify.DirRetrieve]) / 1e9
		storeMed, retrMed := st.latency[classify.DirStore].Median(), st.latency[classify.DirRetrieve].Median()
		abs.AddRow(run.Profile.Name, storeGB, retrGB, both(st.flows), both(st.ops), storeMed, retrMed)
		name := run.Profile.Name
		res.Metrics["store_gb_"+name] = storeGB
		res.Metrics["retrieve_gb_"+name] = retrGB
		res.Metrics["storage_flows_"+name] = both(st.flows)
		res.Metrics["ops_"+name] = both(st.ops)
		res.Metrics["store_med_ms_"+name] = storeMed
		res.Metrics["retrieve_med_ms_"+name] = retrMed
		res.Metrics["sync_p90_ms_"+name] = st.latency[classify.DirStore].Quantile(0.9)
		res.Metrics["devices_"+name] = float64(run.Stats.Devices)
	}
	res.addText(abs.String())

	if len(r.Runs) > 1 {
		base := &traffic[0]
		delta := analysis.NewTable(
			fmt.Sprintf("Deltas versus baseline %s", r.baselineName()),
			"profile", "Δ volume", "Δ flows", "Δ ops", "Δ store lat", "Δ retr lat")
		for i, run := range r.Runs[1:] {
			st := &traffic[i+1]
			delta.AddRow(run.Profile.Name,
				pctDelta(both(st.bytes), both(base.bytes)),
				pctDelta(both(st.flows), both(base.flows)),
				pctDelta(both(st.ops), both(base.ops)),
				pctDelta(st.latency[classify.DirStore].Median(), base.latency[classify.DirStore].Median()),
				pctDelta(st.latency[classify.DirRetrieve].Median(), base.latency[classify.DirRetrieve].Median()))
		}
		res.addText("")
		res.addText(delta.String())
	}

	res.addText("\nReproducibility keys:\n")
	for _, run := range r.Runs {
		res.addText("  " + run.Profile.Key() + "\n")
	}
	return res
}

func (r *WhatIfReport) baselineName() string {
	if len(r.Runs) > 0 {
		return r.Runs[0].Profile.Name
	}
	if len(r.Config.Profiles) > 0 {
		return r.Config.Profiles[0].Name
	}
	return "none"
}
