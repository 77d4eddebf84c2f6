package experiments

import (
	"context"
	"fmt"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// WhatIfConfig drives a capability what-if campaign: the same sharded
// fleet population generated once per capability profile, each run reduced
// to streaming aggregates and compared against the first profile (the
// baseline). It generalizes the paper's Sec. 6 bundling analysis — which
// compared exactly two client capabilities across two captures — to any
// point in the capability space.
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

// WhatIfAgg is the streaming aggregate of one profile run: the standard
// fleet Summary plus the what-if comparison extras — storage operation
// counts estimated from PSH flags with the paper's Appendix A.3 estimator
// (classify.EstimateChunks, which counts one data message per operation
// and clamps at the 100-per-batch protocol bound) and sync-latency
// distributions (per-flow transfer durations in milliseconds).
type WhatIfAgg struct {
	Summary *fleet.Summary

	// StoreOps / RetrieveOps estimate storage operations from PSH flags.
	StoreOps, RetrieveOps int64

	// StoreLatency / RetrieveLatency hold per-flow transfer durations in
	// milliseconds — the client-visible sync latency of each flow.
	StoreLatency, RetrieveLatency telemetry.LogHist
}

// NewWhatIfAgg builds the aggregator for a campaign of the given length.
func NewWhatIfAgg(days int) *WhatIfAgg {
	return &WhatIfAgg{Summary: fleet.NewSummary(days)}
}

// Consume implements fleet.Sink. Records are classified once and the
// result shared with the embedded Summary; operations come from the
// paper's own PSH-based estimator (Appendix A.3).
func (a *WhatIfAgg) Consume(r *traces.FlowRecord) {
	c := fleet.ClassifyRecord(r)
	a.Summary.ConsumeClassified(r, c)
	if !c.Storage() {
		return
	}
	switch c.Dir {
	case classify.DirStore:
		a.StoreOps += int64(classify.EstimateChunks(r, c.Dir))
		a.StoreLatency.Observe(classify.TransferDuration(r, c.Dir).Seconds() * 1e3)
	case classify.DirRetrieve:
		a.RetrieveOps += int64(classify.EstimateChunks(r, c.Dir))
		a.RetrieveLatency.Observe(classify.TransferDuration(r, c.Dir).Seconds() * 1e3)
	}
}

// Merge implements fleet.Aggregator.
func (a *WhatIfAgg) Merge(other fleet.Aggregator) {
	o := other.(*WhatIfAgg)
	a.Summary.Merge(o.Summary)
	a.StoreOps += o.StoreOps
	a.RetrieveOps += o.RetrieveOps
	a.StoreLatency.MergeHist(&o.StoreLatency)
	a.RetrieveLatency.MergeHist(&o.RetrieveLatency)
}

// WhatIfRun is one profile's outcome.
type WhatIfRun struct {
	Profile capability.Profile
	Stats   fleet.VPStats
	Agg     *WhatIfAgg
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
// vantage-point population, all profiles' shards on one fleet pool of
// cfg.Fleet.Workers, aggregated with bounded memory. Determinism: each
// (seed, population, shards, profile) run is bit-reproducible regardless
// of worker count or how many profiles run alongside it, and the two
// Dropbox presets reproduce the legacy Version-based campaign output
// exactly.
//
// Cancelling ctx aborts every profile run at fleet-shard granularity and
// returns ctx.Err() with a nil report.
func (cfg WhatIfConfig) Run(ctx context.Context) (*WhatIfReport, error) {
	pops := make([]fleet.Population, len(cfg.Profiles))
	for i, prof := range cfg.Profiles {
		pops[i] = fleet.Population{VP: cfg.VP, Seed: cfg.Seed}
		pops[i].VP.Caps = &prof
	}
	days := cfg.VP.Days
	aggs, stats, err := fleet.Aggregate(ctx, pops, cfg.Fleet, func(int, int) fleet.Aggregator { return NewWhatIfAgg(days) })
	if err != nil {
		return nil, err
	}
	report := &WhatIfReport{Config: cfg, Runs: make([]*WhatIfRun, len(pops))}
	for i, agg := range aggs {
		report.Runs[i] = &WhatIfRun{Profile: cfg.Profiles[i], Stats: stats[i], Agg: agg.(*WhatIfAgg)}
	}
	return report, nil
}

// pctDelta renders a percentage change versus a baseline value.
func pctDelta(v, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(v/base-1))
}

// Result renders the report as a standard experiment result ("whatif"):
// one row per profile with absolute storage traffic aggregates, followed
// by a delta table against the baseline profile. Metrics carry every
// absolute value keyed by profile name, so golden tests and EXPERIMENTS.md
// assertions can pin them.
func (r *WhatIfReport) Result() *Result {
	res := newResult("whatif", fmt.Sprintf(
		"What-if: %s under %d capability profiles (baseline %s, %d shards, seed %d)",
		r.Config.VP.Name, len(r.Runs), r.baselineName(), max(r.Config.Fleet.Shards, 1), r.Config.Seed))

	abs := analysis.NewTable(res.Title,
		"profile", "store GB", "retr GB", "flows", "ops", "store med ms", "retr med ms")
	for _, run := range r.Runs {
		a := run.Agg
		abs.AddRow(run.Profile.Name,
			float64(a.Summary.StoreBytes)/1e9, float64(a.Summary.RetrieveBytes)/1e9,
			float64(a.Summary.StoreFlows+a.Summary.RetrieveFlows),
			float64(a.StoreOps+a.RetrieveOps),
			a.StoreLatency.Quantile(0.5), a.RetrieveLatency.Quantile(0.5))
		name := run.Profile.Name
		res.Metrics["store_gb_"+name] = float64(a.Summary.StoreBytes) / 1e9
		res.Metrics["retrieve_gb_"+name] = float64(a.Summary.RetrieveBytes) / 1e9
		res.Metrics["storage_flows_"+name] = float64(a.Summary.StoreFlows + a.Summary.RetrieveFlows)
		res.Metrics["ops_"+name] = float64(a.StoreOps + a.RetrieveOps)
		res.Metrics["store_med_ms_"+name] = a.StoreLatency.Quantile(0.5)
		res.Metrics["retrieve_med_ms_"+name] = a.RetrieveLatency.Quantile(0.5)
		res.Metrics["sync_p90_ms_"+name] = a.StoreLatency.Quantile(0.9)
		res.Metrics["devices_"+name] = float64(run.Stats.Devices)
	}
	res.addText(abs.String())

	if len(r.Runs) > 1 {
		base := r.Runs[0].Agg
		baseVol := float64(base.Summary.StoreBytes + base.Summary.RetrieveBytes)
		delta := analysis.NewTable(
			fmt.Sprintf("Deltas versus baseline %s", r.baselineName()),
			"profile", "Δ volume", "Δ flows", "Δ ops", "Δ store lat", "Δ retr lat")
		for _, run := range r.Runs[1:] {
			a := run.Agg
			delta.AddRow(run.Profile.Name,
				pctDelta(float64(a.Summary.StoreBytes+a.Summary.RetrieveBytes), baseVol),
				pctDelta(float64(a.Summary.StoreFlows+a.Summary.RetrieveFlows),
					float64(base.Summary.StoreFlows+base.Summary.RetrieveFlows)),
				pctDelta(float64(a.StoreOps+a.RetrieveOps), float64(base.StoreOps+base.RetrieveOps)),
				pctDelta(a.StoreLatency.Quantile(0.5), base.StoreLatency.Quantile(0.5)),
				pctDelta(a.RetrieveLatency.Quantile(0.5), base.RetrieveLatency.Quantile(0.5)))
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
