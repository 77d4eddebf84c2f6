// Deprecated facade entry points: the pre-context API surface, kept as
// thin wrappers over the unified experiment API. Every function here is
// bit-identical to its historical behaviour (pinned by the golden
// equivalence tests) and maps to a replacement documented on the wrapper
// and in the MIGRATION section of CHANGES.md. None of them can observe
// cancellation or report errors — that is why they are deprecated.
package insidedropbox

import (
	"context"

	"insidedropbox/internal/experiments"
	"insidedropbox/internal/fleet"
)

// RunCampaign generates the four vantage-point datasets (Campus 1/2,
// Home 1/2) for the 42-day observation window.
//
// Deprecated: use NewCampaign(ctx, seed, scale, FleetConfig{Shards: 1}),
// or Run with a Spec for whole-catalogue regeneration.
func RunCampaign(seed int64, scale ScaleConfig) *Campaign {
	return experiments.RunCampaign(seed, scale)
}

// RunShardedCampaign materializes a Campaign through the fleet engine.
// With fc.Shards == 1 it reproduces RunCampaign exactly; higher shard
// counts use every core at identical population sizes.
//
// Deprecated: use NewCampaign.
func RunShardedCampaign(seed int64, scale ScaleConfig, fc FleetConfig) *Campaign {
	return experiments.RunShardedCampaign(seed, scale, fc)
}

// RunFleetCampaign streams all four vantage points through the sharded
// fleet engine with bounded memory.
//
// Deprecated: use RunFleet (cancellable, error-returning) or Run with
// WithFleetScale.
func RunFleetCampaign(seed int64, scale ScaleConfig, fc FleetConfig) *FleetReport {
	return experiments.RunFleetCampaign(seed, scale, fc)
}

// GenerateFleetSummary streams one vantage point through the engine's
// aggregation path, returning the summary and generation ground truth.
//
// Deprecated: use Summarize (cancellable, error-returning).
func GenerateFleetSummary(cfg VPConfig, seed int64, fc FleetConfig) (*FleetSummary, FleetStats) {
	sum, stats, _ := fleet.Summarize(context.Background(), cfg, seed, fc)
	return sum, stats
}

// StreamDataset generates one vantage point through the sharded engine and
// delivers every record to emit in canonical shard order with bounded
// buffering. A record is valid until emit returns; copy to keep.
//
// Deprecated: use the Records iterator, or StreamRecords when the
// FleetStats are needed.
func StreamDataset(cfg VPConfig, seed int64, fc FleetConfig, emit func(*FlowRecord)) FleetStats {
	stats, _ := fleet.StreamRecords(context.Background(), cfg, seed, fc, func(r *FlowRecord) bool {
		emit(r)
		return true
	})
	return stats
}

// RunWhatIf executes a what-if campaign.
//
// Deprecated: use WhatIf (cancellable, error-returning) or Run with
// WithProfiles.
func RunWhatIf(cfg WhatIfConfig) *WhatIfReport {
	return experiments.RunWhatIf(cfg)
}

// AllExperiments regenerates every campaign-level table and figure in
// paper order (packet-level labs are separate; see PerformanceLab and
// Testbed).
//
// Deprecated: use Run, which regenerates any catalogue selection —
// including the packet labs — under one cancellable entry point.
func AllExperiments(c *Campaign) []*Result {
	return experiments.All(c)
}

// Table4 regenerates the before/after bundling comparison (two Campus 1
// campaigns: Mar/Apr with client 1.2.52, Jun/Jul with 1.4.0).
//
// Deprecated: use Run with WithExperiments("table4").
func Table4(seed int64, scale float64) *Result {
	return experiments.Table4(seed, scale)
}

// PerformanceLab runs the packet-level storage experiments behind Figs. 9
// and 10: stratified flow sizes through the real protocol over simulated
// TCP, measured by the passive probe. quick trades coverage for speed.
//
// Deprecated: use Run with WithExperiments("figure9", "figure10") — the
// shared Session runs the labs once for both figures.
func PerformanceLab(quick bool) (fig9, fig10 *Result) {
	store := experiments.DefaultPacketLab(false)
	retr := experiments.DefaultPacketLab(true)
	if quick {
		store = experiments.QuickPacketLab(false)
		retr = experiments.QuickPacketLab(true)
	}
	fig9, fig10, _ = experiments.RunPacketLabs(context.Background(), store, retr)
	return fig9, fig10
}

// Testbed runs the decrypting-proxy-equivalent dissection: one client
// against the full service with protocol message logging (Fig. 1) and
// annotated packet traces (Fig. 19).
//
// Deprecated: use Run with WithExperiments("figure1", "figure19").
func Testbed(seed int64) (fig1, fig19 *Result) {
	tb, _ := experiments.RunTestbed(context.Background(), seed)
	return tb.Figure1, tb.Figure19
}
