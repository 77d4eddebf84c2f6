package experiments

import (
	"context"
	"fmt"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/fleet"
)

// FleetVP is one vantage point's streaming outcome: merged aggregates plus
// generation ground truth, with no flow records retained.
type FleetVP struct {
	Stats   fleet.VPStats
	Summary *fleet.Summary
}

// FleetReport is the four vantage points reduced to fixed-size
// fleet.Summary aggregates: what a campaign looks like at populations
// grown far past the paper's by DevicesScale.
type FleetReport struct {
	Seed   int64
	Config fleet.Config
	VPs    []*FleetVP // campus1, campus2, home1, home2 order
}

// ByName returns a vantage point's streaming outcome (nil if absent).
func (r *FleetReport) ByName(name string) *FleetVP {
	for _, vp := range r.VPs {
		if vp.Stats.Cfg.Name == name {
			return vp
		}
	}
	return nil
}

// RunFleet streams all four vantage points through one fleet pool with
// per-shard Summary aggregators. No record is kept: memory stays bounded
// while DevicesScale grows the population 10-1000x. Per-VP seeds are
// Fold's, so a FleetReport describes the populations Fold folds with the
// same fleet.Config.
//
// Cancelling ctx aborts every vantage point at fleet-shard granularity
// and returns ctx.Err() with a nil report.
func RunFleet(ctx context.Context, seed int64, sc ScaleConfig, fc fleet.Config) (*FleetReport, error) {
	pops := vantagePoints(seed, sc)
	aggs, stats, err := fleet.Aggregate(ctx, pops, fc, func(p, _ int) fleet.Aggregator { return fleet.NewSummary(pops[p].VP.Days) })
	if err != nil {
		return nil, err
	}
	report := &FleetReport{Seed: seed, Config: fc, VPs: make([]*FleetVP, len(pops))}
	for p, agg := range aggs {
		report.VPs[p] = &FleetVP{Stats: stats[p], Summary: agg.(*fleet.Summary)}
	}
	return report, nil
}

// Result renders the report as a standard experiment result ("fleet"),
// one row per vantage point, with the streaming aggregates as metrics.
func (r *FleetReport) Result() *Result {
	workers := "auto"
	if r.Config.Workers > 0 {
		workers = fmt.Sprintf("%d", r.Config.Workers)
	}
	res := newResult("fleet", fmt.Sprintf(
		"Fleet campaign: %d shards x %s workers, device scale %.4gx",
		max(r.Config.Shards, 1), workers, effScale(r.Config.DevicesScale)))
	tb := analysis.NewTable(res.Title,
		"VP", "IPs", "devices", "flows", "GB total", "GB store", "GB retr", "store med kB", "retr med kB")
	totalFlows, totalDevices := 0.0, 0.0
	for _, vp := range r.VPs {
		s, st := vp.Summary, vp.Stats
		name := st.Cfg.Name
		tb.AddRow(name,
			float64(st.Cfg.TotalIPs), float64(len(s.Devices)), float64(s.Flows),
			float64(s.BytesUp+s.BytesDown)/1e9,
			float64(s.StoreBytes)/1e9, float64(s.RetrieveBytes)/1e9,
			s.StoreSizes.Quantile(0.5)/1e3, s.RetrieveSizes.Quantile(0.5)/1e3)
		for k, v := range s.Metrics() {
			res.Metrics[k+"_"+name] = v
		}
		res.Metrics["ips_"+name] = float64(st.Cfg.TotalIPs)
		res.Metrics["gt_devices_"+name] = float64(st.Devices)
		res.Metrics["gt_households_"+name] = float64(st.Households)
		totalFlows += float64(s.Flows)
		totalDevices += float64(len(s.Devices))
	}
	res.Metrics["flows_total"] = totalFlows
	res.Metrics["devices_total"] = totalDevices
	res.addText(tb.String())
	return res
}

func effScale(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}
