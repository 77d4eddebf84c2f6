package experiments

import (
	"context"
	"fmt"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/backend"
)

// registerBackend appends the opt-in backend capacity lab to the
// catalogue; the registry init calls it last so the backend family lands
// after the fleet and what-if labs in presentation order.
func registerBackend() {
	register(Experiment{
		ID: "backend/baseline", Title: "Backend: server-side load response under a capacity preset",
		Needs: Needs{OptIn: true},
		Run:   runBackendBaseline,
	})
	register(Experiment{
		ID: "backend/saturation", Title: "Backend: saturation ramp across the provisioned knee",
		Needs: Needs{OptIn: true},
		Run:   runBackendSaturation,
	})
	register(Experiment{
		ID: "backend/policies", Title: "Backend: admission and routing policies under overload",
		Needs: Needs{OptIn: true},
		Run:   runBackendPolicies,
	})
}

// runBackendBaseline replays the session population's arrival set
// against its scenario's preset and reports the full load response:
// per-node utilization and queue depths, drop counts and the
// queueing-delay distribution.
func runBackendBaseline(ctx context.Context, s *Session) (*Result, error) {
	comp, stream, err := s.ScenarioStream(ctx)
	if err != nil {
		return nil, err
	}
	// The spec's backend.preset, and the healthy provisioned deployment
	// when the spec has no backend section.
	reqs, preset := stream.Requests, backend.PresetProvisioned
	if comp.Backend != nil {
		preset = comp.Backend.Preset
	}
	cfg, err := backend.PresetConfig(preset, reqs)
	if err != nil {
		return nil, err
	}
	rep, err := backend.Simulate(ctx, cfg, reqs)
	if err != nil {
		return nil, err
	}

	res := newResult("backend/baseline",
		fmt.Sprintf("Backend baseline: %d requests under the %q preset", rep.Requests, preset))
	tb := analysis.NewTable("Per-node load response",
		"node", "served", "dropped", "shed", "util", "queue max", "p95 delay")
	for _, n := range rep.Nodes {
		util := "-"
		if n.Concurrency > 0 {
			util = fmt.Sprintf("%.1f%%", 100*n.Utilization)
		}
		tb.AddRow(n.Name, n.Served, n.Dropped, n.Shed, util, n.QueueMax,
			time.Duration(n.Delay.Quantile(0.95)).Round(time.Microsecond).String())
	}
	res.addText(tb.String())
	res.addText(fmt.Sprintf(
		"\n%d served / %d dropped / %d shed of %d requests (%s / %s admission-routing)\n"+
			"queueing delay mean %v, p95 %v, p99 %v over a %v horizon\n",
		rep.Served, rep.Dropped, rep.Shed, rep.Requests, rep.Admission, rep.Routing,
		rep.MeanDelay().Round(time.Microsecond),
		rep.DelayQuantile(0.95).Round(time.Microsecond),
		rep.DelayQuantile(0.99).Round(time.Microsecond),
		rep.Horizon.Round(time.Second)))
	for k, v := range rep.Metrics() {
		res.Metrics[k] = v
	}
	scenarioMeta(res, comp, stream)
	return res, nil
}

// runBackendSaturation is the saturation analyzer as an experiment: the
// provisioned deployment held fixed while offered load ramps through its
// knee, reporting the delay and drop response at each point.
func runBackendSaturation(ctx context.Context, s *Session) (*Result, error) {
	comp, stream, err := s.ScenarioStream(ctx)
	if err != nil {
		return nil, err
	}
	reqs := stream.Requests
	cfg, err := backend.PresetConfig(backend.PresetProvisioned, reqs)
	if err != nil {
		return nil, err
	}
	knee, ok := backend.SaturationPoint(cfg, reqs)
	if !ok {
		return nil, fmt.Errorf("backend/saturation: provisioned preset has no bounded class")
	}

	res := newResult("backend/saturation",
		fmt.Sprintf("Backend saturation ramp (knee at %.2fx the base offered load)", knee))
	res.Metrics["knee_multiplier"] = knee
	tb := analysis.NewTable("Offered load vs. delay and drops",
		"load/capacity", "served", "dropped+shed", "mean delay", "p95", "p99")
	for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
		rep, err := backend.Simulate(ctx, cfg, backend.ScaleLoad(reqs, f*knee))
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%.2fx", f), rep.Served, rep.Dropped+rep.Shed,
			rep.MeanDelay().Round(time.Microsecond).String(),
			rep.DelayQuantile(0.95).Round(time.Microsecond).String(),
			rep.DelayQuantile(0.99).Round(time.Microsecond).String())
		suffix := fmt.Sprintf("_x%g", f)
		res.Metrics["delay_mean_ms"+suffix] = rep.Delay.Mean() / 1e6
		res.Metrics["delay_p95_ms"+suffix] = rep.Delay.Quantile(0.95) / 1e6
		res.Metrics["drop_rate"+suffix] = rep.DropRate()
	}
	res.addText(tb.String())
	res.addText("\nload/capacity is the offered load relative to the deployment's aggregate\n" +
		"service capacity: below 1x delays stay near zero, past it queues grow without\n" +
		"bound and the bounded queues start dropping.\n")
	scenarioMeta(res, comp, stream)
	return res, nil
}

// runBackendPolicies compares every admission x routing policy pair on the
// same under-provisioned deployment at twice its knee — the regime where
// overload policy actually matters.
func runBackendPolicies(ctx context.Context, s *Session) (*Result, error) {
	comp, stream, err := s.ScenarioStream(ctx)
	if err != nil {
		return nil, err
	}
	reqs := stream.Requests
	cfg, err := backend.PresetConfig(backend.PresetScarce, reqs)
	if err != nil {
		return nil, err
	}
	knee, ok := backend.SaturationPoint(cfg, reqs)
	if !ok {
		return nil, fmt.Errorf("backend/policies: scarce preset has no bounded class")
	}
	load := backend.ScaleLoad(reqs, 2*knee)

	res := newResult("backend/policies",
		fmt.Sprintf("Backend policies at 2x the scarce knee (%d requests)", len(load)))
	tb := analysis.NewTable("Admission x routing under overload",
		"admission", "routing", "served", "dropped", "shed", "mean delay", "p95")
	for _, adm := range []backend.AdmissionPolicy{backend.AdmitQueue, backend.AdmitReject, backend.AdmitShed} {
		for _, rt := range []backend.RoutingPolicy{backend.RouteRoundRobin, backend.RouteLeastLoaded, backend.RouteRegionAffine} {
			c := cfg
			c.Admission, c.Routing = adm, rt
			rep, err := backend.Simulate(ctx, c, load)
			if err != nil {
				return nil, err
			}
			tb.AddRow(string(adm), string(rt), rep.Served, rep.Dropped, rep.Shed,
				rep.MeanDelay().Round(time.Microsecond).String(),
				rep.DelayQuantile(0.95).Round(time.Microsecond).String())
			key := string(adm) + "_" + string(rt)
			res.Metrics["served_"+key] = float64(rep.Served)
			res.Metrics["drop_rate_"+key] = rep.DropRate()
			res.Metrics["delay_p95_ms_"+key] = rep.Delay.Quantile(0.95) / 1e6
		}
	}
	res.addText(tb.String())
	res.addText("\nqueue admission maximizes served requests at the cost of stale waiting;\n" +
		"reject bounds delay by refusing on arrival; shed drops the oldest waiter\n" +
		"for the newest — the freshness-first overload shape.\n")
	scenarioMeta(res, comp, stream)
	return res, nil
}
