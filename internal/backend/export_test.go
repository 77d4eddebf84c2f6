package backend

import (
	"context"
	"time"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/workload"
)

// SynthReqs exposes the seeded synthetic arrival set to the external
// package backend_test, whose golden table also needs scenario (which
// imports backend, so that half cannot live in this package).
var SynthReqs = synthReqs

// CollectArrivals streams one vantage point through the sharded fleet
// engine and returns its backend arrivals in canonical order. Worker count
// never changes the result (the fleet contract plus the canonical order);
// shard count is part of the experiment definition, exactly as for every
// other aggregate. Cancelling ctx aborts at fleet-shard granularity.
func CollectArrivals(ctx context.Context, vp workload.VPConfig, seed int64, fc fleet.Config) ([]Request, fleet.VPStats, error) {
	aggs, stats, err := fleet.Aggregate(ctx, []fleet.Population{{VP: vp, Seed: seed}}, fc, func(int, int) fleet.Aggregator { return &Collector{} })
	if err != nil {
		return nil, stats[0], err
	}
	return aggs[0].(*Collector).Arrivals(), stats[0], nil
}

// Horizon returns the arrival span of a request set (campaign start to
// last arrival).
func Horizon(reqs []Request) time.Duration {
	var h time.Duration
	for _, r := range reqs {
		if r.Arrive > h {
			h = r.Arrive
		}
	}
	return h
}
