package backend

import (
	"fmt"

	"insidedropbox/internal/telemetry"
)

// The backend's process metrics. Counters accumulate across simulations
// (monotonic, like every other subsystem); per-node utilization gauges
// reflect the most recent completed run. All of it is observation:
// publishing never feeds back into the simulation, and an infinite-
// capacity backend leaves golden stream hashes untouched (contract
// point 14).
var (
	mSims       = telemetry.NewCounter("backend.sims")
	mEvents     = telemetry.NewCounter("backend.events")
	mRequests   = telemetry.NewCounter("backend.requests")
	mServed     = telemetry.NewCounter("backend.served")
	mDropped    = telemetry.NewCounter("backend.dropped")
	mShed       = telemetry.NewCounter("backend.shed")
	mQueueDelay = telemetry.NewHist("backend.queue_delay")
)

// publish pushes one completed simulation's tallies into the process
// registry, where manifests pick them up as part of the counter snapshot.
// The queueing-delay histogram is merged once per run, so a cancelled run
// adds to neither backend.served nor backend.queue_delay. Per-node
// metrics register lazily by node name.
func publish(rep *Report) {
	mSims.Inc()
	mEvents.Add(uint64(rep.Events))
	mRequests.Add(uint64(rep.Requests))
	mServed.Add(uint64(rep.Served))
	mDropped.Add(uint64(rep.Dropped))
	mShed.Add(uint64(rep.Shed))
	mQueueDelay.Merge(&rep.Delay)
	for _, n := range rep.Nodes {
		prefix := "backend.node." + n.Name
		telemetry.NewCounter(prefix + ".served").Add(uint64(n.Served))
		telemetry.NewCounter(prefix + ".dropped").Add(uint64(n.Dropped + n.Shed))
		telemetry.NewGauge(prefix + ".util_ppm").Set(int64(n.Utilization * 1e6))
		telemetry.NewGauge(prefix + ".busy_milli").Set(int64(n.AvgBusy * 1e3))
	}
	telemetry.SetInfo("backend.policies", fmt.Sprintf("admission=%s routing=%s", rep.Admission, rep.Routing))
}
