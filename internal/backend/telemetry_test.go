package backend

import (
	"context"
	"math"
	"testing"

	"insidedropbox/internal/telemetry"
)

// TestQueueDelayPublishedPerSimulation pins that backend.queue_delay is
// the run's own delay histogram, merged once by publish: a completed run
// adds exactly its served requests and their total delay, and a cancelled
// run adds nothing to it, just as it adds nothing to backend.served.
func TestQueueDelayPublishedPerSimulation(t *testing.T) {
	reqs := synthReqs(9, 20000)
	cfg, err := PresetConfig(PresetScarce, reqs)
	if err != nil {
		t.Fatal(err)
	}
	before := telemetry.Snapshot()
	rep, err := Simulate(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot()
	b, a := before.Timings["backend.queue_delay"], after.Timings["backend.queue_delay"]
	if got := a.Count - b.Count; got != uint64(rep.Served) || rep.Served == 0 {
		t.Fatalf("queue_delay count delta = %d, want served = %d (> 0)", got, rep.Served)
	}
	if rep.Delay.Sum() == 0 {
		t.Fatal("scarce preset queued nothing; the total check would be vacuous")
	}
	if got, want := a.TotalSeconds-b.TotalSeconds, rep.Delay.Sum()/1e9; math.Abs(got-want) > 1e-12*a.TotalSeconds {
		t.Fatalf("queue_delay total delta = %vs, want rep.Delay.Sum() = %vs", got, want)
	}

	ctx := &countdownCtx{Context: context.Background(), n: 20}
	if _, err := Simulate(ctx, cfg, reqs); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cancelled := telemetry.Snapshot()
	if got, want := cancelled.Counters["backend.served"], after.Counters["backend.served"]; got != want {
		t.Fatalf("cancelled run moved backend.served %d -> %d", want, got)
	}
	if got, want := cancelled.Timings["backend.queue_delay"], a; got != want {
		t.Fatalf("cancelled run moved backend.queue_delay %+v -> %+v", want, got)
	}
}
