package backend

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestSimulateTieOrder pins what fires first when an arrival, a timeline
// event and a departure share one instant: arrivals (in slice order), then
// timeline events (in Config order), then departures. Each case is built
// so that any other order changes a served count or a delay.
func TestSimulateTieOrder(t *testing.T) {
	t.Run("arrival-timeline-departure", func(t *testing.T) {
		// A holds control-0 until 1s. B arrives at 1s, the instant region
		// 1 goes down and A departs. Arrival first: least-loaded sends B to
		// the still-live, idle control-1. Had the outage fired first, B
		// would have failed over to control-0; had A departed first, B
		// would have tied onto control-0 (lowest index).
		cfg := twoRegions(1)
		cfg.Timeline = []TimelineEvent{{At: time.Second, Action: ActionRegionDown, Region: 1}}
		rep := mustSimulate(t, cfg, []Request{
			req(0, ClassControl, 1, 0),
			req(time.Second, ClassControl, 1, 0),
		})
		if rep.Nodes[0].Served != 1 || rep.Nodes[1].Served != 1 {
			t.Fatalf("served split = %d/%d, want 1/1", rep.Nodes[0].Served, rep.Nodes[1].Served)
		}
		if rep.Delay.Max() != 0 || rep.Events != 5 || rep.Horizon != 2*time.Second {
			t.Fatalf("max delay/events/horizon = %v/%d/%v, want 0/5/2s", rep.Delay.Max(), rep.Events, rep.Horizon)
		}
	})
	t.Run("timeline-before-departure", func(t *testing.T) {
		// A serves, B waits. At 1s the region goes down as A departs: the
		// outage fires first, so A's freed slot starts nothing and B waits
		// for region-up at 3s (3s delay, not 1s).
		cfg := oneNode(1, 1, 0, AdmitQueue)
		cfg.Timeline = []TimelineEvent{
			{At: time.Second, Action: ActionRegionDown, Region: 0},
			{At: 3 * time.Second, Action: ActionRegionUp, Region: 0},
		}
		rep := mustSimulate(t, cfg, []Request{req(0, ClassControl, 1, 0), req(0, ClassControl, 1, 0)})
		if rep.Served != 2 || time.Duration(rep.Delay.Max()) != 3*time.Second || rep.MeanDelay() != 1500*time.Millisecond {
			t.Fatalf("served/max/mean delay = %d/%v/%v, want 2/3s/1.5s",
				rep.Served, time.Duration(rep.Delay.Max()), rep.MeanDelay())
		}
		if rep.Events != 6 || rep.Horizon != 4*time.Second {
			t.Fatalf("events/horizon = %d/%v, want 6/4s", rep.Events, rep.Horizon)
		}
	})
	t.Run("arrival-before-departure", func(t *testing.T) {
		// B arrives the instant A departs: the node is still busy, so a
		// rejecting node bounces B.
		rep := mustSimulate(t, oneNode(1, 1, 0, AdmitReject), []Request{
			req(0, ClassControl, 1, 0),
			req(time.Second, ClassControl, 1, 0),
		})
		if rep.Served != 1 || rep.Dropped != 1 || rep.Events != 3 || rep.Horizon != time.Second {
			t.Fatalf("served/dropped/events/horizon = %d/%d/%d/%v, want 1/1/3/1s",
				rep.Served, rep.Dropped, rep.Events, rep.Horizon)
		}
	})
	t.Run("zero-service-departure", func(t *testing.T) {
		// An infinitely fast slot departs at its own start instant, still
		// after every arrival of that instant: the second arrival finds the
		// one slot busy.
		rep := mustSimulate(t, oneNode(0, 1, 0, AdmitReject), []Request{
			req(0, ClassControl, 1, 0),
			req(0, ClassControl, 1, 0),
		})
		if rep.Served != 1 || rep.Dropped != 1 || rep.Events != 3 {
			t.Fatalf("served/dropped/events = %d/%d/%d, want 1/1/3", rep.Served, rep.Dropped, rep.Events)
		}
	})
	t.Run("arrivals-before-timeline", func(t *testing.T) {
		// Three arrivals and a 3x capacity rollout at t=0: all three
		// arrivals see the one-slot node, so two bounce.
		cfg := oneNode(1, 1, 0, AdmitReject)
		cfg.Timeline = []TimelineEvent{{At: 0, Action: ActionScaleCapacity, Class: ClassControl, Factor: 3}}
		burst := []Request{req(0, ClassControl, 1, 0), req(0, ClassControl, 1, 0), req(0, ClassControl, 1, 0)}
		rep := mustSimulate(t, cfg, burst)
		if rep.Served != 1 || rep.Dropped != 2 || rep.Events != 5 {
			t.Fatalf("served/dropped/events = %d/%d/%d, want 1/2/5", rep.Served, rep.Dropped, rep.Events)
		}
	})
}

// TestSimulateUnsortedInput pins Simulate's meaning for input that is not
// sorted by arrival: it replays the stable-by-Arrive order of the slice,
// and leaves the caller's slice as it was.
func TestSimulateUnsortedInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		reqs []Request
	}{
		{"synth", synthReqs(11, 5000)},
		{"ties", makeArrivals(400)}, // 97 distinct instants: stability matters
	} {
		t.Run(tc.name, func(t *testing.T) {
			shuffled := slices.Clone(tc.reqs)
			rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			given := slices.Clone(shuffled)
			stable := slices.Clone(shuffled)
			slices.SortStableFunc(stable, func(a, b Request) int { return cmp.Compare(a.Arrive, b.Arrive) })

			for _, preset := range []string{PresetProvisioned, PresetScarce} {
				cfg, err := PresetConfig(preset, tc.reqs)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Timeline = []TimelineEvent{{At: stable[len(stable)/2].Arrive, Action: ActionRegionDown, Region: 1}}
				got, want := mustSimulate(t, cfg, shuffled), mustSimulate(t, cfg, stable)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: unsorted input simulated differently from its stable-by-Arrive sort", preset)
				}
			}
			if !reflect.DeepEqual(shuffled, given) {
				t.Fatal("Simulate reordered the caller's slice")
			}
		})
	}
}

// TestSimulateAllocationBound pins that arrivals never enter the event
// queue: on the infinite preset nothing is in flight for long, so with the
// queue holding only departures a 200k-request replay allocates a few
// fixed structures, not the ~160 B per request a queue of every arrival
// allocated as it grew.
func TestSimulateAllocationBound(t *testing.T) {
	reqs := synthReqs(13, 200_000)
	cfg, err := PresetConfig(PresetInfinite, reqs)
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustSimulate(t, cfg, reqs)
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs)); per >= 2 {
		t.Fatalf("Simulate allocated %.1f B per request, want < 2", per)
	}
}
