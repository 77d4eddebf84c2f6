package backend

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// req is a test-shorthand request constructor.
func req(at time.Duration, class Class, work float64, region uint8) Request {
	return Request{Arrive: at, Class: class, Work: work, Region: region, Key: uint64(at) ^ uint64(work)}
}

// oneNode is a single-node config with the given knobs.
func oneNode(rate float64, conc, depth int, adm AdmissionPolicy) Config {
	return Config{
		Admission: adm,
		Routing:   RouteRoundRobin,
		Nodes: []NodeConfig{
			{Name: "control-0", Class: ClassControl, ServiceRate: rate, Concurrency: conc, QueueDepth: depth},
		},
	}
}

func mustSimulate(t *testing.T, cfg Config, reqs []Request) *Report {
	t.Helper()
	rep, err := Simulate(context.Background(), cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestInfiniteCapacityNullBackend pins the null-backend contract: the
// "infinite" preset serves everything instantly — zero queueing delay,
// zero drops, one arrival and one departure per request.
func TestInfiniteCapacityNullBackend(t *testing.T) {
	reqs := []Request{
		req(0, ClassControl, 1, 0),
		req(0, ClassStorage, 4e6, 1),
		req(time.Second, ClassNotify, 1, 2),
		req(time.Second, ClassStorage, 1e9, 3),
		req(2*time.Second, ClassControl, 1, 0),
	}
	cfg, err := PresetConfig(PresetInfinite, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustSimulate(t, cfg, reqs)
	if rep.Served != int64(len(reqs)) || rep.Dropped != 0 || rep.Shed != 0 {
		t.Fatalf("served/dropped/shed = %d/%d/%d, want %d/0/0", rep.Served, rep.Dropped, rep.Shed, len(reqs))
	}
	if rep.Events != 2*int64(len(reqs)) {
		t.Fatalf("events = %d, want %d", rep.Events, 2*len(reqs))
	}
	if rep.Delay.Max() != 0 {
		t.Fatalf("max queueing delay = %v ns, want 0", rep.Delay.Max())
	}
	if rep.Horizon != 2*time.Second {
		t.Fatalf("horizon = %v, want 2s", rep.Horizon)
	}
}

// TestSingleServerQueueing works a 1-server, 1-op/sec node through three
// simultaneous arrivals and checks the exact delays, the busy-time
// integral and the utilization it implies.
func TestSingleServerQueueing(t *testing.T) {
	reqs := []Request{
		req(0, ClassControl, 1, 0),
		req(0, ClassControl, 1, 0),
		req(0, ClassControl, 1, 0),
	}
	rep := mustSimulate(t, oneNode(1, 1, 0, AdmitQueue), reqs)
	if rep.Served != 3 || rep.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want 3/0", rep.Served, rep.Dropped)
	}
	// Delays are exactly 0s, 1s, 2s.
	if got := rep.MeanDelay(); got != time.Second {
		t.Fatalf("mean delay = %v, want 1s", got)
	}
	if got := time.Duration(rep.Delay.Max()); got != 2*time.Second {
		t.Fatalf("max delay = %v, want 2s", got)
	}
	n := rep.Nodes[0]
	if busy := n.AvgBusy * rep.Horizon.Seconds(); busy != 3.0 {
		t.Fatalf("busy-server-seconds = %v, want 3", busy)
	}
	if n.Utilization != 1.0 || n.AvgBusy != 1.0 {
		t.Fatalf("utilization/avg-busy = %v/%v, want 1/1", n.Utilization, n.AvgBusy)
	}
	if n.QueueMax != 2 {
		t.Fatalf("queue max = %d, want 2", n.QueueMax)
	}
}

// TestAdmissionPolicies pins the three overload behaviors on a full node.
func TestAdmissionPolicies(t *testing.T) {
	burst := []Request{
		req(0, ClassControl, 1, 0),
		req(0, ClassControl, 1, 0),
		req(0, ClassControl, 1, 0),
	}
	t.Run("reject", func(t *testing.T) {
		// One slot, no waiting: first serves, the other two bounce.
		rep := mustSimulate(t, oneNode(1, 1, 4, AdmitReject), burst)
		if rep.Served != 1 || rep.Dropped != 2 {
			t.Fatalf("served/dropped = %d/%d, want 1/2", rep.Served, rep.Dropped)
		}
	})
	t.Run("queue", func(t *testing.T) {
		// One slot, one waiting slot: third arrival finds the queue full.
		rep := mustSimulate(t, oneNode(1, 1, 1, AdmitQueue), burst)
		if rep.Served != 2 || rep.Dropped != 1 {
			t.Fatalf("served/dropped = %d/%d, want 2/1", rep.Served, rep.Dropped)
		}
	})
	t.Run("shed", func(t *testing.T) {
		// One slot, one waiting slot: the third arrival evicts the second
		// (oldest waiter) and is served in its place at t=1s.
		rep := mustSimulate(t, oneNode(1, 1, 1, AdmitShed), burst)
		if rep.Served != 2 || rep.Shed != 1 || rep.Dropped != 0 {
			t.Fatalf("served/shed/dropped = %d/%d/%d, want 2/1/0", rep.Served, rep.Shed, rep.Dropped)
		}
		if got := time.Duration(rep.Delay.Max()); got != time.Second {
			t.Fatalf("max delay = %v, want 1s (the shedding newcomer waits one service)", got)
		}
	})
}

func twoNodes(rate float64, conc int, rt RoutingPolicy, regions [2]uint8) Config {
	return Config{
		Admission: AdmitQueue,
		Routing:   rt,
		Nodes: []NodeConfig{
			{Name: "control-0", Class: ClassControl, Region: regions[0], ServiceRate: rate, Concurrency: conc},
			{Name: "control-1", Class: ClassControl, Region: regions[1], ServiceRate: rate, Concurrency: conc},
		},
	}
}

// TestRoutingPolicies pins node selection for all three policies.
func TestRoutingPolicies(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		reqs := make([]Request, 4)
		for i := range reqs {
			reqs[i] = req(time.Duration(i), ClassControl, 1, 0)
		}
		rep := mustSimulate(t, twoNodes(0, 0, RouteRoundRobin, [2]uint8{0, 0}), reqs)
		if rep.Nodes[0].Served != 2 || rep.Nodes[1].Served != 2 {
			t.Fatalf("served split = %d/%d, want 2/2", rep.Nodes[0].Served, rep.Nodes[1].Served)
		}
	})
	t.Run("least-loaded", func(t *testing.T) {
		// Three simultaneous arrivals on two 1-slot nodes: ties go to the
		// lowest index, so node 0 takes the first and the third (queued).
		reqs := []Request{
			req(0, ClassControl, 1, 0),
			req(0, ClassControl, 1, 0),
			req(0, ClassControl, 1, 0),
		}
		rep := mustSimulate(t, twoNodes(1, 1, RouteLeastLoaded, [2]uint8{0, 0}), reqs)
		if rep.Nodes[0].Served != 2 || rep.Nodes[1].Served != 1 {
			t.Fatalf("served split = %d/%d, want 2/1", rep.Nodes[0].Served, rep.Nodes[1].Served)
		}
	})
	t.Run("region-affine", func(t *testing.T) {
		reqs := []Request{
			req(0, ClassControl, 1, 0),
			req(1, ClassControl, 1, 1),
			req(2, ClassControl, 1, 0),
			req(3, ClassControl, 1, 3), // region 3 maps onto group 3%2=1
		}
		rep := mustSimulate(t, twoNodes(0, 0, RouteRegionAffine, [2]uint8{0, 1}), reqs)
		if rep.Nodes[0].Served != 2 || rep.Nodes[1].Served != 2 {
			t.Fatalf("served split = %d/%d, want 2/2", rep.Nodes[0].Served, rep.Nodes[1].Served)
		}
	})
}

// TestUnroutableClassDrops pins that a class with no node pool drops its
// requests.
func TestUnroutableClassDrops(t *testing.T) {
	reqs := []Request{req(0, ClassStorage, 100, 0), req(1, ClassControl, 1, 0)}
	rep := mustSimulate(t, oneNode(0, 0, 0, AdmitQueue), reqs)
	if rep.Dropped != 1 || rep.Served != 1 {
		t.Fatalf("dropped/served = %d/%d, want 1/1", rep.Dropped, rep.Served)
	}
}

// TestConfigValidation pins the error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := Simulate(context.Background(), Config{}, nil); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := oneNode(1, 1, 0, AdmissionPolicy("lifo"))
	if _, err := Simulate(context.Background(), bad, nil); err == nil {
		t.Fatal("unknown admission policy accepted")
	}
	bad = oneNode(1, 1, 0, AdmitQueue)
	bad.Routing = RoutingPolicy("random")
	if _, err := Simulate(context.Background(), bad, nil); err == nil {
		t.Fatal("unknown routing policy accepted")
	}
	if _, err := PresetConfig("nope", nil); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// synthReqs draws a seeded synthetic arrival set across all classes.
func synthReqs(seed int64, n int) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Arrive: time.Duration(rng.Int63n(int64(10 * time.Second))),
			Class:  Class(rng.Intn(int(numClasses))),
			Work:   float64(1 + rng.Intn(1000)),
			Region: uint8(rng.Intn(8)),
			Key:    rng.Uint64(),
		}
	}
	SortRequests(reqs)
	return reqs
}

// TestSimulateDeterministic pins that the report is a pure function of the
// canonically sorted request multiset: a shuffled copy re-sorted through
// SortRequests simulates to a deeply equal report, as does a plain re-run.
func TestSimulateDeterministic(t *testing.T) {
	reqs := synthReqs(11, 5000)
	// A deliberately tight hand-built deployment so every policy edge
	// (queueing, shedding, ties, region groups) fires during the run.
	cfg := Config{
		Admission: AdmitShed,
		Routing:   RouteRegionAffine,
		Nodes: []NodeConfig{
			{Name: "control-0", Class: ClassControl, Region: 0, ServiceRate: 20, Concurrency: 2, QueueDepth: 16},
			{Name: "control-1", Class: ClassControl, Region: 1, ServiceRate: 20, Concurrency: 2, QueueDepth: 16},
			{Name: "storage-0", Class: ClassStorage, Region: 0, ServiceRate: 2e4, Concurrency: 2, QueueDepth: 16},
			{Name: "storage-1", Class: ClassStorage, Region: 1, ServiceRate: 2e4, Concurrency: 2, QueueDepth: 16},
			{Name: "notify-0", Class: ClassNotify, Region: 0, ServiceRate: 40, Concurrency: 4, QueueDepth: 32},
		},
	}
	base := mustSimulate(t, cfg, reqs)
	if base.Dropped+base.Shed == 0 {
		t.Fatal("tight config dropped nothing — the test is not exercising overload")
	}

	again := mustSimulate(t, cfg, reqs)
	if !reflect.DeepEqual(base, again) {
		t.Fatal("re-running the same simulation produced a different report")
	}

	shuffled := make([]Request, len(reqs))
	copy(shuffled, reqs)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	SortRequests(shuffled)
	resorted := mustSimulate(t, cfg, shuffled)
	if !reflect.DeepEqual(base, resorted) {
		t.Fatal("simulating a shuffled-then-resorted request set produced a different report")
	}
}

// TestOfferedRateAndScaleLoad pins the load-measurement helpers.
func TestOfferedRateAndScaleLoad(t *testing.T) {
	reqs := []Request{
		req(0, ClassControl, 1, 0),
		req(5*time.Second, ClassControl, 3, 0),
		req(10*time.Second, ClassStorage, 100, 0),
	}
	rate := OfferedRate(reqs)
	if rate[ClassControl] != 0.4 || rate[ClassStorage] != 10 || rate[ClassNotify] != 0 {
		t.Fatalf("offered rate = %v, want [0.4 10 0]", rate)
	}
	if h := Horizon(reqs); h != 10*time.Second {
		t.Fatalf("horizon = %v, want 10s", h)
	}
	scaled := ScaleLoad(reqs, 2)
	if h := Horizon(scaled); h != 5*time.Second {
		t.Fatalf("scaled horizon = %v, want 5s", h)
	}
	r2 := OfferedRate(scaled)
	if r2[ClassStorage] != 20 {
		t.Fatalf("scaled storage rate = %v, want 20", r2[ClassStorage])
	}
	// The original set is untouched.
	if reqs[2].Arrive != 10*time.Second {
		t.Fatal("ScaleLoad mutated its input")
	}
}

// TestSaturationPoint pins the knee estimate: capacity over offered load,
// minimized across bounded classes, absent for the infinite preset.
func TestSaturationPoint(t *testing.T) {
	reqs := synthReqs(5, 2000)
	prov, err := PresetConfig(PresetProvisioned, reqs)
	if err != nil {
		t.Fatal(err)
	}
	knee, ok := SaturationPoint(prov, reqs)
	if !ok {
		t.Fatal("provisioned preset reported no saturation point")
	}
	if knee < 1.9 {
		t.Fatalf("provisioned knee = %v, want >= 2 (the headroom factor; the one-slot floor can only raise it)", knee)
	}
	inf, err := PresetConfig(PresetInfinite, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := SaturationPoint(inf, reqs); ok {
		t.Fatal("infinite preset reported a saturation point")
	}
}
