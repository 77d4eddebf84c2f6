package backend

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"insidedropbox/internal/telemetry"
)

// NodeConfig describes one simulated server instance.
type NodeConfig struct {
	// Name labels the node in reports and telemetry ("storage-3").
	Name string
	// Class is the service the node belongs to.
	Class Class
	// Region is the node's locality tag for region-affine routing.
	Region uint8
	// ServiceRate is how fast one busy server slot progresses, in the
	// class's work units per second (bytes/sec for storage, ops/sec for
	// control and notification). Zero or negative means infinitely fast:
	// requests complete the instant they start.
	ServiceRate float64
	// Concurrency bounds how many requests the node serves simultaneously
	// (its server slots). Zero or negative means unbounded.
	Concurrency int
	// QueueDepth bounds how many admitted requests may wait for a slot.
	// Zero or negative means unbounded.
	QueueDepth int
}

// capacity returns the node's aggregate throughput in work units per
// second (0 means infinite).
func (n NodeConfig) capacity() float64 {
	if n.ServiceRate <= 0 {
		return 0
	}
	c := n.Concurrency
	if c <= 0 {
		c = 1
	}
	return n.ServiceRate * float64(c)
}

// Config is one backend deployment: the node fleet plus the policies that
// shape overload behavior.
type Config struct {
	Nodes     []NodeConfig
	Admission AdmissionPolicy
	Routing   RoutingPolicy

	// Timeline schedules deployment changes mid-run (region outages,
	// capacity rollouts). Empty reproduces the static deployment bit for
	// bit — timeline events only enter the event queue when present.
	Timeline []TimelineEvent

	// Windows names report intervals for per-window delay/drop
	// attribution (Report.Windows). Empty leaves the report unchanged.
	Windows []Window
}

func (c Config) validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("backend: config has no nodes")
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	for _, te := range c.Timeline {
		if err := te.validate(); err != nil {
			return err
		}
	}
	for _, w := range c.Windows {
		if err := w.validate(); err != nil {
			return err
		}
	}
	return c.Routing.validate()
}

// queued is one waiting request with its enqueue time (for the delay
// histogram when it finally starts).
type queued struct {
	req int32
	at  time.Duration
}

// nodeState is one node's live simulation state.
type nodeState struct {
	cfg NodeConfig

	// origConc is the configured concurrency before any timeline
	// capacity-scale (the factor's fixed basis); offline freezes the node
	// during a region outage.
	origConc int
	offline  bool

	inService int
	queue     []queued
	qhead     int

	// busy integrates busy-server-seconds (∫ inService dt); last is the
	// time of the node's most recent state change.
	busy float64
	last time.Duration

	served, dropped, shed int64
	queueMax              int
	delay                 telemetry.LogHist // queueing delay, ns, served requests
}

func (n *nodeState) qlen() int { return len(n.queue) - n.qhead }

func (n *nodeState) load() int { return n.inService + n.qlen() }

func (n *nodeState) canStart() bool {
	return !n.offline && (n.cfg.Concurrency <= 0 || n.inService < n.cfg.Concurrency)
}

// tick advances the busy-time integral to now.
func (n *nodeState) tick(now time.Duration) {
	if n.inService > 0 {
		n.busy += float64(n.inService) * (now - n.last).Seconds()
	}
	n.last = now
}

func (n *nodeState) enqueue(q queued) {
	n.queue = append(n.queue, q)
	if l := n.qlen(); l > n.queueMax {
		n.queueMax = l
	}
}

func (n *nodeState) dequeue() queued {
	q := n.queue[n.qhead]
	n.qhead++
	if n.qhead == len(n.queue) {
		n.queue, n.qhead = n.queue[:0], 0
	} else if n.qhead > 1024 && n.qhead*2 > len(n.queue) {
		n.queue = append(n.queue[:0], n.queue[n.qhead:]...)
		n.qhead = 0
	}
	return q
}

// cancelCheckMask amortizes ctx polling on the event loop: the context is
// checked once every cancelCheckMask+1 events, so cancellation lands at
// event granularity without a lock on every event.
const cancelCheckMask = 0x3f

// Simulate replays an arrival set against a backend configuration and
// returns the observed load response. Arrivals are read from reqs in order
// through a cursor; the EventQueue (heap with FIFO tie-breaking) holds only
// timeline events and in-flight departures, so it stays as small as the
// work in service. At one instant arrivals fire first (in slice order),
// then timeline events (in Config order), then departures (in the order
// they were scheduled). Feed it canonically sorted requests
// (Collector.Arrivals and ScaleLoad return them sorted) for run-to-run and
// worker-count determinism; input not sorted by Arrive is replayed from a
// stable-by-Arrive copy.
//
// Cancelling ctx stops the event loop at event granularity: the partial
// report up to the last processed event is returned with ctx.Err().
// Simulate runs entirely on the calling goroutine — it spawns nothing, so
// cancellation leaks nothing.
func Simulate(ctx context.Context, cfg Config, reqs []Request) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt, err := newRouter(cfg.Routing, cfg.Nodes)
	if err != nil {
		return nil, err
	}

	nodes := make([]nodeState, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		nodes[i].cfg = nc
		nodes[i].origConc = nc.Concurrency
	}
	load := func(i int32) int {
		if nodes[i].offline {
			return offlineLoad
		}
		return nodes[i].load()
	}

	if !arrivalOrdered(reqs) {
		// The replay order of unsorted input is stable-by-Arrive: slice
		// order among equal timestamps, as when arrivals were queue events.
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, func(a, b Request) int { return cmp.Compare(a.Arrive, b.Arrive) })
	}
	// The queue holds timeline events and departures only; next is the
	// arrival cursor into reqs. Timeline events are pushed before any
	// departure, so at equal timestamps they fire first.
	var q EventQueue
	for i, te := range cfg.Timeline {
		q.Push(Event{At: te.At, Kind: EvTimeline, Req: int32(i)})
	}
	next := 0

	rep := &Report{
		Admission: cfg.Admission,
		Routing:   cfg.Routing,
		Requests:  len(reqs),
	}
	if len(cfg.Windows) > 0 {
		rep.Windows = make([]WindowReport, len(cfg.Windows))
		for i, w := range cfg.Windows {
			rep.Windows[i].Window = w
		}
	}
	// winServe / winDrop attribute a request's outcome to every window
	// containing its arrival time (no-ops without windows).
	winServe := func(arrive, d time.Duration) {
		for i := range rep.Windows {
			w := &rep.Windows[i]
			if arrive >= w.Start && arrive < w.End {
				w.Served++
				w.Delay.Observe(float64(d))
			}
		}
	}
	winDrop := func(arrive time.Duration) {
		for i := range rep.Windows {
			w := &rep.Windows[i]
			if arrive >= w.Start && arrive < w.End {
				w.Dropped++
			}
		}
	}
	var now time.Duration

	// start puts req in service on node n at now, having waited since
	// "since", and schedules its departure.
	start := func(n *nodeState, ni int32, req int32, since time.Duration) {
		n.tick(now)
		n.inService++
		d := now - since
		n.delay.Observe(float64(d))
		rep.Delay.Observe(float64(d))
		rep.DelayByClass[reqs[req].Class].Observe(float64(d))
		winServe(reqs[req].Arrive, d)
		var svc time.Duration
		if n.cfg.ServiceRate > 0 {
			svc = time.Duration(reqs[req].Work / n.cfg.ServiceRate * float64(time.Second))
		}
		q.Push(Event{At: now + svc, Kind: EvDeparture, Req: req, Node: ni})
	}

	for {
		// The next arrival fires unless a queued event is strictly earlier,
		// so at one instant arrivals go first.
		at, pending := q.NextAt()
		arrival := next < len(reqs) && (!pending || reqs[next].Arrive <= at)
		if !arrival && !pending {
			break
		}
		if rep.Events&cancelCheckMask == 0 && ctx.Err() != nil {
			finalize(rep, nodes, now)
			return rep, ctx.Err()
		}
		rep.Events++

		if arrival {
			ri := int32(next)
			next++
			rq := &reqs[ri]
			now = rq.Arrive
			ni, routed := rt.route(*rq, load)
			if !routed {
				rep.Dropped++
				winDrop(rq.Arrive)
				continue
			}
			n := &nodes[ni]
			if n.canStart() && n.qlen() == 0 {
				start(n, ni, ri, now)
				continue
			}
			switch cfg.Admission {
			case AdmitReject:
				n.dropped++
				rep.Dropped++
				winDrop(rq.Arrive)
			case AdmitQueue:
				if n.cfg.QueueDepth > 0 && n.qlen() >= n.cfg.QueueDepth {
					n.dropped++
					rep.Dropped++
					winDrop(rq.Arrive)
					continue
				}
				n.enqueue(queued{req: ri, at: now})
			case AdmitShed:
				if n.cfg.QueueDepth > 0 && n.qlen() >= n.cfg.QueueDepth {
					w := n.dequeue() // oldest waiter is shed for the newcomer
					n.shed++
					rep.Shed++
					winDrop(reqs[w.req].Arrive)
				}
				n.enqueue(queued{req: ri, at: now})
			}
			continue
		}

		ev, _ := q.Pop()
		now = ev.At
		switch ev.Kind {
		case EvDeparture:
			n := &nodes[ev.Node]
			n.tick(now)
			n.inService--
			n.served++
			rep.Served++
			if n.qlen() > 0 && n.canStart() {
				w := n.dequeue()
				start(n, ev.Node, w.req, w.at)
			}
		case EvTimeline:
			applyTimeline(cfg.Timeline[ev.Req], nodes, start)
		}
	}
	finalize(rep, nodes, now)
	publish(rep)
	return rep, nil
}

// arrivalOrdered reports whether reqs is nondecreasing in Arrive.
func arrivalOrdered(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrive < reqs[i-1].Arrive {
			return false
		}
	}
	return true
}

// finalize closes the busy-time integrals at the last event time and
// flattens node state into the report.
func finalize(rep *Report, nodes []nodeState, now time.Duration) {
	rep.Horizon = now
	horizon := now.Seconds()
	rep.Nodes = make([]NodeReport, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		n.tick(now)
		nr := NodeReport{
			NodeConfig: n.cfg,
			Served:     n.served,
			Dropped:    n.dropped,
			Shed:       n.shed,
			QueueMax:   n.queueMax,
			Delay:      n.delay,
		}
		if horizon > 0 {
			nr.AvgBusy = n.busy / horizon
			if n.cfg.Concurrency > 0 {
				nr.Utilization = nr.AvgBusy / float64(n.cfg.Concurrency)
			}
		}
		rep.Nodes[i] = nr
	}
}

// NodeReport is one node's observed load response.
type NodeReport struct {
	NodeConfig

	Served, Dropped, Shed int64
	// AvgBusy is the time-averaged number of busy server slots.
	AvgBusy float64
	// Utilization is AvgBusy over Concurrency — the classic utilization
	// fraction. Zero when concurrency is unbounded (use AvgBusy).
	Utilization float64
	// QueueMax is the deepest the node's wait queue ever got.
	QueueMax int
	// Delay is the node's queueing-delay histogram (ns, served requests).
	Delay telemetry.LogHist
}

// Report is the outcome of one backend simulation.
type Report struct {
	Admission AdmissionPolicy
	Routing   RoutingPolicy

	// Requests is the arrival count; Events the processed event count.
	Requests int
	Events   int64

	// Dropped includes arrivals whose class had no node pool (a config
	// hole).
	Served, Dropped, Shed int64

	// Horizon is the timestamp of the last processed event.
	Horizon time.Duration

	// Delay is the queueing-delay distribution in nanoseconds over all
	// served requests; DelayByClass splits it by service.
	Delay        telemetry.LogHist
	DelayByClass [numClasses]telemetry.LogHist

	Nodes []NodeReport

	// Windows attributes outcomes to the configured report intervals
	// (Config.Windows), by request arrival time; nil without windows.
	Windows []WindowReport
}

// MeanDelay returns the average queueing delay of served requests.
func (r *Report) MeanDelay() time.Duration { return time.Duration(r.Delay.Mean()) }

// DelayQuantile returns the approximate q-quantile of queueing delay.
func (r *Report) DelayQuantile(q float64) time.Duration {
	return time.Duration(r.Delay.Quantile(q))
}

// DropRate returns the fraction of requests dropped or shed.
func (r *Report) DropRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Dropped+r.Shed) / float64(r.Requests)
}

// Metrics flattens the report into the named-metric form the experiment
// harness consumes: global counts and delay quantiles, plus per-node
// utilization, drop and queue-depth metrics.
func (r *Report) Metrics() map[string]float64 {
	m := map[string]float64{
		"requests":      float64(r.Requests),
		"events":        float64(r.Events),
		"served":        float64(r.Served),
		"dropped":       float64(r.Dropped),
		"shed":          float64(r.Shed),
		"drop_rate":     r.DropRate(),
		"delay_mean_ms": r.Delay.Mean() / 1e6,
		"delay_p50_ms":  r.Delay.Quantile(0.5) / 1e6,
		"delay_p95_ms":  r.Delay.Quantile(0.95) / 1e6,
		"delay_p99_ms":  r.Delay.Quantile(0.99) / 1e6,
	}
	for c := Class(0); c < numClasses; c++ {
		m["delay_p95_ms_"+c.String()] = r.DelayByClass[c].Quantile(0.95) / 1e6
	}
	for _, n := range r.Nodes {
		m["util_"+n.Name] = n.Utilization
		m["busy_"+n.Name] = n.AvgBusy
		m["served_"+n.Name] = float64(n.Served)
		m["dropped_"+n.Name] = float64(n.Dropped + n.Shed)
		m["queue_max_"+n.Name] = float64(n.QueueMax)
	}
	for _, w := range r.Windows {
		m["win_"+w.Name+"_served"] = float64(w.Served)
		m["win_"+w.Name+"_dropped"] = float64(w.Dropped)
		m["win_"+w.Name+"_delay_mean_ms"] = w.Delay.Mean() / 1e6
		m["win_"+w.Name+"_delay_p95_ms"] = w.Delay.Quantile(0.95) / 1e6
	}
	return m
}
