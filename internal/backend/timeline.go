package backend

import (
	"fmt"
	"math"
	"time"

	"insidedropbox/internal/telemetry"
)

// TimelineAction is what a scheduled deployment change does when it fires.
type TimelineAction uint8

const (
	// ActionRegionDown takes every node of a region offline: in-flight
	// requests finish, but nothing new starts and queues freeze.
	ActionRegionDown TimelineAction = iota
	// ActionRegionUp brings a region's offline nodes back and drains
	// their frozen queues into the freed slots.
	ActionRegionUp
	// ActionScaleCapacity multiplies the concurrency of matching
	// bounded nodes by Factor of their configured value (a staged
	// capacity rollout, or a degradation when Factor < 1).
	ActionScaleCapacity
)

// String names the action for reports.
func (a TimelineAction) String() string {
	switch a {
	case ActionRegionDown:
		return "region-down"
	case ActionRegionUp:
		return "region-up"
	case ActionScaleCapacity:
		return "capacity-scale"
	default:
		return fmt.Sprintf("action(%d)", a)
	}
}

// TimelineEvent is one scheduled deployment change. Events ride the
// simulation's event queue beside departures and fire after the arrivals
// of their instant, so a timeline's effect on the simulation is exactly as
// deterministic as the arrival replay itself.
type TimelineEvent struct {
	At     time.Duration
	Action TimelineAction

	// Region selects the nodes of ActionRegionDown / ActionRegionUp.
	Region uint8

	// Class selects the nodes of ActionScaleCapacity; AllClasses widens
	// it to every bounded node.
	Class      Class
	AllClasses bool

	// Factor is ActionScaleCapacity's multiplier over the node's
	// configured concurrency (>= applied as ceil, min 1).
	Factor float64
}

func (e TimelineEvent) validate() error {
	if e.At < 0 {
		return fmt.Errorf("backend: timeline event at negative time %v", e.At)
	}
	switch e.Action {
	case ActionRegionDown, ActionRegionUp:
		return nil
	case ActionScaleCapacity:
		if e.Factor <= 0 {
			return fmt.Errorf("backend: capacity-scale at %v needs a positive factor, got %v", e.At, e.Factor)
		}
		return nil
	default:
		return fmt.Errorf("backend: unknown timeline action %d", e.Action)
	}
}

// Window is a named report interval: requests arriving inside [Start, End)
// get their delay and drop outcomes attributed to the window, so a
// timeline's effect is measurable against the surrounding baseline.
type Window struct {
	Name       string
	Start, End time.Duration
}

func (w Window) validate() error {
	if w.Name == "" {
		return fmt.Errorf("backend: report window needs a name")
	}
	if w.End <= w.Start {
		return fmt.Errorf("backend: window %q has end %v <= start %v", w.Name, w.End, w.Start)
	}
	return nil
}

// WindowReport is the observed load response attributed to one window.
type WindowReport struct {
	Window
	Served, Dropped int64
	// Delay is the queueing-delay histogram (ns) of served requests that
	// arrived inside the window.
	Delay telemetry.LogHist
}

// applyTimeline fires one timeline event against the node fleet. start is
// Simulate's slot-filling closure; freed capacity drains frozen/waiting
// queues through it immediately, in queue order.
func applyTimeline(te TimelineEvent, nodes []nodeState, start func(n *nodeState, ni int32, req int32, since time.Duration)) {
	drain := func(n *nodeState, ni int32) {
		for n.qlen() > 0 && n.canStart() {
			w := n.dequeue()
			start(n, ni, w.req, w.at)
		}
	}
	switch te.Action {
	case ActionRegionDown:
		for i := range nodes {
			if nodes[i].cfg.Region == te.Region {
				nodes[i].offline = true
			}
		}
	case ActionRegionUp:
		for i := range nodes {
			n := &nodes[i]
			if n.cfg.Region != te.Region || !n.offline {
				continue
			}
			n.offline = false
			drain(n, int32(i))
		}
	case ActionScaleCapacity:
		for i := range nodes {
			n := &nodes[i]
			if n.origConc <= 0 {
				continue // unbounded nodes have nothing to scale
			}
			if !te.AllClasses && n.cfg.Class != te.Class {
				continue
			}
			nc := int(math.Ceil(float64(n.origConc) * te.Factor))
			if nc < 1 {
				nc = 1
			}
			n.cfg.Concurrency = nc
			drain(n, int32(i))
		}
	}
}

// AmplifyWindow models an exogenous arrival surge: requests arriving
// inside [start, end) are replicated so the window's arrival rate is mult
// times the base rate, deterministically — whole copies for the integer
// part, plus one more for the fraction of requests selected by a hash of
// their content key (no RNG, no time-dependence). Replicas keep the
// original's arrival time, class and work but take derived keys, so router
// key-hashing spreads them like distinct requests. The result is a fresh
// canonically sorted slice; the input is not modified.
func AmplifyWindow(reqs []Request, start, end time.Duration, mult float64) []Request {
	out := make([]Request, 0, len(reqs))
	if mult <= 1 || end <= start {
		out = append(out, reqs...)
		return out
	}
	whole := int(mult) // copies including the original
	frac := mult - float64(whole)
	for _, r := range reqs {
		out = append(out, r)
		if r.Arrive < start || r.Arrive >= end {
			continue
		}
		n := whole - 1
		if frac > 0 && float64(fnv64a(r.Key, 0x517cc1b727220a95)&((1<<20)-1))/(1<<20) < frac {
			n++
		}
		for i := 1; i <= n; i++ {
			c := r
			c.Key = fnv64a(r.Key, uint64(i))
			out = append(out, c)
		}
	}
	SortRequests(out)
	return out
}

// offlineLoad is the load a routing policy sees on an offline node: large
// enough that least-loaded routing always prefers any live node, while
// load-blind policies (round-robin, region-affine) still hit the outage —
// the difference between the two is itself a scenario outcome.
const offlineLoad = int(1) << 30
