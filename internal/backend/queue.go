// Package backend is the discrete-event simulation of the Dropbox server
// side — the capacity model the paper could only observe passively. The
// client fleet (internal/fleet) generates flow records; this package turns
// the Dropbox-bound records into arrival events against N simulated server
// instances (control plane, storage nodes, notification servers), each
// with a configurable service rate, concurrency limit and queue depth,
// behind pluggable admission (queue / reject / shed) and routing
// (round-robin / least-loaded / region-affine) policies.
//
// The simulation clock has two sources: a cursor over the canonically
// sorted arrival slice, and a timestamp-ordered event queue that holds only
// timeline events and in-flight departures (so it stays as small as the
// work in service, not the arrival set). Ties are deterministic: at one
// instant arrivals fire first in slice order, then timeline events, then
// departures in push order (a monotone sequence number breaks queue ties),
// so the same arrival set and configuration replay the exact same event
// interleaving on every run, on every host. The collectors build the
// canonical order per shard and merge the sorted runs, so the backend's
// metrics depend only on the generated request multiset — never on fleet
// worker count (determinism-contract point 14 in EXPERIMENTS.md, pinned
// byte for byte by TestSimulateMetricsGolden).
//
// The backend observes, it never participates: client record generation is
// finished before the first server event fires, and an infinite-capacity
// backend (the "infinite" preset) reproduces every golden stream hash
// bit-for-bit while reporting zero queueing delay and zero drops
// (TestStreamGoldenWithBackend).
package backend

import "time"

// EventKind labels what an event does when it fires.
type EventKind uint8

// Arrivals have no kind: Simulate reads them through its cursor over the
// sorted request slice, and they never enter the queue.
const (
	// EvDeparture is a server finishing one request's service.
	EvDeparture EventKind = iota
	// EvTimeline is a scheduled deployment change firing (Config.Timeline:
	// region outages, capacity rollouts). Req indexes the timeline slice.
	EvTimeline
)

// Event is one queued entry of the simulation clock: something happens at
// At. Req indexes the simulation's request slice (departures) or the
// timeline (timeline events); Node is the serving node of a departure.
type Event struct {
	At   time.Duration
	Kind EventKind
	Req  int32
	Node int32

	// seq is the push order, assigned by EventQueue.Push. It breaks
	// timestamp ties deterministically: of two events at the same At, the
	// one pushed first fires first.
	seq uint64
}

// EventQueue is a min-heap of events ordered by (At, push sequence). The
// zero value is an empty queue ready to use.
//
// The ordering invariant — Pop yields events in nondecreasing At, with
// equal timestamps in push (FIFO) order — is what makes the simulation
// deterministic, and is pinned by the property tests and
// FuzzEventQueueOrdering.
type EventQueue struct {
	h   []Event
	seq uint64
}

// before is the queue order: earlier At first, push order among equals.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.seq < o.seq
}

// Push schedules one event. The event's seq field is overwritten with the
// next push sequence number; callers never set it.
func (q *EventQueue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	// Sift up: move parents down until e's slot is found.
	h := append(q.h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	q.h = h
}

// Pop removes and returns the earliest event. ok is false on an empty
// queue.
func (q *EventQueue) Pop() (e Event, ok bool) {
	n := len(q.h) - 1
	if n < 0 {
		return Event{}, false
	}
	h := q.h
	e = h[0]
	// Sift the last event down from the root: move the smaller child up
	// until last's slot is found.
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.h = h
	return e, true
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// NextAt returns the timestamp of the earliest pending event (ok false
// when empty). The queue is unchanged.
func (q *EventQueue) NextAt() (at time.Duration, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}
