// Package simtime provides a deterministic discrete-event scheduler used by
// every simulated subsystem in this repository.
//
// The simulator maintains a virtual clock that only advances when the next
// scheduled event fires. Events scheduled for the same instant fire in the
// order they were scheduled (FIFO), which makes runs bit-for-bit reproducible
// regardless of host timing.
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute instant on the virtual clock, measured as a duration
// since the simulation epoch. Using a duration (int64 nanoseconds) keeps
// arithmetic exact and avoids any dependency on wall-clock time.
type Time time.Duration

// Duration re-exports time.Duration for callers that want to avoid importing
// both packages.
type Duration = time.Duration

// Common durations re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
	Day         = 24 * time.Hour
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts the instant to the duration since the epoch.
func (t Time) Duration() Duration { return Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. Events are recycled through the
// scheduler's free list; gen counts releases, so an EventID taken before
// a release never matches the event's next use.
type event struct {
	s   *Scheduler
	at  Time
	seq uint64 // tie-breaker: schedule order
	fn  func()
	gen uint64
	idx int // heap index while queued
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing and removes it from the queue.
// Cancelling an already-fired or already-cancelled event is a no-op.
// Returns true if the event was pending.
func (id EventID) Cancel() bool {
	if !id.Pending() {
		return false
	}
	s := id.ev.s
	s.remove(id.ev.idx)
	s.release(id.ev)
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (id EventID) Pending() bool { return id.ev != nil && id.ev.gen == id.gen }

// Scheduler owns the virtual clock and the pending-event queue, a binary
// heap ordered by (deadline, schedule order). It is not safe for
// concurrent use: simulations are single-goroutine by design so results
// are deterministic.
type Scheduler struct {
	now   Time
	queue []*event
	free  []*event
	seq   uint64
	fired uint64
}

// NewScheduler returns a scheduler with the clock at the epoch.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far (useful for
// instrumentation and budget checks in tests).
func (s *Scheduler) Fired() uint64 { return s.fired }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// At schedules fn to run at the absolute instant at. Scheduling in the past
// panics: it always indicates a logic error in a discrete-event simulation.
func (s *Scheduler) At(at Time, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = &event{s: s}
	}
	ev.at, ev.seq, ev.fn = at, s.seq, fn
	s.seq++
	s.queue = append(s.queue, ev)
	s.sift(ev, len(s.queue)-1)
	return EventID{ev, ev.gen}
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (s *Scheduler) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step fires the next pending event, advancing the clock to its deadline.
// It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue[0]
	s.remove(0)
	fn := ev.fn
	s.now = ev.at
	s.release(ev)
	s.fired++
	fn()
	return true
}

// Run fires events until the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires events with deadlines at or before limit, then advances the
// clock to limit. Events scheduled beyond limit remain queued.
func (s *Scheduler) RunUntil(limit Time) {
	for len(s.queue) > 0 && s.queue[0].at <= limit {
		s.Step()
	}
	if s.now < limit {
		s.now = limit
	}
}

// RunFor advances the simulation by d virtual time.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// NextDeadline returns the deadline of the next pending event and true,
// or zero time and false when the queue is empty.
func (s *Scheduler) NextDeadline() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// release invalidates the event's IDs and returns it to the free list.
func (s *Scheduler) release(ev *event) {
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, ev)
}

// before orders events by deadline, then by schedule order.
func (a *event) before(b *event) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// remove takes the event at heap index i out of the queue.
func (s *Scheduler) remove(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if i < n {
		s.sift(last, i)
	}
}

// sift stores ev at heap index i, moving it toward the root or the
// leaves until the heap is ordered again.
func (s *Scheduler) sift(ev *event, i int) {
	q := s.queue
	for i > 0 && ev.before(q[(i-1)/2]) {
		q[i] = q[(i-1)/2]
		q[i].idx = i
		i = (i - 1) / 2
	}
	for c := 2*i + 1; c < len(q); c = 2*i + 1 {
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].idx = i
		i = c
	}
	q[i], ev.idx = ev, i
}

// Ticker repeatedly invokes fn every period until cancelled. The first tick
// fires one period from now.
type Ticker struct {
	s      *Scheduler
	period Duration
	fn     func(Time)
	id     EventID
	stop   bool
}

// NewTicker starts a ticker on the scheduler. period must be positive.
func (s *Scheduler) NewTicker(period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.id = t.s.After(t.period, func() {
		t.fn(t.s.Now())
		if !t.stop {
			t.arm()
		}
	})
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stop = true
	t.id.Cancel()
}
