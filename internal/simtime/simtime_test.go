package simtime

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(Time(30*time.Millisecond), func() { got = append(got, 3) })
	s.At(Time(10*time.Millisecond), func() { got = append(got, 1) })
	s.At(Time(20*time.Millisecond), func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Second), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler()
	var at2 Time
	s.After(time.Second, func() {
		s.After(2*time.Second, func() { at2 = s.Now() })
	})
	s.Run()
	if want := Time(3 * time.Second); at2 != want {
		t.Fatalf("nested event fired at %v, want %v", at2, want)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Time(time.Second), func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past should panic")
		}
	}()
	s.At(Time(time.Millisecond), func() {})
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	id := s.After(time.Second, func() { fired = true })
	if !id.Pending() {
		t.Fatal("event should be pending")
	}
	s.After(2*time.Second, func() {})
	if !id.Cancel() {
		t.Fatal("first cancel should report true")
	}
	if id.Cancel() {
		t.Fatal("second cancel should report false")
	}
	if id.Pending() {
		t.Fatal("cancelled event still pending")
	}
	if len(s.queue) != 1 {
		t.Fatalf("queue length = %d after cancelling one of two events, want 1", len(s.queue))
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestCancelAfterFire: an event that has fired is no longer pending, and
// cancelling it reports false, also once its slot has been reused.
func TestCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	id := s.After(time.Second, func() {})
	s.Run()
	if id.Pending() {
		t.Fatal("fired event still pending")
	}
	if id.Cancel() {
		t.Fatal("cancelling a fired event reported true")
	}
	fired := false
	next := s.After(time.Second, func() { fired = true })
	if id.Cancel() || !next.Pending() {
		t.Fatal("a stale ID cancelled the event scheduled after it")
	}
	s.Run()
	if !fired {
		t.Fatal("event scheduled after a stale cancel did not fire")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Duration(i) * time.Second
		s.After(d, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(Time(3 * time.Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != Time(3*time.Second) {
		t.Fatalf("clock = %v, want 3s", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunForAdvancesIdleClock(t *testing.T) {
	s := NewScheduler()
	s.RunFor(time.Minute)
	if s.Now() != Time(time.Minute) {
		t.Fatalf("clock = %v, want 1m", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	tk := s.NewTicker(10*time.Second, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			// Stop from inside the callback.
		}
	})
	s.RunUntil(Time(35 * time.Second))
	tk.Stop()
	s.Run()
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (at 10s,20s,30s): %v", len(ticks), ticks)
	}
	for i, want := range []Time{Time(10 * time.Second), Time(20 * time.Second), Time(30 * time.Second)} {
		if ticks[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = s.NewTicker(time.Second, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestNextDeadline(t *testing.T) {
	s := NewScheduler()
	if _, ok := nextDeadline(s); ok {
		t.Fatal("empty scheduler should have no deadline")
	}
	id := s.After(5*time.Second, func() {})
	s.After(9*time.Second, func() {})
	if d, ok := nextDeadline(s); !ok || d != Time(5*time.Second) {
		t.Fatalf("deadline = %v,%v want 5s,true", d, ok)
	}
	id.Cancel()
	if d, ok := nextDeadline(s); !ok || d != Time(9*time.Second) {
		t.Fatalf("deadline after cancel = %v,%v want 9s,true", d, ok)
	}
}

// clock is the surface TestSchedulerMatchesReference drives: the
// Scheduler behind ids, or the reference model. Events are named by the
// order they were scheduled in.
type clock interface {
	at(t Time, fn func())
	cancel(h int) bool
	pending(h int) bool
	step() bool
	runUntil(t Time)
	nextDeadline() (Time, bool)
	state() (now Time, fired uint64, n int)
}

// realClock counts the callbacks it fires itself, as the reference does.
type realClock struct {
	s     *Scheduler
	ids   []EventID
	fired uint64
}

func (c *realClock) at(t Time, fn func()) {
	c.ids = append(c.ids, c.s.At(t, func() { c.fired++; fn() }))
}
func (c *realClock) cancel(h int) bool          { return c.ids[h].Cancel() }
func (c *realClock) pending(h int) bool         { return c.ids[h].Pending() }
func (c *realClock) step() bool                 { return c.s.Step() }
func (c *realClock) runUntil(t Time)            { c.s.RunUntil(t) }
func (c *realClock) nextDeadline() (Time, bool) { return nextDeadline(c.s) }
func (c *realClock) state() (Time, uint64, int) { return c.s.Now(), c.fired, len(c.s.queue) }

// refClock is the reference model: the pending events in a slice kept
// sorted by (deadline, schedule order).
type refClock struct {
	now   Time
	fired uint64
	evs   []refEvent
	queue []int // pending handles
}

type refEvent struct {
	at      Time
	fn      func()
	pending bool
}

func (c *refClock) before(h, k int) bool {
	return c.evs[h].at < c.evs[k].at || (c.evs[h].at == c.evs[k].at && h < k)
}

func (c *refClock) at(t Time, fn func()) {
	h := len(c.evs)
	c.evs = append(c.evs, refEvent{at: t, fn: fn, pending: true})
	i := sort.Search(len(c.queue), func(i int) bool { return c.before(h, c.queue[i]) })
	c.queue = append(c.queue[:i], append([]int{h}, c.queue[i:]...)...)
}

func (c *refClock) cancel(h int) bool {
	if !c.evs[h].pending {
		return false
	}
	c.evs[h].pending = false
	for i, k := range c.queue {
		if k == h {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			break
		}
	}
	return true
}

func (c *refClock) pending(h int) bool { return c.evs[h].pending }

func (c *refClock) step() bool {
	if len(c.queue) == 0 {
		return false
	}
	h := c.queue[0]
	c.queue = c.queue[1:]
	c.evs[h].pending = false
	c.now = c.evs[h].at
	c.fired++
	c.evs[h].fn()
	return true
}

func (c *refClock) runUntil(t Time) {
	for len(c.queue) > 0 && c.evs[c.queue[0]].at <= t {
		c.step()
	}
	if c.now < t {
		c.now = t
	}
}

func (c *refClock) nextDeadline() (Time, bool) {
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.evs[c.queue[0]].at, true
}

func (c *refClock) state() (Time, uint64, int) { return c.now, c.fired, len(c.queue) }

// script drives c through a seeded random sequence of schedules, cancels
// (of pending, fired and cancelled events alike), steps, RunUntil and
// next-deadline reads. Callbacks cancel and schedule too. It returns one
// observation per operation: the result, the clock, the fired count, the
// queue length and the pending set.
func script(c clock, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	n := 0
	observe := func(op string, args ...any) {
		now, fired, l := c.state()
		var b strings.Builder
		fmt.Fprintf(&b, "%s%v now=%v fired=%d len=%d pending=", op, args, now, fired, l)
		for h := 0; h < n; h++ {
			if c.pending(h) {
				fmt.Fprintf(&b, "%d,", h)
			}
		}
		trace = append(trace, b.String())
	}
	var schedule func()
	schedule = func() {
		now, _, _ := c.state()
		h := n
		n++
		// Few distinct delays, so deadlines tie often.
		c.at(now.Add(Duration(rng.Intn(8))*time.Millisecond), func() {
			observe("fire", h)
			if n > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(n)
				observe("cancel-in-callback", k, c.cancel(k))
			}
			if rng.Intn(2) == 0 {
				schedule()
				observe("rearm", h)
			}
		})
	}
	for op := 0; op < 400; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			schedule()
			observe("at")
		case r < 6 && n > 0:
			k := rng.Intn(n)
			observe("cancel", k, c.cancel(k))
		case r < 8:
			observe("step", c.step())
		case r < 9:
			now, _, _ := c.state()
			c.runUntil(now.Add(Duration(rng.Intn(10)) * time.Millisecond))
			observe("run-until")
		default:
			at, ok := c.nextDeadline()
			observe("next-deadline", at, ok)
		}
	}
	return trace
}

// TestSchedulerMatchesReference runs seeded random operation sequences on
// the Scheduler and on the sorted-slice reference model: fired order,
// clock, fired count, queue length and every ID's Pending must agree at
// every step.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		got := script(&realClock{s: NewScheduler()}, seed)
		want := script(&refClock{}, seed)
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d, operation %d:\n got %v\nwant %s", seed, i, got[i:min(i+1, len(got))], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got), len(want))
		}
	}
}

// TestSchedulerSteadyStateAllocs: on a warm scheduler, scheduling and
// firing a pre-bound callback allocates nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	s.After(time.Second, fn)
	s.Run()
	if n := testing.AllocsPerRun(100, func() {
		s.After(time.Second, fn)
		s.Step()
	}); n != 0 {
		t.Fatalf("schedule and fire allocated %v times, want 0", n)
	}
}

func BenchmarkSchedulerChain(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, step)
		}
	}
	b.ResetTimer()
	s.After(time.Microsecond, step)
	s.Run()
}

func BenchmarkSchedulerFanOut(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Duration(i%1000)*time.Microsecond, func() {})
	}
	s.Run()
}

// nextDeadline returns the deadline of the next pending event and true,
// or zero time and false when the queue is empty.
func nextDeadline(s *Scheduler) (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Stop cancels the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stop = true
	t.id.Cancel()
}
