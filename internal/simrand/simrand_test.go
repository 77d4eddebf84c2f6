package simrand

import (
	"math"
	"testing"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := New(42, "root")
	b := New(42, "root")
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	root := New(7, "root")
	a := root.Fork("a")
	b := root.Fork("b")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("forked streams look correlated: %d identical draws", same)
	}
}

func TestForkDeterministic(t *testing.T) {
	a := New(7, "root").Fork("child")
	b := New(7, "root").Fork("child")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("fork is not reproducible")
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	src := New(1, "t")
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = src.LogNormalMedian(1000, 1.5)
	}
	// Median of samples should be near 1000.
	count := 0
	for _, v := range vals {
		if v < 1000 {
			count++
		}
	}
	frac := float64(count) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("median check failed: %.3f of samples below the median", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	src := New(5, "t")
	for _, mean := range []float64{0.5, 3, 20, 100} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(src.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.1 {
			t.Fatalf("poisson(%.1f) sample mean = %.3f", mean, got)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	src := New(7, "t")
	w := NewWeightedChoice(src, []float64{0.1, 0.0, 0.9})
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[w.Draw()]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight option drawn %d times", counts[1])
	}
	if counts[2] < counts[0] {
		t.Fatalf("weights not respected: %v", counts)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	src := New(8, "t")
	for _, weights := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() { recover() }()
			NewWeightedChoice(src, weights)
			t.Fatalf("weights %v should panic", weights)
		}()
	}
}

func TestDiurnalNormalize(t *testing.T) {
	p := OfficeHours()
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("profile sums to %f", sum)
	}
	var zero DiurnalProfile
	u := zero.Normalize()
	if math.Abs(u[0]-1.0/24) > 1e-12 {
		t.Fatal("zero profile should normalize to uniform")
	}
}

func TestDiurnalShapes(t *testing.T) {
	office := OfficeHours()
	if pk := peak(office); pk < 9 || pk > 17 {
		t.Fatalf("office peak at hour %d", pk)
	}
	home := HomeEvenings()
	if pk := peak(home); pk < 19 || pk > 23 {
		t.Fatalf("home peak at hour %d", pk)
	}
	if office.At(3*time.Hour) > office.At(10*time.Hour) {
		t.Fatal("office 3am busier than 10am")
	}
}

func TestSampleHourFollowsProfile(t *testing.T) {
	src := New(10, "t")
	p := HomeEvenings()
	counts := make([]int, 24)
	for i := 0; i < 20000; i++ {
		counts[p.SampleHour(src)]++
	}
	if counts[21] < counts[4] {
		t.Fatalf("9pm (%d) should outdraw 4am (%d) at home", counts[21], counts[4])
	}
}

func TestWeekdayFactor(t *testing.T) {
	w := CampusWeek()
	sat := w.At(5 * 24 * time.Hour)
	mon := w.At(0)
	if sat >= mon {
		t.Fatalf("campus saturday factor %f >= monday %f", sat, mon)
	}
}

func TestHolidayCalendar(t *testing.T) {
	h := NewHolidayCalendar()
	h.MarkRange(3, 4, 0.2)
	if h.At(2*24*time.Hour) != 1 {
		t.Fatal("unmarked day should be 1")
	}
	if h.At(3*24*time.Hour+5*time.Hour) != 0.2 {
		t.Fatal("marked day factor wrong")
	}
	var nilCal *HolidayCalendar
	if nilCal.At(0) != 1 {
		t.Fatal("nil calendar should be neutral")
	}
}

func TestThinnedPoissonProcess(t *testing.T) {
	src := New(11, "t")
	horizon := 14 * 24 * time.Hour
	events := ThinnedPoissonProcess(src, horizon, 24, CampusRoaming(), CampusWeek(), nil)
	if len(events) == 0 {
		t.Fatal("no events generated")
	}
	for i := 1; i < len(events); i++ {
		if events[i] < events[i-1] {
			t.Fatal("events out of order")
		}
		if events[i] >= horizon {
			t.Fatal("event beyond horizon")
		}
	}
	// Weekdays should see far more events than weekends on campus.
	weekday, weekend := 0, 0
	for _, e := range events {
		d := int(e/(24*time.Hour)) % 7
		if d >= 5 {
			weekend++
		} else {
			weekday++
		}
	}
	if weekend*3 > weekday {
		t.Fatalf("campus weekend events (%d) not suppressed vs weekdays (%d)", weekend, weekday)
	}
}

func TestJitter(t *testing.T) {
	src := New(12, "t")
	base := time.Second
	for i := 0; i < 1000; i++ {
		v := src.Jitter(base, 0.1)
		if v < 900*time.Millisecond || v > 1100*time.Millisecond {
			t.Fatalf("jitter out of bounds: %v", v)
		}
	}
	if src.Jitter(base, 0) != base {
		t.Fatal("zero jitter should be identity")
	}
}

func BenchmarkLogNormal(b *testing.B) {
	src := New(1, "b")
	for i := 0; i < b.N; i++ {
		_ = src.LogNormalMedian(1000, 2)
	}
}

func BenchmarkThinnedPoisson(b *testing.B) {
	src := New(1, "b")
	prof := HomeEvenings()
	week := HomeWeek()
	for i := 0; i < b.N; i++ {
		_ = ThinnedPoissonProcess(src, 24*time.Hour, 50, prof, week, nil)
	}
}

// peak returns the index of the busiest hour.
func peak(p DiurnalProfile) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}
