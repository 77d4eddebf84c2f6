package simrand

import (
	"math"
	"math/rand"
	"strconv"
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

// TestSourceMatchesMathRand drives a Source and rand.New(rand.NewSource)
// with one script of every draw and requires the same value at each step:
// the stream is math/rand's Go 1 stream bit for bit.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2012, math.MaxInt32, 1 << 40, math.MinInt64, math.MaxInt64}
	// Intn's mask (1<<30 puts half the draws in the last block), its
	// rejection (3<<29 rejects one draw in four) and, where int is 64-bit,
	// its hand-off to rand.Rand.Intn.
	intns := []int{1, 7, 1 << 20, 1 << 30, 3 << 29, math.MaxInt32}
	if strconv.IntSize == 64 {
		big := int64(1) << 40 // a variable, so that 32-bit builds compile
		intns = append(intns, int(big))
	}
	refPoisson := func(r *rand.Rand, mean float64) int {
		if mean > 60 {
			v := mean + math.Sqrt(mean)*r.NormFloat64()
			if v < 0 {
				return 0
			}
			return int(v + 0.5)
		}
		k, p, l := 0, 1.0, math.Exp(-mean)
		for {
			if p *= r.Float64(); p <= l {
				return k
			}
			k++
		}
	}
	for _, seed := range seeds {
		s, r := New(seed, "root"), rand.New(rand.NewSource(seed))
		for step := 0; step < 10000; step++ {
			var got, want any
			switch step % 13 {
			case 0:
				got, want = s.Float64(), r.Float64()
			case 1:
				n := intns[step/13%len(intns)]
				got, want = s.Intn(n), r.Intn(n)
			case 2:
				got, want = s.Uint64(), r.Uint64()
			case 3:
				got, want = s.Normal(0, 1), r.NormFloat64()
			case 4:
				got, want = s.Exponential(1), r.ExpFloat64()
			case 5:
				a, b := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
				s.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				got, want = [9]int(a), [9]int(b)
			case 6:
				got, want = s.Poisson(3.5), refPoisson(r, 3.5)
			case 7:
				got, want = s.Poisson(80), refPoisson(r, 80)
			case 8:
				got, want = s.PoissonExp(math.Exp(-1.4)), refPoisson(r, 1.4)
			case 9:
				got, want = s.Bool(0.3), r.Float64() < 0.3
			case 10:
				got, want = s.Uniform(2, 20), 2+18*r.Float64()
			case 11:
				child := s.Fork("c")
				ref := rand.New(rand.NewSource(int64(fnv64("root/c")) ^ r.Int63()))
				got, want = [2]uint64{child.Uint64(), uint64(child.Intn(1000))}, [2]uint64{ref.Uint64(), uint64(ref.Intn(1000))}
			case 12:
				got, want = s.Intn(1000), r.Intn(1000)
			}
			if got != want {
				t.Fatalf("seed %d, step %d (op %d): got %v, math/rand %v", seed, step, step%13, got, want)
			}
		}
	}

	// An Int63 near 2⁶³ rounds to 1 in Float64, which must draw again as
	// rand.Rand.Float64 does. Steer the next output to 2⁶³−1.
	s := New(2012, "root")
	tap, feed := (s.gen.tap+genLen-1)%genLen, (s.gen.feed+genLen-1)%genLen
	s.gen.vec[feed] = math.MaxInt64 - s.gen.vec[tap]
	ref := s.gen
	if got, want := s.Float64(), rand.New(&ref).Float64(); got != want || got >= 1 {
		t.Fatalf("Float64 after an Int63 of 2⁶³−1: got %v, rand.Rand %v", got, want)
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

var (
	sinkFloat float64
	sinkInt   int
	sinkBool  bool
)

// BenchmarkSourceDraws times the draws the generator makes most often.
func BenchmarkSourceDraws(b *testing.B) {
	b.Run("Float64", func(b *testing.B) {
		src := New(1, "b")
		for i := 0; i < b.N; i++ {
			sinkFloat = src.Float64()
		}
	})
	b.Run("Intn1000", func(b *testing.B) {
		src := New(1, "b")
		for i := 0; i < b.N; i++ {
			sinkInt = src.Intn(1000)
		}
	})
	b.Run("Bool", func(b *testing.B) {
		src := New(1, "b")
		for i := 0; i < b.N; i++ {
			sinkBool = src.Bool(0.3)
		}
	})
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
