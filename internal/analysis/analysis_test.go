package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4, 5})
	if e.N() != 5 {
		t.Fatalf("n = %d", e.N())
	}
	if got := e.At(3); got != 0.6 {
		t.Fatalf("At(3) = %f", got)
	}
	if got := e.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %f", got)
	}
	if got := e.At(10); got != 1 {
		t.Fatalf("At(10) = %f", got)
	}
	if e.Median() != 3 {
		t.Fatalf("median = %f", e.Median())
	}
	if e.Min() != 1 || e.Max() != 5 {
		t.Fatalf("range = %f..%f", e.Min(), e.Max())
	}
}

func TestECDFQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		e := NewECDF(raw)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := e.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(1) != 0 {
		t.Fatal("empty At should be 0")
	}
	if !math.IsNaN(e.Median()) {
		t.Fatal("empty median should be NaN")
	}
}

func TestMeanMedianSum(t *testing.T) {
	s := []float64{2, 4, 9}
	if Mean(s) != 5 {
		t.Fatalf("mean = %f", Mean(s))
	}
	if Median(s) != 4 {
		t.Fatalf("median = %f", Median(s))
	}
	if Sum(s) != 15 {
		t.Fatalf("sum = %f", Sum(s))
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty mean should be NaN")
	}
}

func TestHourOfDayProfile(t *testing.T) {
	var h HourOfDayProfile
	h.Add(10*time.Hour, 1, false)                // Monday 10:00
	h.Add(24*time.Hour+10*time.Hour, 1, false)   // Tuesday 10:00
	h.Add(5*24*time.Hour+10*time.Hour, 10, true) // Saturday, weekdays-only: dropped
	f := h.Fractions()
	if f[10] != 1.0 {
		t.Fatalf("hour 10 share = %f", f[10])
	}
}

func TestLogBins(t *testing.T) {
	l := LogBins{Lo: 1000, Hi: 1e9, N: 20}
	if l.Index(999) != -1 {
		t.Fatal("below range should be -1")
	}
	if l.Index(1000) != 0 {
		t.Fatalf("Index(lo) = %d", l.Index(1000))
	}
	if l.Index(1e9) != 19 {
		t.Fatalf("Index(hi) = %d", l.Index(1e9))
	}
	// Centers are monotonically increasing.
	prev := 0.0
	for i := 0; i < l.N; i++ {
		c := l.Center(i)
		if c <= prev {
			t.Fatalf("center %d = %f not increasing", i, c)
		}
		if l.Index(c) != i {
			t.Fatalf("center of bin %d maps to %d", i, l.Index(c))
		}
		prev = c
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	for _, v := range []int{1, 1, 1, 2, 3, 5} {
		c.Add(v)
	}
	if c.Fraction(1) != 0.5 {
		t.Fatalf("fraction(1) = %f", c.Fraction(1))
	}
	if got := c.FractionAtLeast(2); got != 0.5 {
		t.Fatalf("fractionAtLeast(2) = %f", got)
	}
	if c.Total() != 6 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X: demo", "name", "flows", "volume")
	tb.AddRow("campus1", 167189, 146.0)
	tb.AddRow("home1", 1438369, 1153.0)
	out := tb.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "campus1") || !strings.Contains(out, "1438369") {
		t.Fatalf("missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

// TestTableAlignsRunes pins padding by runes, not bytes: a "Δ" is two
// bytes but one column, so every line of a table holding one must be as
// wide as its separator.
func TestTableAlignsRunes(t *testing.T) {
	tb := NewTable("", "profile", "Δ ops", "Δ lat")
	tb.AddRow("dropbox-1.4.0", "-53.1%", "n/a")
	tb.AddRow("Δ", "+6.2%", "-49.4%")
	lines := strings.Split(strings.TrimSuffix(tb.String(), "\n"), "\n")
	want := utf8.RuneCountInString(lines[1])
	for _, l := range lines {
		if n := utf8.RuneCountInString(l); n != want {
			t.Fatalf("line %q is %d runes wide, separator %d:\n%s", l, n, want, tb.String())
		}
	}
}

func TestHumanFormats(t *testing.T) {
	if HumanBytes(1536) != "1.54kB" {
		t.Fatalf("kB = %q", HumanBytes(1536))
	}
	if HumanBytes(2.5e9) != "2.50GB" {
		t.Fatalf("GB = %q", HumanBytes(2.5e9))
	}
	if HumanBytes(12) != "12B" {
		t.Fatalf("B = %q", HumanBytes(12))
	}
	if HumanRate(530e3) != "530.00kbit/s" {
		t.Fatalf("rate = %q", HumanRate(530e3))
	}
}

func TestPlotCDF(t *testing.T) {
	p := NewPlot("Fig X: demo CDF", "bytes", "CDF")
	p.LogX = true
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i+1) * 100
	}
	p.AddECDF("campus1", NewECDF(samples))
	out := p.String()
	if !strings.Contains(out, "Fig X: demo CDF") || !strings.Contains(out, "*=campus1") {
		t.Fatalf("plot missing pieces:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 20 {
		t.Fatal("plot too short")
	}
}

func TestPlotScatterLogLog(t *testing.T) {
	p := NewPlot("scatter", "x", "y")
	p.LogX, p.LogY = true, true
	p.AddSeries("a", []float64{1e3, 1e6, 1e9}, []float64{1e2, 1e5, 1e7})
	p.AddSeries("b", []float64{1e4}, []float64{1e3})
	out := p.String()
	if !strings.Contains(out, "+=b") {
		t.Fatalf("second marker missing:\n%s", out)
	}
	// Zero/negative points must not panic on log axes.
	p.AddSeries("c", []float64{0, -5}, []float64{1, 1})
	_ = p.String()
}

func TestPlotForcedBounds(t *testing.T) {
	p := NewPlot("bounded", "x", "y")
	p.SetBounds(0, 10, 0, 1)
	p.AddSeries("s", []float64{5, 50}, []float64{0.5, 0.5}) // 50 is clipped
	out := p.String()
	if !strings.Contains(out, "10") {
		t.Fatalf("bounds not used:\n%s", out)
	}
}

func TestQuantileSummary(t *testing.T) {
	s := QuantileSummary("demo", []float64{1, 2, 3})
	if !strings.Contains(s, "median=2") {
		t.Fatalf("summary = %q", s)
	}
	if !strings.Contains(QuantileSummary("empty", nil), "no samples") {
		t.Fatal("empty summary wrong")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
}

func BenchmarkECDFAt(b *testing.B) {
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = float64(i % 1000)
	}
	e := NewECDF(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.At(float64(i % 1000))
	}
}
