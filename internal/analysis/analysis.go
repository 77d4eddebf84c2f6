// Package analysis provides the statistical machinery the experiments use
// to turn flow records into the paper's tables and figures: empirical CDFs,
// quantiles, time-binned series, log-spaced histograms, and text rendering
// (tables and ASCII plots) so every figure regenerates in a terminal.
package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// ECDF is an empirical cumulative distribution over float64 samples.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the samples.
func NewECDF(samples []float64) *ECDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (q in [0,1]).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	pos := q * float64(len(e.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(e.sorted) {
		return e.sorted[lo]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Min and Max return the extremes.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest sample.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Mean returns the arithmetic mean of samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Median returns the middle sample.
func Median(samples []float64) float64 { return NewECDF(samples).Median() }

// Sum totals the samples.
func Sum(samples []float64) float64 {
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s
}

// HourOfDayProfile folds a series of timestamped values into 24 hourly
// fractions (the shape of Fig. 15): weekdaysOnly drops Saturday/Sunday
// (day 0 = Monday).
type HourOfDayProfile struct {
	totals [24]float64
	sum    float64
}

// Add accumulates v at offset t from the campaign start.
func (h *HourOfDayProfile) Add(t time.Duration, v float64, weekdaysOnly bool) {
	if weekdaysOnly {
		day := int(t/(24*time.Hour)) % 7
		if day >= 5 {
			return
		}
	}
	hr := int(t/time.Hour) % 24
	h.totals[hr] += v
	h.sum += v
}

// Fractions returns the 24 per-hour shares (summing to 1 when non-empty).
func (h *HourOfDayProfile) Fractions() [24]float64 {
	out := h.totals
	if h.sum > 0 {
		for i := range out {
			out[i] /= h.sum
		}
	}
	return out
}

// LogBins spaces bin edges logarithmically between lo and hi — the x-axis
// slotting used by Fig. 10 ("slots of equal sizes in logarithmic scale").
type LogBins struct {
	Lo, Hi float64
	N      int
}

// Index returns the bin for v, or -1 outside [Lo, Hi].
func (l LogBins) Index(v float64) int {
	if v < l.Lo || v > l.Hi || l.Lo <= 0 {
		return -1
	}
	f := math.Log(v/l.Lo) / math.Log(l.Hi/l.Lo)
	i := int(f * float64(l.N))
	if i >= l.N {
		i = l.N - 1
	}
	return i
}

// Center returns the geometric center of bin i.
func (l LogBins) Center(i int) float64 {
	f0 := float64(i) / float64(l.N)
	f1 := float64(i+1) / float64(l.N)
	lo := l.Lo * math.Pow(l.Hi/l.Lo, f0)
	hi := l.Lo * math.Pow(l.Hi/l.Lo, f1)
	return math.Sqrt(lo * hi)
}

// Counter tallies discrete values (devices per household, namespaces per
// device).
type Counter struct {
	counts map[int]int
	total  int
}

// NewCounter returns an empty tally.
func NewCounter() *Counter { return &Counter{counts: make(map[int]int)} }

// Add increments the tally for v.
func (c *Counter) Add(v int) { c.counts[v]++; c.total++ }

// Fraction returns the share of samples equal to v.
func (c *Counter) Fraction(v int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.counts[v]) / float64(c.total)
}

// FractionAtLeast returns the share of samples >= v.
func (c *Counter) FractionAtLeast(v int) float64 {
	if c.total == 0 {
		return 0
	}
	n := 0
	for k, cnt := range c.counts {
		if k >= v {
			n += cnt
		}
	}
	return float64(n) / float64(c.total)
}

// Total returns the sample count.
func (c *Counter) Total() int { return c.total }

// Table renders aligned text tables for the terminal and EXPERIMENTS.md.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// SortRows orders the rows by their first cell.
func (t *Table) SortRows() {
	slices.SortFunc(t.rows, func(a, b []string) int { return strings.Compare(a[0], b[0]) })
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// String renders the table. Columns are as wide as their widest cell in
// runes, so a cell like "Δ ops" pads like any other.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := utf8.RuneCountInString(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// HumanBytes formats byte counts the way the paper's axes do.
func HumanBytes(v float64) string {
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%.2fTB", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fGB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fMB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fkB", v/1e3)
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

// HumanRate formats bits-per-second rates.
func HumanRate(bitsPerSec float64) string {
	switch {
	case bitsPerSec >= 1e9:
		return fmt.Sprintf("%.2fGbit/s", bitsPerSec/1e9)
	case bitsPerSec >= 1e6:
		return fmt.Sprintf("%.2fMbit/s", bitsPerSec/1e6)
	case bitsPerSec >= 1e3:
		return fmt.Sprintf("%.2fkbit/s", bitsPerSec/1e3)
	default:
		return fmt.Sprintf("%.0fbit/s", bitsPerSec)
	}
}
