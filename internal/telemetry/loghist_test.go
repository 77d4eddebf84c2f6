package telemetry

import (
	"math"
	"reflect"
	"testing"
)

func TestLogHistQuantiles(t *testing.T) {
	var h LogHist
	for v := 1.0; v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	med := h.Quantile(0.5)
	if med < 400 || med > 625 {
		t.Fatalf("median of 1..1000 = %g, want within a bucket of 500", med)
	}
	if h.Quantile(0) < 1 || h.Quantile(1) != 1000 {
		t.Fatalf("extremes: q0=%g q1=%g", h.Quantile(0), h.Quantile(1))
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max: %g/%g", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Fatalf("mean = %g", h.Mean())
	}
}

func TestLogHistMergeEquivalence(t *testing.T) {
	var all, a, b LogHist
	for i := 0; i < 5000; i++ {
		v := math.Pow(10, float64(i%11)) * float64(1+i%7)
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.MergeHist(&b)
	if !reflect.DeepEqual(a, all) {
		t.Fatal("merged histogram differs from single-stream histogram")
	}
}
