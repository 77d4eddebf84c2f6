package telemetry

import "math"

// histDecades spans 1 to 1e13 (1 byte to 10 TB, 1 ns to ~2.8 hours);
// histPerDecade sets resolution. Bucket width is a constant ratio, so
// quantile error is bounded by ~half a bucket (≈9% relative) at O(1)
// memory, and merging is exact (bucket-wise sums).
const (
	histDecades   = 13
	histPerDecade = 16
	histBuckets   = histDecades * histPerDecade
)

// LogHist is an online log-spaced histogram over positive values. The zero
// value is ready to use. It supports exact merging and approximate
// quantiles — the streaming replacement for sort-the-whole-slice
// percentile scans. It is not safe for concurrent use; Hist is the locked,
// registered form.
type LogHist struct {
	buckets [histBuckets + 1]uint64 // +1 overflow bucket
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func histBucket(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log10(v) * histPerDecade)
	if b < 0 {
		b = 0
	}
	if b > histBuckets {
		b = histBuckets
	}
	return b
}

// Observe adds one value. Non-positive values count toward bucket 0.
func (h *LogHist) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[histBucket(v)]++
}

// Count returns the number of observations.
func (h *LogHist) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h *LogHist) Sum() float64 { return h.sum }

// Mean returns the average observation (0 when empty).
func (h *LogHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the observed extremes (0 when empty).
func (h *LogHist) Min() float64 { return h.min }
func (h *LogHist) Max() float64 { return h.max }

// Quantile returns the approximate q-quantile (q in [0,1]): the geometric
// midpoint of the bucket holding the q-th observation, clamped to the
// observed min/max.
func (h *LogHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count-1))
	var seen uint64
	for b, n := range h.buckets {
		seen += n
		if n > 0 && seen > rank {
			lo := math.Pow(10, float64(b)/histPerDecade)
			hi := lo * math.Pow(10, 1.0/histPerDecade)
			v := math.Sqrt(lo * hi)
			return math.Min(math.Max(v, h.min), h.max)
		}
	}
	return h.max
}

// MergeHist folds another histogram in (exact).
func (h *LogHist) MergeHist(o *LogHist) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}
