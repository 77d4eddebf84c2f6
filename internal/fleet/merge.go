package fleet

import (
	"math/bits"
	"slices"
	"sync"
)

// chunkLen, a power of two, is the number of samples in a chunk of a Samples.
const chunkLen = 4096

// chunkPools holds a sync.Pool of *[chunkLen]T per T, keyed by a nil *T.
var chunkPools sync.Map

func chunkPool[T any]() *sync.Pool {
	p, ok := chunkPools.Load((*T)(nil))
	if !ok {
		p, _ = chunkPools.LoadOrStore((*T)(nil), &sync.Pool{New: func() any { return new([chunkLen]T) }})
	}
	return p.(*sync.Pool)
}

// Samples collects an Aggregator's samples in pooled chunks, so a growing
// shard never re-copies what it holds, as an appended slice does (about
// five times its final size while it fills). They are read only once
// FinishShard hands them over as one exactly sized run to sort in place
// (SortRun); Merge gathers runs in shard order, Merged combines them.
// A pooled chunk keeps what was written into it: T should be a plain value.
type Samples[T any] struct {
	chunks []*[chunkLen]T // the samples since the last Take, in Add order
	n      int            // how many
	runs   [][]T          // the finished runs, in shard order
}

// Add appends one sample.
func (s *Samples[T]) Add(v T) {
	if s.n&(chunkLen-1) == 0 {
		s.chunks = append(s.chunks, chunkPool[T]().Get().(*[chunkLen]T))
	}
	s.chunks[len(s.chunks)-1][s.n&(chunkLen-1)] = v
	s.n++
}

// Take returns the samples added since the last Take or FinishShard in an
// exactly sized slice, never pooled storage, and pools their chunks again.
func (s *Samples[T]) Take() []T {
	out, pool := make([]T, s.n), chunkPool[T]()
	for i, c := range s.chunks {
		copy(out[i*chunkLen:], c[:])
		pool.Put(c)
	}
	s.chunks, s.n = nil, 0
	return out
}

// FinishShard is Take, keeping the slice as a run to merge.
func (s *Samples[T]) FinishShard() []T {
	s.runs = append(s.runs, s.Take())
	return s.runs[len(s.runs)-1]
}

// Merge appends other's runs to the receiver's, in shard order.
func (s *Samples[T]) Merge(other *Samples[T]) { s.runs = append(s.runs, other.runs...) }

// Merged returns the runs, each sorted by cmp, combined by MergeRuns, and
// lets go of them.
func (s *Samples[T]) Merged(cmp func(a, b T) int) []T {
	defer func() { s.runs = nil }()
	return MergeRuns(s.runs, cmp)
}

// MergeRuns k-way merges runs, each sorted by cmp, into one exactly sized
// slice: a min-heap of run heads, O(n log k), with equal elements in run
// order, so the result equals a stable sort of the runs' concatenation. A
// lone non-empty run is returned as it is. Samples.Merged combines the
// shards' runs with it.
func MergeRuns[T any](runs [][]T, cmp func(a, b T) int) []T {
	// h is a min-heap of the indices of the runs with elements left; rest
	// holds each run's unmerged rest, and the run index breaks ties.
	rest := make([][]T, len(runs))
	h := make([]int, 0, len(runs))
	n := 0
	for i, r := range runs {
		if len(r) > 0 {
			rest[i] = r
			h = append(h, i)
			n += len(r)
		}
	}
	switch len(h) {
	case 0:
		return nil
	case 1:
		return rest[h[0]]
	}
	less := func(a, b int) bool {
		c := cmp(rest[a][0], rest[b][0])
		return c < 0 || c == 0 && a < b
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && less(h[c+1], h[c]) {
				c++
			}
			if !less(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]T, 0, n)
	for len(h) > 1 {
		r := h[0]
		out = append(out, rest[r][0])
		if rest[r] = rest[r][1:]; len(rest[r]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return append(out, rest[h[0]]...)
}

// SortRun sorts run in place by cmp, a total order that agrees with key:
// key(a) < key(b) implies cmp(a, b) < 0. Past 32 elements, a run in key
// order only has its runs of equal keys sorted by cmp; any other is split
// into 256 buckets by the top eight bits its span of key − min uses, each
// element moved once along the cycles of that permutation, and each bucket
// sorted the same way. It allocates nothing: key takes T by value.
func SortRun[T any](run []T, key func(T) int64, cmp func(a, b T) int) {
	if len(run) <= 32 {
		slices.SortFunc(run, cmp)
		return
	}
	// While run is in key order, hi is the last key and tie starts its run
	// of equal keys; tie is -1 once run is out of order.
	lo, hi, tie := key(run[0]), key(run[0]), 0
	for i := 1; i < len(run); i++ {
		k := key(run[i])
		switch {
		case tie < 0:
		case k < hi:
			tie = -1
		case k > hi:
			if i-tie > 1 {
				slices.SortFunc(run[tie:i], cmp)
			}
			tie = i
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	if tie >= 0 {
		slices.SortFunc(run[tie:], cmp)
		return
	}
	shift := uint(max(bits.Len64(uint64(hi)-uint64(lo))-8, 0))
	digit := func(v T) uint8 { return uint8((uint64(key(v)) - uint64(lo)) >> shift) }
	var next, end [256]int
	for _, v := range run {
		end[digit(v)]++
	}
	for d := 1; d < len(end); d++ {
		next[d], end[d] = end[d-1], end[d]+end[d-1]
	}
	// Take the element at bucket d's first unplaced slot and, while it
	// belongs to another bucket b, put it in b's and take what was there.
	start := 0
	for d := range next {
		for next[d] < end[d] {
			v := run[next[d]]
			for b := digit(v); int(b) != d; b = digit(v) {
				run[next[b]], v = v, run[next[b]]
				next[b]++
			}
			run[next[d]] = v
			next[d]++
		}
		if end[d]-start > 1 {
			SortRun(run[start:end[d]], key, cmp)
		}
		start = end[d]
	}
}
