package fleet

// MergeRuns k-way merges runs, each sorted by cmp, into one exactly sized
// slice: a min-heap of run heads, O(n log k), with equal elements in run
// order, so the result equals a stable sort of the runs' concatenation. A
// lone non-empty run is returned as it is. Aggregators that sort their
// shard's samples in FinishShard combine the shards' runs with it.
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
