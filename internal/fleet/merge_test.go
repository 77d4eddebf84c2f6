package fleet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// TestMergeRuns: the merge of sorted runs equals a stable sort of their
// concatenation, so equal keys keep run order (and, within a run, their
// order); empty runs are skipped, and a lone non-empty run comes back as
// it is, not copied.
func TestMergeRuns(t *testing.T) {
	type item struct{ key, run, pos int }
	byKey := func(a, b item) int { return cmp.Compare(a.key, b.key) }
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3, 8, 33} {
		for trial := 0; trial < 40; trial++ {
			runs := make([][]item, k)
			var all []item
			nonEmpty := 0
			for i := range runs {
				if rng.Intn(3) == 0 {
					continue // an empty run
				}
				for p := range 1 + rng.Intn(30) {
					runs[i] = append(runs[i], item{key: rng.Intn(4), run: i, pos: p})
				}
				slices.SortStableFunc(runs[i], byKey)
				all = append(all, runs[i]...)
				nonEmpty++
			}
			slices.SortStableFunc(all, byKey)
			got := MergeRuns(runs, byKey)
			if !slices.Equal(got, all) {
				t.Fatalf("k=%d trial %d: merge of %d items is not the stable sort of the runs", k, trial, len(all))
			}
			if nonEmpty > 1 && len(got) != cap(got) {
				t.Fatalf("k=%d trial %d: merge has cap %d for %d items", k, trial, cap(got), len(got))
			}
		}
	}

	lone := []item{{key: 1}, {key: 2}, {key: 2, pos: 1}}
	got := MergeRuns([][]item{nil, {}, lone, nil}, byKey)
	if len(got) != len(lone) || &got[0] != &lone[0] {
		t.Fatalf("a lone run among empty ones came back as a copy: %v", got)
	}
	if got := MergeRuns([][]item{nil, {}}, byKey); got != nil {
		t.Fatalf("merge of empty runs = %v, want nil", got)
	}
}

// collect adds 0…n-1, plus base, to s and finishes its shard.
func collect(s *Samples[int], n, base int) []int {
	for i := range n {
		s.Add(base + i)
	}
	return s.FinishShard()
}

// TestSamplesOrder: a finished collector hands over exactly its samples,
// in Add order, in a slice of their exact size, on either side of every
// chunk boundary; Take empties the collector for the next shard.
func TestSamplesOrder(t *testing.T) {
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7} {
		var s Samples[int]
		for round := range 2 {
			base := round * n
			got := collect(&s, n, base)
			if len(got) != n || cap(got) != n {
				t.Fatalf("n=%d round %d: finished slice has len %d, cap %d", n, round, len(got), cap(got))
			}
			for i, v := range got {
				if v != base+i {
					t.Fatalf("n=%d round %d: sample %d is %d, want %d", n, round, i, v, base+i)
				}
			}
		}
		if got := s.Take(); len(got) != 0 {
			t.Fatalf("n=%d: %d samples left after FinishShard", n, len(got))
		}
	}
}

// TestSamplesNoAliasing: a finished slice is the caller's alone. Another
// collector drawing the chunks it was collected in, and filling them,
// leaves it as it was, and writing through it changes nothing the other
// collector hands over.
func TestSamplesNoAliasing(t *testing.T) {
	for _, n := range []int{5, 2*chunkLen + 5} {
		var a, b Samples[int]
		got := collect(&a, n, 0)
		for i := range n {
			b.Add(-1 - i)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("n=%d: sample %d of the first collector became %d after the second one filled its chunks", n, i, v)
			}
			got[i] = 1 << 30
		}
		for i, v := range b.FinishShard() {
			if v != -1-i {
				t.Fatalf("n=%d: sample %d of the second collector is %d, want %d", n, i, v, -1-i)
			}
		}
	}
}

// TestSamplesAfterGC: collection needs nothing from the pool, which a
// garbage collection may empty at any time.
func TestSamplesAfterGC(t *testing.T) {
	var s Samples[int]
	collect(&s, chunkLen+1, 0)
	runtime.GC()
	runtime.GC()
	n := 3*chunkLen + 7
	got := collect(&s, n, 5)
	if len(got) != n || got[0] != 5 || got[n-1] != n+4 {
		t.Fatalf("after a GC: %d samples, from %v to %v", len(got), got[0], got[n-1])
	}
}

// TestSamplesMerged: the runs of merged collectors, each sorted after
// FinishShard, combine in shard order as MergeRuns does, and Merged lets
// go of them.
func TestSamplesMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shards := make([]Samples[int], 5)
	var all []int
	for sh := range shards {
		for range rng.Intn(2 * chunkLen) {
			v := rng.Intn(1000)
			shards[sh].Add(v)
			all = append(all, v)
		}
		slices.Sort(shards[sh].FinishShard())
	}
	for sh := range shards[1:] {
		shards[0].Merge(&shards[1+sh])
	}
	slices.Sort(all)
	if got := shards[0].Merged(cmp.Compare[int]); !slices.Equal(got, all) {
		t.Fatalf("merge of %d samples is not their sort", len(all))
	}
	if got := shards[0].Merged(cmp.Compare[int]); got != nil {
		t.Fatalf("a second Merged returned %d samples", len(got))
	}
}

// sortItem is a SortRun test element: k is its key, and cmp orders by k
// and then v, so equal items are identical.
type sortItem struct {
	k int64
	v uint32
}

func itemKey(it sortItem) int64 { return it.k }

func compareItems(a, b sortItem) int { return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.v, b.v)) }

// sortRunCases returns a named input of n items per shape SortRun must
// handle.
func sortRunCases(rng *rand.Rand, n int) map[string][]sortItem {
	gen := func(key func(i int) int64) []sortItem {
		s := make([]sortItem, n)
		for i := range s {
			s[i] = sortItem{key(i), rng.Uint32() % 4}
		}
		return s
	}
	orderedTies := gen(func(i int) int64 { return int64(i / 7) })
	rng.Shuffle(n, func(i, j int) {
		if orderedTies[i].k == orderedTies[j].k {
			orderedTies[i], orderedTies[j] = orderedTies[j], orderedTies[i]
		}
	})
	sorted := gen(func(int) int64 { return rng.Int63() })
	slices.SortFunc(sorted, compareItems)
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	return map[string][]sortItem{
		"distinct":   gen(func(i int) int64 { return int64(i)*1_000_003%int64(n+1) - 7 }),
		"heavy ties": gen(func(int) int64 { return rng.Int63n(4) * 1e9 }),
		"one key":    gen(func(int) int64 { return 42 }),
		"negative":   gen(func(int) int64 { return -rng.Int63n(1 << 40) }),
		"span < 256": gen(func(int) int64 { return 1000 + rng.Int63n(200) }),
		"span > 2^62": gen(func(int) int64 {
			return rng.Int63() - rng.Int63() + []int64{math.MinInt64, math.MaxInt64, 0}[rng.Intn(3)]/2
		}),
		"extremes":     gen(func(int) int64 { return []int64{math.MinInt64, math.MaxInt64, -1, 0}[rng.Intn(4)] }),
		"arrivals":     gen(func(int) int64 { return rng.Int63n(int64(42 * 24 * time.Hour)) }),
		"ordered ties": orderedTies,
		"sorted":       sorted,
		"reversed":     reversed,
	}
}

// TestSortRunEqualsSort: SortRun puts every kind of run in the order
// slices.SortFunc gives it, on either side of the small-run cut-off.
func TestSortRunEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 257, 1000, 20000} {
		for name, in := range sortRunCases(rng, n) {
			want := slices.Clone(in)
			slices.SortFunc(want, compareItems)
			if SortRun(in, itemKey, compareItems); !slices.Equal(in, want) {
				t.Fatalf("n=%d, %s: SortRun differs from slices.SortFunc", n, name)
			}
		}
	}
}

// FuzzSortRun: SortRun equals slices.SortFunc on any run. Each 9 bytes of
// data make an item, its key shifted right by shift%64 to narrow the span.
func FuzzSortRun(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{3, 40, 300} {
		for _, in := range sortRunCases(rng, n) {
			var data []byte
			for _, it := range in {
				data = binary.LittleEndian.AppendUint64(data, uint64(it.k))
				data = append(data, byte(it.v))
			}
			f.Add(data, uint8(0))
		}
	}
	f.Add(bytes.Repeat([]byte{0xa5, 1, 2, 3, 4, 5, 6, 7, 8}, 50), uint8(60))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		var in []sortItem
		for ; len(data) >= 9; data = data[9:] {
			k := int64(binary.LittleEndian.Uint64(data)) >> (shift % 64)
			in = append(in, sortItem{k, uint32(data[8])})
		}
		want := slices.Clone(in)
		slices.SortFunc(want, compareItems)
		if SortRun(in, itemKey, compareItems); !slices.Equal(in, want) {
			t.Fatalf("SortRun of %d items differs from slices.SortFunc", len(in))
		}
	})
}

// TestSortRunAllocs: sorting a run allocates nothing, whatever its shape.
func TestSortRunAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, in := range sortRunCases(rng, 50_000) {
		run := make([]sortItem, len(in))
		if a := testing.AllocsPerRun(5, func() {
			copy(run, in)
			SortRun(run, itemKey, compareItems)
		}); a != 0 {
			t.Errorf("%s: SortRun allocated %v times per run", name, a)
		}
	}
}
