package fleet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
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
