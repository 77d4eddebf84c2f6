package chunker

import (
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func TestHashStability(t *testing.T) {
	a := Hash(sha256.Sum256([]byte("hello")))
	b := Hash(sha256.Sum256([]byte("hello")))
	c := Hash(sha256.Sum256([]byte("hellp")))
	if a != b {
		t.Fatal("same content, different hash")
	}
	if a == c {
		t.Fatal("different content, same hash")
	}
	if len(a.Short()) != 8 {
		t.Fatalf("short form %q", a.Short())
	}
}

func TestDedupAcrossIdenticalContent(t *testing.T) {
	for _, limit := range []int{1 << 20, MaxChunkSize} {
		c1 := SyntheticFile{Seed: 1, Size: MaxChunkSize * 2}.RefsLimit(limit)
		c2 := SyntheticFile{Seed: 1, Size: MaxChunkSize * 2}.RefsLimit(limit)
		for i := range c1 {
			if c1[i].Hash != c2[i].Hash {
				t.Fatal("identical files should share chunk hashes")
			}
		}
	}
}

func TestSyntheticRefs(t *testing.T) {
	f := SyntheticFile{Seed: 42, Size: 2*MaxChunkSize + 100}
	refs := f.Refs()
	if len(refs) != 3 {
		t.Fatalf("refs = %d", len(refs))
	}
	if refs[0].Size != MaxChunkSize || refs[2].Size != 100 {
		t.Fatalf("sizes = %d,%d", refs[0].Size, refs[2].Size)
	}
	// Same seed+size: identical hashes (synthetic dedup).
	again := SyntheticFile{Seed: 42, Size: 2*MaxChunkSize + 100}.Refs()
	for i := range refs {
		if refs[i] != again[i] {
			t.Fatal("synthetic refs not deterministic")
		}
	}
	// Different seed: different hashes.
	other := SyntheticFile{Seed: 43, Size: 2*MaxChunkSize + 100}.Refs()
	if refs[0].Hash == other[0].Hash {
		t.Fatal("different seeds should not collide")
	}
}

func TestSyntheticRefsExactMultiple(t *testing.T) {
	refs := SyntheticFile{Seed: 1, Size: 2 * MaxChunkSize}.Refs()
	if len(refs) != 2 || refs[1].Size != MaxChunkSize {
		t.Fatalf("refs = %+v", refs)
	}
	if (SyntheticFile{}).Refs() != nil {
		t.Fatal("zero-size file should have no refs")
	}
}

func TestSyntheticRefsProperty(t *testing.T) {
	f := func(seed uint64, sz uint32) bool {
		size := int64(sz%50_000_000) + 1
		refs := SyntheticFile{Seed: seed, Size: size}.Refs()
		total := int64(0)
		for _, r := range refs {
			if r.Size <= 0 || r.Size > MaxChunkSize {
				return false
			}
			total += int64(r.Size)
		}
		return total == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticRefsDistinctWithinFile(t *testing.T) {
	// Regression: the old i<<20|size hash encoding overlapped the index
	// with full-chunk sizes (4 MB sets bit 22), so chunks 0 and 4 of a
	// 24 MB file shared a hash and spuriously deduplicated.
	for _, limit := range []int{MaxChunkSize, 16 << 20} {
		f := SyntheticFile{Seed: 3, Size: 40 * int64(MaxChunkSize)}
		seen := map[Hash]int{}
		for i, r := range f.RefsLimit(limit) {
			if prev, dup := seen[r.Hash]; dup {
				t.Fatalf("limit %d: chunks %d and %d collide", limit, prev, i)
			}
			seen[r.Hash] = i
		}
	}
}

func TestRefsLimitCustomBoundary(t *testing.T) {
	f := SyntheticFile{Seed: 9, Size: 40 << 20} // 40 MB
	refs := f.RefsLimit(16 << 20)
	if len(refs) != 3 || refs[0].Size != 16<<20 || refs[2].Size != 8<<20 {
		t.Fatalf("16MB chunking of 40MB = %d refs, sizes %v %v %v",
			len(refs), refs[0].Size, refs[1].Size, refs[2].Size)
	}
	// The default limit path is RefsLimit at MaxChunkSize.
	a, b := f.Refs(), f.RefsLimit(0)
	if len(a) != 10 || len(b) != 10 || a[0].Hash != b[0].Hash {
		t.Fatalf("default chunking mismatch: %d vs %d refs", len(a), len(b))
	}
}

func BenchmarkSyntheticRefs(b *testing.B) {
	f := SyntheticFile{Seed: 1, Size: 100 * MaxChunkSize}
	for i := 0; i < b.N; i++ {
		_ = f.Refs()
	}
}

// TestChunkSpanMatchesRefsLimit pins the allocation-free chunk layout to
// the ref-materializing implementation, size for size.
func TestChunkSpanMatchesRefsLimit(t *testing.T) {
	sizes := []int64{0, 1, 100, MaxChunkSize - 1, MaxChunkSize, MaxChunkSize + 1,
		3 * MaxChunkSize, 3*MaxChunkSize + 7, 2e9}
	limits := []int{0, 1 << 10, MaxChunkSize, 16 << 20}
	for _, size := range sizes {
		for _, limit := range limits {
			refs := (SyntheticFile{Seed: 1, Size: size}).RefsLimit(limit)
			n, last := ChunkSpanLimit(size, limit)
			if n != len(refs) {
				t.Fatalf("size %d limit %d: n=%d, refs=%d", size, limit, n, len(refs))
			}
			eff := limit
			if eff <= 0 {
				eff = MaxChunkSize
			}
			for i, r := range refs {
				want := eff
				if i == n-1 {
					want = last
				}
				if r.Size != want {
					t.Fatalf("size %d limit %d chunk %d: span size %d, ref size %d",
						size, limit, i, want, r.Size)
				}
			}
		}
	}
}
