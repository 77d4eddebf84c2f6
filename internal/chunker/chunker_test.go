package chunker

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
)

func TestSplitJoinRoundTrip(t *testing.T) {
	data := SyntheticFile{Seed: 7, Size: 3*MaxChunkSize + 12345}.Generate()
	chunks := Split(data)
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	for i, c := range chunks[:3] {
		if c.Size != MaxChunkSize {
			t.Fatalf("chunk %d size = %d", i, c.Size)
		}
	}
	if chunks[3].Size != 12345 {
		t.Fatalf("tail chunk = %d", chunks[3].Size)
	}
	if !bytes.Equal(Join(chunks), data) {
		t.Fatal("join != original")
	}
}

func TestSplitEmpty(t *testing.T) {
	if Split(nil) != nil {
		t.Fatal("empty split should be nil")
	}
}

func TestHashStability(t *testing.T) {
	a := HashBytes([]byte("hello"))
	b := HashBytes([]byte("hello"))
	c := HashBytes([]byte("hellp"))
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
	d1 := SyntheticFile{Seed: 1, Size: MaxChunkSize * 2}.Generate()
	d2 := SyntheticFile{Seed: 1, Size: MaxChunkSize * 2}.Generate()
	c1, c2 := Split(d1), Split(d2)
	for i := range c1 {
		if c1[i].Hash != c2[i].Hash {
			t.Fatal("identical files should share chunk hashes")
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

func TestWireSize(t *testing.T) {
	f := SyntheticFile{CompressRatio: 0.5}
	if got := f.WireSize(1000); got != 500 {
		t.Fatalf("wire size = %d", got)
	}
	f.CompressRatio = 0 // unset -> incompressible
	if got := f.WireSize(1000); got != 1000 {
		t.Fatalf("wire size = %d", got)
	}
	f.CompressRatio = 0.0001
	if got := f.WireSize(10); got < 1 {
		t.Fatalf("wire size must be positive, got %d", got)
	}
}

func TestReaderMatchesGenerate(t *testing.T) {
	f := SyntheticFile{Seed: 5, Size: 10000}
	direct := f.Generate()
	streamed, err := io.ReadAll(f.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, streamed) {
		t.Fatal("reader and generate disagree")
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

func BenchmarkSplit4MB(b *testing.B) {
	data := SyntheticFile{Seed: 1, Size: MaxChunkSize}.Generate()
	b.SetBytes(MaxChunkSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Split(data)
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
