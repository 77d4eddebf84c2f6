package workload

import (
	"bytes"
	"hash/fnv"
	"io"
	"testing"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/golden"
	"insidedropbox/internal/traces"
)

// streamHash serializes a (cfg, seed, shards) record stream as
// non-anonymized CSV — every field, full precision where CSV carries it —
// and returns the FNV-1a hash of the bytes. Multi-shard streams hash
// shards in index order (the canonical fleet order).
func streamHash(t *testing.T, cfg VPConfig, seed int64, nshards int) uint64 {
	t.Helper()
	h := fnv.New64a()
	w := traces.NewWriter(h)
	for sh := 0; sh < nshards; sh++ {
		GenerateShard(cfg, seed, sh, nshards, func(r *traces.FlowRecord) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestRecordStreamGolden pins the generated record streams bit for bit.
// The hashes (internal/golden) were recorded before the hot-path optimization pass
// (string interning, record pooling, event-slice rewrite, chunk-size
// iteration): any optimization that changes a single byte of any record
// stream fails here. Update a hash only for a deliberate,
// documented model change — never for a performance change
// (PERFORMANCE.md: optimizations must not change golden outputs).
func TestRecordStreamGolden(t *testing.T) {
	for _, g := range golden.Streams {
		t.Run(g.Name, func(t *testing.T) {
			cfg, ok := ByName(g.VP, g.Scale)
			if !ok {
				t.Fatalf("unknown vantage point %q", g.VP)
			}
			if g.Profile != "" {
				p, ok := capability.ByName(g.Profile)
				if !ok {
					t.Fatalf("%s preset missing", g.Profile)
				}
				cfg.Caps = p
			}
			got := streamHash(t, cfg, g.Seed, g.Shards)
			if !golden.Match(got, g.Hash) {
				t.Fatalf("record stream hash = %#x, want %#x (a hot-path change altered generated records)", got, g.Hash)
			}
		})
	}
}

// binaryStreamBytes serializes a (cfg, seed, shards) record stream
// through w (a factory so each call gets a fresh writer over its own
// buffer) and returns the bytes.
func binaryStreamBytes(t *testing.T, cfg VPConfig, seed int64, nshards int, w traces.RecordWriter) {
	t.Helper()
	for sh := 0; sh < nshards; sh++ {
		GenerateShard(cfg, seed, sh, nshards, func(r *traces.FlowRecord) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordStreamGoldenCodecs extends the golden contract across the
// serialization stack: the parallel binary writer must emit the same
// bytes at workers=1 and workers=8 (the determinism contract — worker
// count never changes output), both must match the sequential writer,
// and the flate archival tier must be equally worker-independent. The
// CSV golden hashes above transitively pin record content; these pin the
// binary/archival framing on real generated streams.
func TestRecordStreamGoldenCodecs(t *testing.T) {
	g := golden.Home1FourShard
	cfg, seed, nshards := Home1(g.Scale), g.Seed, g.Shards

	var seq bytes.Buffer
	sw := traces.NewBinaryWriter(&seq)
	binaryStreamBytes(t, cfg, seed, nshards, sw)

	for _, workers := range []int{1, 8} {
		var par bytes.Buffer
		pw := traces.NewParallelBinaryWriter(&par, workers)
		binaryStreamBytes(t, cfg, seed, nshards, pw)
		if !bytes.Equal(par.Bytes(), seq.Bytes()) {
			t.Fatalf("parallel binary (workers=%d) differs from sequential writer", workers)
		}
	}

	var flate1 bytes.Buffer
	fw1 := traces.NewFlateWriter(&flate1, 1)
	binaryStreamBytes(t, cfg, seed, nshards, fw1)
	var flate8 bytes.Buffer
	fw8 := traces.NewFlateWriter(&flate8, 8)
	binaryStreamBytes(t, cfg, seed, nshards, fw8)
	if !bytes.Equal(flate1.Bytes(), flate8.Bytes()) {
		t.Fatal("flate stream differs between workers=1 and workers=8")
	}

	// The archival tier re-streams to the identical record sequence: CSV
	// re-serialization of the decoded records reproduces the golden hash.
	fr := traces.NewFlateReader(bytes.NewReader(flate1.Bytes()))
	h := fnv.New64a()
	cw := traces.NewWriter(h)
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Sum64(), g.Hash; !golden.Match(got, want) {
		t.Fatalf("flate round-trip CSV hash = %#x, want %#x", got, want)
	}
}
