// Package chunker implements the Dropbox data model of Sec. 2.1: files are
// split into chunks of at most 4 MB, each chunk identified by its SHA-256
// hash, and chunks are compressed before transmission.
//
// Two representations coexist:
//
//   - Real content ([]byte) is split and hashed exactly — used by the
//     testbed, the delta encoder and the data-plane tests.
//   - SyntheticFile describes population-scale content by (seed, size):
//     chunk hashes are derived deterministically from the seed so that two
//     synthetic files with the same seed deduplicate against each other just
//     as identical real files would, without materializing gigabytes.
package chunker

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
)

// MaxChunkSize is the Dropbox chunk limit: 4 MB.
const MaxChunkSize = 4 << 20

// Hash is a SHA-256 chunk identifier.
type Hash [sha256.Size]byte

// Short returns the first 8 hex digits, for logs.
func (h Hash) Short() string {
	const hex = "0123456789abcdef"
	out := make([]byte, 8)
	for i := 0; i < 4; i++ {
		out[2*i] = hex[h[i]>>4]
		out[2*i+1] = hex[h[i]&0xf]
	}
	return string(out)
}

// Ref describes one chunk without its content.
type Ref struct {
	Hash Hash
	Size int
}

// Chunk is a content-carrying chunk.
type Chunk struct {
	Ref
	Data []byte
}

// HashBytes returns the chunk id of data.
func HashBytes(data []byte) Hash { return sha256.Sum256(data) }

// Split divides real content into chunks of at most MaxChunkSize.
func Split(data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	out := make([]Chunk, 0, (len(data)+MaxChunkSize-1)/MaxChunkSize)
	for off := 0; off < len(data); off += MaxChunkSize {
		end := off + MaxChunkSize
		if end > len(data) {
			end = len(data)
		}
		c := data[off:end]
		out = append(out, Chunk{Ref: Ref{Hash: HashBytes(c), Size: len(c)}, Data: c})
	}
	return out
}

// Join reassembles chunks into the original content.
func Join(chunks []Chunk) []byte {
	total := 0
	for _, c := range chunks {
		total += len(c.Data)
	}
	out := make([]byte, 0, total)
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

// SyntheticFile stands for file content at population scale. Seed selects
// the content identity: equal (Seed, Size) means byte-identical content.
// CompressRatio in (0,1] scales chunk sizes to their on-the-wire compressed
// size, standing in for running DEFLATE over content we never materialize.
type SyntheticFile struct {
	Seed          uint64
	Size          int64
	CompressRatio float64
}

// Refs returns the chunk references of the synthetic file at the standard
// 4 MB chunk limit. Hashes derive from (seed, index, chunk size) so
// identical files collide chunk-wise and different files essentially never
// do.
func (f SyntheticFile) Refs() []Ref { return f.RefsLimit(MaxChunkSize) }

// RefsLimit chunks the synthetic file at a custom chunk size limit — the
// hook capability profiles use to explore chunk sizes the real client never
// shipped. limit <= 0 falls back to MaxChunkSize. The hash derivation is
// identical to Refs, so equal (seed, index, size) triples deduplicate
// across limits just as equal content would.
func (f SyntheticFile) RefsLimit(limit int) []Ref {
	if f.Size <= 0 {
		return nil
	}
	if limit <= 0 {
		limit = MaxChunkSize
	}
	n := int((f.Size + int64(limit) - 1) / int64(limit))
	out := make([]Ref, n)
	var buf [25]byte
	copy(buf[16:], "synth")
	for i := 0; i < n; i++ {
		size := limit
		if i == n-1 {
			if rem := int(f.Size % int64(limit)); rem != 0 {
				size = rem
			}
		}
		binary.BigEndian.PutUint64(buf[0:8], f.Seed)
		// Index in the high word, size in the low: the fields must not
		// overlap, or distinct full-size chunks of one file collide (a
		// 4 MB size sets bit 22, which an i<<20 encoding also used —
		// chunks 0 and 4 of a 24 MB file used to share a hash).
		binary.BigEndian.PutUint64(buf[8:16], uint64(i)<<32|uint64(size))
		out[i] = Ref{Hash: sha256.Sum256(buf[:]), Size: size}
	}
	return out
}

// ChunkSpanLimit returns the chunk layout of a file of the given byte size
// at a chunk size limit without materializing refs or hashes: n chunks, of
// which the first n-1 are exactly limit bytes and the last is last bytes.
// This is the flow-level fast path's view of RefsLimit — chunk sizes only,
// no SHA-256 — and it matches RefsLimit chunk for chunk (pinned by
// TestChunkSpanMatchesRefsLimit). limit <= 0 falls back to MaxChunkSize.
func ChunkSpanLimit(size int64, limit int) (n, last int) {
	if size <= 0 {
		return 0, 0
	}
	if limit <= 0 {
		limit = MaxChunkSize
	}
	n = int((size + int64(limit) - 1) / int64(limit))
	last = limit
	if rem := int(size % int64(limit)); rem != 0 {
		last = rem
	}
	return n, last
}

// WireSize returns the compressed transfer size of a chunk of the file.
func (f SyntheticFile) WireSize(chunkSize int) int {
	r := f.CompressRatio
	if r <= 0 || r > 1 {
		r = 1
	}
	w := int(float64(chunkSize) * r)
	if w < 1 {
		w = 1
	}
	return w
}

// splitmix64 scrambles the seed so that nearby seeds yield unrelated
// streams (a plain seed|1 init made seeds 6 and 7 generate identical
// content).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // xorshift must not start at zero
	}
	return x
}

// Generate materializes deterministic pseudo-random content for the
// synthetic file (small files only; used by the testbed). The content is a
// xorshift stream seeded by Seed, so Generate is consistent with Refs only
// in identity (same seed = same bytes), which is all dedup needs.
func (f SyntheticFile) Generate() []byte {
	out := make([]byte, f.Size)
	state := splitmix64(f.Seed)
	for i := range out {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out[i] = byte(state)
	}
	return out
}

// Reader returns the synthetic content as a stream without allocating the
// whole file (for io-oriented callers).
func (f SyntheticFile) Reader() io.Reader {
	return &synthReader{state: splitmix64(f.Seed), remain: f.Size}
}

type synthReader struct {
	state  uint64
	remain int64
}

func (r *synthReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	n := len(p)
	if int64(n) > r.remain {
		n = int(r.remain)
	}
	for i := 0; i < n; i++ {
		r.state ^= r.state << 13
		r.state ^= r.state >> 7
		r.state ^= r.state << 17
		p[i] = byte(r.state)
	}
	r.remain -= int64(n)
	return n, nil
}
