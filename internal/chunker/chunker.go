// Package chunker implements the Dropbox data model of Sec. 2.1: files are
// split into chunks of at most 4 MB, each chunk identified by its SHA-256
// hash.
//
// SyntheticFile describes population-scale content by (seed, size): chunk
// hashes are derived deterministically from the seed so that two synthetic
// files with the same seed deduplicate against each other just as
// identical real files would, without materializing gigabytes.
package chunker

import (
	"crypto/sha256"
	"encoding/binary"
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

// SyntheticFile stands for file content at population scale. Seed selects
// the content identity: equal (Seed, Size) means byte-identical content.
type SyntheticFile struct {
	Seed uint64
	Size int64
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
