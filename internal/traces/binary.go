package traces

// Binary columnar trace codec.
//
// The CSV format mirrors the paper's public release and stays the
// compatibility path; this file adds the performance path: a block-columnar
// binary encoding that is ~3.5x smaller on the wire (out_bytes_per_unit of
// the export-binary workload against read-csv's, see PERFORMANCE.md) and
// allocation-free on the write side once its per-block scratch buffers are
// warm (the property TestBinaryWriteAllocationFree pins).
//
// # Wire format
//
// A stream is a fixed header followed by zero or more length-prefixed
// blocks; the stream ends at EOF on a block boundary (no trailer):
//
//	header := magic "IDBT1\n" | flags byte (bit 0: client column anonymized)
//	block  := uvarint bodyLen | body
//	body   := uvarint n (records in block, n >= 1) | columns
//
// Columns appear in a fixed order, each run-length n. Integer columns use
// varints (unsigned fields: uvarint; signed fields: zigzag varint, written
// with encoding/binary AppendVarint). Time columns are delta-encoded:
// FirstPacket against the previous record's FirstPacket (records arrive
// roughly time-ordered, so deltas stay small), LastPacket against the
// same record's FirstPacket, and LastPayloadUp / LastPayloadDown against
// the same record's LastPacket (payload usually ends within an RTT of the
// close, so these deltas are tiny). MinRTT is stored in nanoseconds — the
// binary codec round-trips records exactly, unlike the CSV columns'
// microsecond truncation.
//
// String columns (VP, SNI, CertName, FQDN) are dictionary-encoded per
// block: a dictionary of distinct values in first-appearance order, then
// one index per record. Generated traces draw these from small interned
// sets (~520 storage SNIs, 20 notify FQDNs), so a block's dictionary is a
// few hundred bytes amortized over thousands of records. The client and
// server address columns are dictionary-encoded the same way over numeric
// values — a population block revisits the same households and the same
// ~670 service addresses over and over:
//
//	dictcol  := uvarint d | d x (uvarint len | bytes) | n x uvarint index
//	dictu64  := uvarint d | d x uvarint value         | n x uvarint index
//
// The NotifyNamespaces column stores n uvarint counts followed by the
// concatenated uvarint namespace IDs. Boolean flags pack into one byte per
// record (bit 0 SawSYN, 1 SawFIN, 2 SawRST, 3 ServerClosed).
//
// The client column's dictionary holds raw uint32 addresses, or — when
// the header's anonymize flag is set — the same stable 48-bit FNV tokens
// the CSV format prints as "h%012x". Readers of anonymized streams return
// Client == 0, matching the CSV reader's behaviour on anonymized rows.
//
// The block codec lives in block.go and the stream mechanics in the
// shared core (codec.go); this file holds only the raw binary framing:
// the magic, the length-prefixed frame, and slicing one back. The flate
// tier (flate.go) frames the same block bodies differently.
//
// # Ownership
//
// BinaryWriter.Write copies everything it needs out of the record before
// returning: callers may recycle the *FlowRecord (and its
// NotifyNamespaces backing array) immediately, which is what the fleet
// engine's record pool does. BinaryReader.Read returns freshly
// allocated records that do not alias reader state.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMagic opens every binary trace stream.
var binaryMagic = [6]byte{'I', 'D', 'B', 'T', '1', '\n'}

// BinaryWriter streams flow records in the binary columnar format.
// Methods must not be called concurrently. Records are buffered into
// blocks of DefaultBlockRecords and hit the underlying writer on block
// boundaries and Flush; the stream stays appendable after a Flush. The
// settable Anonymize field, Write, WriteFrom and Flush come from the
// shared core.
type BinaryWriter struct{ blockWriter }

// NewBinaryWriter wraps w with a writer that encodes every block on the
// caller's goroutine — no goroutines, and allocation-free once its block
// scratch is warm (TestBinaryWriteAllocationFree pins it).
func NewBinaryWriter(w io.Writer) *BinaryWriter { return NewParallelBinaryWriter(w, 1) }

// NewParallelBinaryWriter wraps w with a writer that encodes up to workers
// blocks at once on goroutines of their own while preserving the exact
// output bytes of NewBinaryWriter; workers <= 1 is NewBinaryWriter.
func NewParallelBinaryWriter(w io.Writer, workers int) *BinaryWriter {
	onFrame := countBinaryFrame
	if workers > 1 {
		onFrame = func(acc *blockAccum, frame []byte) {
			countBinaryFrame(acc, frame)
			mParBlocks.Inc()
		}
	}
	bw := &BinaryWriter{}
	bw.init(w, binaryMagic, workers, finishBinaryFrame, onFrame)
	return bw
}

// finishBinaryFrame encodes one accum as a length-prefixed binary block.
func finishBinaryFrame(_ *encScratch, acc *blockAccum) []byte {
	// Reserve prefix room up front, encode the body after it, then write
	// the length just before the body start, so the frame is one slice.
	const pfxReserve = binary.MaxVarintLen64
	if cap(acc.buf) < pfxReserve {
		acc.buf = make([]byte, pfxReserve)
	}
	body := acc.encodeBody(acc.buf[:pfxReserve])
	acc.buf = body // keep the grown scratch with the accum
	var pfx [binary.MaxVarintLen64]byte
	np := binary.PutUvarint(pfx[:], uint64(len(body)-pfxReserve))
	start := pfxReserve - np
	copy(body[start:], pfx[:np])
	return body[start:]
}

// countBinaryFrame publishes one written block's telemetry.
func countBinaryFrame(acc *blockAccum, frame []byte) {
	mBinBlocks.Inc()
	mBinRecords.Add(uint64(acc.n))
	mBinBytes.Add(uint64(len(frame)))
}

// readExact reads exactly n bytes from r, reusing scratch when it is
// large enough and otherwise growing the buffer incrementally while the
// bytes actually arrive — so a corrupt multi-GB length prefix costs a
// read error, not a multi-GB up-front allocation (the fuzz targets hit
// exactly that). The returned slice aliases scratch when possible.
func readExact(r io.Reader, scratch []byte, n int) ([]byte, error) {
	if cap(scratch) >= n {
		b := scratch[:n]
		_, err := io.ReadFull(r, b)
		return b, err
	}
	const chunk = 1 << 20
	b := scratch[:0]
	for len(b) < n {
		take := min(n-len(b), chunk)
		off := len(b)
		b = append(b, make([]byte, take)...)
		if _, err := io.ReadFull(r, b[off:off+take]); err != nil {
			return b, err
		}
	}
	return b, nil
}

// BinaryReader parses a binary columnar trace stream back into records;
// Read, ReadBlock and Anonymized come from the shared core.
type BinaryReader struct {
	blockReader
	body []byte // the block scratch WriteFrom slices into
}

// NewBinaryReader wraps r. Blocks decode on up to GOMAXPROCS goroutines
// once read-ahead starts; the records are those of a sequential read.
func NewBinaryReader(r io.Reader) *BinaryReader {
	br := &BinaryReader{}
	br.init(r, binaryMagic, br.sliceBlock, func(s *frameSlot) ([]byte, error) { return s.payload, nil })
	return br
}

// sliceBlock reads the next length-prefixed block body into s; the stream
// ends at EOF on a block boundary.
func (r *BinaryReader) sliceBlock(s *frameSlot) error {
	bodyLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("traces: reading block length: %w", err)
	}
	if bodyLen == 0 || bodyLen > 1<<31 {
		return fmt.Errorf("traces: implausible block length %d", bodyLen)
	}
	s.payload, err = readExact(r.br, s.payload, int(bodyLen))
	if err != nil {
		return fmt.Errorf("traces: reading block body: %w", err)
	}
	s.rawLen = int(bodyLen)
	return nil
}
