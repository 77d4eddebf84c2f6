package traces

// Seekable compressed archival framing.
//
// The binary columnar format (binary.go) is the performance path; this
// file adds the archival tier on top of it: the same block bodies,
// individually DEFLATE-compressed (stdlib compress/flate — the repo's
// zero-dependency rule rules out zstd) and framed so that a reader can
// seek to any record without decompressing the stream before it.
//
// # Wire format
//
//	header := magic "IDBF1\n" | flags byte (bit 0: client column anonymized)
//	frame  := uvarint rawLen (> 0) | uvarint compLen | compLen bytes
//	end    := uvarint 0 (frame sentinel, one zero byte)
//	index  := uvarint frameCount | frameCount x (uvarint records | uvarint frameLen)
//	footer := uint64 LE indexLen | 8-byte magic "IDBFIDX1"
//
// Each frame's payload is one complete DEFLATE stream whose decompressed
// bytes are exactly one block body (the `body` production of binary.go,
// rawLen bytes) — frames are independently decompressible, which is what
// makes seeking possible. frameLen in the index is the frame's total
// length including its two uvarint headers, so cumulative sums give every
// frame's byte offset; records is the frame's record count, so cumulative
// sums give every frame's first record ordinal. The footer is fixed-size
// and lands at EOF: a seekable reader reads the last 16 bytes, walks back
// indexLen bytes to the index, and can then position itself on the frame
// containing any record ordinal. Sequential readers ignore the index (the
// zero sentinel tells them the frames are over) and stream like the
// binary reader does.
//
// Shard ranges reduce to record ranges: the per-shard record counts in a
// run manifest (dropsim -manifest) prefix-sum into each shard's first
// record ordinal, which SeekToRecord accepts directly — PERFORMANCE.md
// documents the workflow.
//
// Writing is terminal: Flush writes the sentinel, index and footer, and
// the stream cannot be appended to afterwards (unlike the raw binary
// format). Everything up to that trailer is the shared writer core
// (codec.go) with a compressing frame finisher, on the same slot ring as
// binary blocks, so the bytes are identical for every worker count. The
// reader adds to the shared core a slice step (the frame prefixes and
// payload), an inflate step that runs beside decodeBody on the frame's
// goroutine, the index-driven seek, and the check of every frame against
// the index: a sequential read holds the trailer's entries to the frames
// it read and wants EOF right after the footer, and a seek holds its
// landing frame to its entry.

import (
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// flateMagic opens every compressed trace stream.
var flateMagic = [6]byte{'I', 'D', 'B', 'F', '1', '\n'}

// flateFooterMagic closes every compressed trace stream.
var flateFooterMagic = [8]byte{'I', 'D', 'B', 'F', 'I', 'D', 'X', '1'}

// flateFooterLen is the fixed footer size: uint64 index length + magic.
const flateFooterLen = 16

// maxFrameRaw caps a frame's decompressed size — a format limit, not a
// tunable — and the declared body bytes a reader's read-ahead holds in
// flight. Default blocks decompress to ≈233 KB (4,096 records of ≈57 B);
// 16MB leaves ~70x headroom while keeping a hostile frame (DEFLATE
// inflates up to ~1000x) from turning a few KB of input into gigabytes of
// decompression work. Writers configured so extreme that a single block
// body exceeds this produce streams the reader rejects.
const maxFrameRaw = 1 << 24

// errFlateFinalized reports a Write after the terminal Flush.
var errFlateFinalized = errors.New("traces: flate stream already finalized (Flush wrote the index)")

// appendSlice adapts a byte slice into an io.Writer for compressors.
type appendSlice []byte

func (s *appendSlice) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// flateFrame is one index entry: the frame's record count and its total
// encoded length (headers included).
type flateFrame struct {
	records  uint64
	frameLen uint64
}

// FlateWriter streams flow records as the compressed archival format.
// Methods must not be called concurrently — any parallelism is internal,
// and byte-identical output is guaranteed for every worker count. Flush
// is terminal: it writes the seek index and footer. The settable
// Anonymize field comes from the shared core.
type FlateWriter struct {
	blockWriter

	index    []flateFrame
	finished bool
}

// NewFlateWriter wraps w; workers > 1 compresses up to that many frames at
// once on goroutines of their own, anything less on the caller's.
func NewFlateWriter(w io.Writer, workers int) *FlateWriter {
	fw := &FlateWriter{}
	fw.init(w, flateMagic, workers, finishFlateFrame, fw.noteFrame)
	return fw
}

// finishFlateFrame encodes one accum's block body and compresses it into a
// framed payload, on the frame's goroutine when the ring has more than one
// slot; all scratch is owned by the accum (frame bytes) or st (the flate
// compressor).
func finishFlateFrame(st *encScratch, acc *blockAccum) []byte {
	raw := acc.encodeBody(acc.buf[:0])
	acc.buf = raw

	const reserve = 2 * binary.MaxVarintLen64
	if cap(acc.out) < reserve {
		acc.out = make([]byte, reserve)
	}
	acc.out = acc.out[:reserve]
	sink := (*appendSlice)(&acc.out)
	if st.fw == nil {
		st.fw, _ = flate.NewWriter(sink, flate.DefaultCompression) // errs only on an invalid level
	} else {
		st.fw.Reset(sink)
	}
	st.fw.Write(raw) // appendSlice never errors
	st.fw.Close()

	frame := acc.out
	compLen := len(frame) - reserve
	// Right-align the two uvarint headers immediately before the payload.
	var hdr [reserve]byte
	n1 := binary.PutUvarint(hdr[:], uint64(len(raw)))
	n2 := binary.PutUvarint(hdr[n1:], uint64(compLen))
	start := reserve - n1 - n2
	copy(frame[start:], hdr[:n1+n2])
	return frame[start:]
}

// noteFrame records one written frame's index entry and telemetry, on the
// caller's goroutine in stream order.
func (w *FlateWriter) noteFrame(acc *blockAccum, frame []byte) {
	w.index = append(w.index, flateFrame{records: uint64(acc.n), frameLen: uint64(len(frame))})
	rawLen, _ := binary.Uvarint(frame)
	mFlateFrames.Inc()
	mFlateRecords.Add(uint64(acc.n))
	mFlateRawBytes.Add(rawLen)
	mFlateBytes.Add(uint64(len(frame)))
}

// Write buffers one record; nothing in r is retained after return. After
// the terminal Flush it fails with an error.
func (w *FlateWriter) Write(r *FlowRecord) error {
	if w.finished {
		return errFlateFinalized
	}
	return w.blockWriter.Write(r)
}

// WriteFrom is the core's WriteFrom behind the same gate as Write.
func (w *FlateWriter) WriteFrom(r *BinaryReader) (int, error) {
	if w.finished {
		return 0, errFlateFinalized
	}
	return w.blockWriter.WriteFrom(r)
}

// Flush finalizes the stream: the core writes any partial frame and
// every frame in flight, then the sentinel, index and footer land after the
// last frame. A zero-record Flush writes a valid empty stream (header,
// sentinel, empty index, footer). Further Writes fail with an error;
// Flush itself is idempotent.
func (w *FlateWriter) Flush() error {
	if w.finished {
		return w.err
	}
	w.finished = true
	if err := w.blockWriter.Flush(); err != nil {
		return err
	}
	trailer := []byte{0} // frame sentinel
	idx := binary.AppendUvarint(nil, uint64(len(w.index)))
	for _, f := range w.index {
		idx = binary.AppendUvarint(idx, f.records)
		idx = binary.AppendUvarint(idx, f.frameLen)
	}
	trailer = append(trailer, idx...)
	var footer [flateFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(len(idx)))
	copy(footer[8:], flateFooterMagic[:])
	trailer = append(trailer, footer[:]...)
	_, w.err = w.w.Write(trailer)
	return w.err
}

// FlateReader parses a compressed archival trace stream back into
// records; Read, ReadBlock and Anonymized come from the shared core.
// Wrapping an io.ReadSeeker additionally enables SeekToRecord: the reader
// loads the trailing index and repositions onto the frame containing any
// record ordinal, so a partial range costs only its own frames'
// decompression.
type FlateReader struct {
	blockReader
	rs io.ReadSeeker // non-nil when the source supports seeking

	got     []flateFrame // frames taken since the start or the last seek, from frame base on
	base    int
	trailer []flateFrame // the index the stream ends with, which must list got exactly

	// Seek index, loaded lazily by the first SeekToRecord/NumRecords.
	index      []flateFrame
	frameOff   []int64 // byte offset of each frame
	cumRecords []int64 // first record ordinal of each frame
	total      int64   // total records per the index
}

// NewFlateReader wraps r. If r is an io.ReadSeeker the reader supports
// SeekToRecord; otherwise it streams sequentially. Frames inflate and
// decode on up to GOMAXPROCS goroutines once read-ahead starts; the
// records are those of a sequential read.
func NewFlateReader(r io.Reader) *FlateReader {
	fr := &FlateReader{}
	fr.init(r, flateMagic, fr.sliceFrame, inflateFrame)
	fr.check = fr.checkFrame
	fr.rs, _ = r.(io.ReadSeeker)
	return fr
}

// sliceFrame reads the next frame's compressed payload into s, or returns
// io.EOF after validating the trailer when the sentinel is hit.
func (r *FlateReader) sliceFrame(s *frameSlot) error {
	rawLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("traces: flate stream truncated (missing trailer): %w", io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("traces: reading frame length: %w", err)
	}
	if rawLen == 0 {
		// Frame sentinel: index and footer follow, then EOF.
		return r.validateTrailer()
	}
	if rawLen > maxFrameRaw {
		return fmt.Errorf("traces: implausible frame raw length %d", rawLen)
	}
	compLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("traces: reading frame compressed length: %w", err)
	}
	if compLen == 0 || compLen > 1<<31 {
		return fmt.Errorf("traces: implausible frame compressed length %d", compLen)
	}
	s.payload, err = readExact(r.br, s.payload, int(compLen))
	if err != nil {
		return fmt.Errorf("traces: reading frame payload: %w", err)
	}
	var pfx [binary.MaxVarintLen64]byte
	s.rawLen = int(rawLen)
	s.frameLen = binary.PutUvarint(pfx[:], rawLen) + binary.PutUvarint(pfx[:], compLen) + int(compLen)
	return nil
}

// inflateFrame decompresses a sliced frame into its block body.
func inflateFrame(s *frameSlot) ([]byte, error) {
	s.src.Reset(s.payload)
	if s.fr == nil {
		s.fr = flate.NewReader(&s.src)
	} else if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return nil, fmt.Errorf("traces: resetting flate decompressor: %w", err)
	}
	// The raw buffer grows only as the decompressor actually produces
	// bytes, so a corrupt rawLen cannot force a huge allocation either.
	raw, err := readExact(s.fr, s.raw, s.rawLen)
	s.raw = raw
	if err != nil {
		return nil, fmt.Errorf("traces: decompressing frame: %w", err)
	}
	// The payload must decompress to exactly rawLen bytes.
	var one [1]byte
	if n, err := s.fr.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		return nil, errors.New("traces: frame decompresses past its declared raw length")
	}
	return raw, nil
}

// checkFrame holds every frame taken to its index entry: at once when the
// index is loaded (a seek's landing frame included), and all of them
// against the trailer the stream ends with.
func (r *FlateReader) checkFrame(s *frameSlot) error {
	index, from := r.index, len(r.got)
	switch {
	case s.err == io.EOF:
		index, from = r.trailer, 0
		if len(index) != r.base+len(r.got) {
			return fmt.Errorf("traces: corrupt flate index (%d frames listed, %d read)", len(index), r.base+len(r.got))
		}
	case s.err != nil:
		return s.err
	default:
		r.got = append(r.got, flateFrame{records: uint64(s.cols.n), frameLen: uint64(s.frameLen)})
	}
	for i, f := range r.got[from:] {
		if j := r.base + from + i; index != nil && (j >= len(index) || index[j] != f) {
			return fmt.Errorf("traces: corrupt flate index (frame %d holds %d records in %d bytes, not what its entry lists)", j, f.records, f.frameLen)
		}
	}
	return s.err
}

// validateTrailer reads the index and footer after the sentinel, keeping
// the index for checkFrame, and returns io.EOF if they are well formed
// and the stream ends with the footer.
func (r *FlateReader) validateTrailer() error {
	count, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("traces: reading index count: %w", err)
	}
	if count > 1<<40 {
		return fmt.Errorf("traces: implausible index frame count %d", count)
	}
	r.trailer = nil // the loaded index may be the last one read
	for i := uint64(0); i < count; i++ {
		var f flateFrame
		if f.records, err = binary.ReadUvarint(r.br); err == nil {
			f.frameLen, err = binary.ReadUvarint(r.br)
		}
		if err != nil {
			return fmt.Errorf("traces: reading index entry %d: %w", i, err)
		}
		r.trailer = append(r.trailer, f)
	}
	var footer [flateFooterLen]byte
	if _, err := io.ReadFull(r.br, footer[:]); err != nil {
		return fmt.Errorf("traces: reading footer: %w", err)
	}
	if [8]byte(footer[8:]) != flateFooterMagic {
		return errors.New("traces: corrupt flate stream (bad footer magic)")
	}
	if _, err := r.br.ReadByte(); err == nil {
		return errors.New("traces: corrupt flate stream (bytes after the footer)")
	} else if err != io.EOF {
		return fmt.Errorf("traces: reading past the footer: %w", err)
	}
	return io.EOF
}

// loadIndex parses the footer and index from the end of the stream with
// the sequential reader's trailer parse, and derives every frame's offset
// and first record ordinal. It then restores the logical read position,
// so index lookups never disturb a stream mid-read.
func (r *FlateReader) loadIndex() (err error) {
	if r.index != nil {
		return nil
	}
	if r.rs == nil {
		return errors.New("traces: seeking requires an io.ReadSeeker source")
	}
	pos, err := r.rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	pos -= int64(r.br.Buffered())
	defer func() {
		if _, serr := r.rs.Seek(pos, io.SeekStart); err == nil {
			err = serr
		}
		r.br.Reset(r.rs)
	}()
	size, err := r.rs.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size < streamHeaderLen+1+flateFooterLen {
		return errors.New("traces: flate stream too short to carry an index")
	}
	var footer [flateFooterLen]byte
	if _, err := r.rs.Seek(size-flateFooterLen, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.ReadFull(r.rs, footer[:]); err != nil {
		return fmt.Errorf("traces: reading footer: %w", err)
	}
	idxLen := int64(binary.LittleEndian.Uint64(footer[:8]))
	framesEnd := size - flateFooterLen - idxLen - 1 // the sentinel precedes the index
	if idxLen < 1 || idxLen > size || framesEnd < streamHeaderLen {
		return fmt.Errorf("traces: corrupt flate index (length %d of %d-byte stream)", idxLen, size)
	}
	if _, err := r.rs.Seek(framesEnd+1, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	if err := r.validateTrailer(); err != io.EOF {
		return err
	}
	var frameOff, cumRecords []int64
	off, records := int64(streamHeaderLen), int64(0)
	for i, f := range r.trailer {
		if f.records == 0 || f.frameLen == 0 {
			return errors.New("traces: corrupt flate index (empty frame)")
		}
		frameOff, cumRecords = append(frameOff, off), append(cumRecords, records)
		off += int64(f.frameLen)
		records += int64(f.records)
		if off > framesEnd {
			return fmt.Errorf("traces: corrupt flate index (frame %d offset %d past frame section end %d)", i, off, framesEnd)
		}
	}
	if off != framesEnd {
		return fmt.Errorf("traces: corrupt flate index (frames end at %d, the frame section at %d)", off, framesEnd)
	}
	r.index, r.frameOff, r.cumRecords, r.total = r.trailer, frameOff, cumRecords, records
	return nil
}

// NumRecords returns the stream's total record count from the index
// (requires an io.ReadSeeker source). The read position is preserved:
// it can be called before, during or after sequential reading without
// disturbing the stream.
func (r *FlateReader) NumRecords() (int64, error) {
	if err := r.loadIndex(); err != nil {
		return 0, err
	}
	return r.total, nil
}

// SeekToRecord repositions the reader so the next Read returns record
// ordinal n (0-based, in stream order) and the next ReadBlock starts
// there. Only the frame containing n and later frames are ever
// decompressed. Requires an io.ReadSeeker source. Seeking to the total
// record count positions at EOF; past it is an error.
func (r *FlateReader) SeekToRecord(n int64) error {
	if err := r.loadIndex(); err != nil {
		return err
	}
	if n < 0 || n > r.total {
		return fmt.Errorf("traces: record %d out of range (stream has %d)", n, r.total)
	}
	if !r.header {
		// Validate the header once so anon is known before decoding.
		if _, err := r.rs.Seek(0, io.SeekStart); err != nil {
			return err
		}
		r.br.Reset(r.rs)
		if err := r.ensureHeader(); err != nil {
			return err
		}
	}
	mFlateSeeks.Inc()
	// Binary search: the last frame whose first ordinal is <= n.
	lo, hi := 0, len(r.cumRecords)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if r.cumRecords[mid] <= n {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	target, skip := int64(streamHeaderLen), int64(0)
	if len(r.index) > 0 && n < r.total {
		target, skip = r.frameOff[lo], n-r.cumRecords[lo]
	} else {
		// Empty stream or n == total: position on the sentinel.
		lo = len(r.index)
		if lo > 0 {
			target = r.frameOff[lo-1] + int64(r.index[lo-1].frameLen)
		}
	}
	// Drop the ring and read-ahead with it: what was decoded ahead is
	// discarded, and the seek pass reads one frame at a time.
	mReadAheadDiscarded.Add(uint64(r.started))
	for r.ring.n > 0 {
		r.ring.pop()
	}
	r.started, r.inFlight, r.ended, r.ahead, r.whole = 0, 0, false, false, false
	if _, err := r.rs.Seek(target, io.SeekStart); err != nil {
		return err
	}
	r.br.Reset(r.rs)
	r.recs, r.next, r.skip = nil, 0, int(skip)
	r.got, r.base = r.got[:0], lo
	r.err = nil // a previous io.EOF is cleared by an explicit seek
	return nil
}
