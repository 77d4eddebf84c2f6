package traces

// The block codec core: one writer and one reader shared by every
// block-framed serialization. A framing (binary.go, flate.go) supplies
// only what genuinely differs — its 6-byte magic, a frame finisher that
// turns a filled blockAccum into frame bytes, and on the read side a
// function producing the next block body. The stream header, record
// accumulation, cutting blocks at BlockRecords, in-order frame delivery,
// the partial block on Flush and the hand-out loop of Read exist once,
// here — as does WriteFrom, the block-to-block copy out of a binary
// stream that re-blocks columns instead of records.
//
// The writer encodes where its worker count says: at workers <= 1 every
// frame is finished and written on the caller's goroutine and the writer
// owns no goroutines at all; above that, filled blocks go to the ordered
// blockPool (parallel.go). Block boundaries depend only on the record
// sequence and a frame's bytes only on its block, so the stream is
// byte-identical for every worker count (TestCodecMatrix pins it).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// DefaultBlockRecords is the records-per-block target of the block
// writers: large enough to amortize dictionaries and length prefixes,
// small enough that readers never hold more than a few MB per block.
const DefaultBlockRecords = 4096

// streamHeaderLen is the fixed header size: 6-byte magic + flags byte.
const streamHeaderLen = 7

const anonFlag = 1 << 0

// blockWriter is the writer core the framings embed. Methods must not be
// called concurrently — any parallelism is internal.
type blockWriter struct {
	// Anonymize replaces client addresses with the stable 48-bit tokens of
	// the CSV format. It must be set before the first Write.
	Anonymize bool
	// BlockRecords overrides the records-per-block target (0 means
	// DefaultBlockRecords). It must be set before the first Write.
	BlockRecords int

	w     io.Writer
	magic [6]byte
	// finish encodes one filled accum as a frame; the bytes are owned by
	// the accum and stay valid until it is reset. onFrame runs after each
	// successful frame write, in stream order — telemetry and index
	// builders hang off it. With a pool both run on its goroutines.
	finish  func(*encScratch, *blockAccum) []byte
	onFrame func(*blockAccum, []byte)
	pool    *blockPool // nil: frames are finished and written inline

	started bool
	err     error
	cur     *blockAccum // block under construction; nil between blocks
	acc     blockAccum  // the inline path's only accumulator
	st      encScratch  // the inline path's finisher scratch

	// WriteFrom's source block, with the dictionary remap tables, and the
	// names its dictionaries are interned in: one allocation per name per
	// writer, not per source stream.
	src   blockAccum
	names internTable
}

// errAnonymizedSource reports a WriteFrom whose source cannot be copied.
var errAnonymizedSource = errors.New("traces: WriteFrom needs a full-fidelity source: an anonymized stream's client tokens cannot be turned back into addresses")

// newBlockWriter builds the core for one framing. workers <= 1 encodes
// inline on the caller's goroutine.
func newBlockWriter(w io.Writer, magic [6]byte, workers int,
	finish func(*encScratch, *blockAccum) []byte,
	onFrame func(*blockAccum, []byte)) blockWriter {

	bw := blockWriter{w: w, magic: magic, finish: finish, onFrame: onFrame}
	if workers > 1 {
		bw.pool = newBlockPool(w, workers, finish, onFrame)
	}
	return bw
}

func (w *blockWriter) blockTarget() int {
	if w.BlockRecords > 0 {
		return w.BlockRecords
	}
	return DefaultBlockRecords
}

// start emits the stream header once.
func (w *blockWriter) start() error {
	if w.started || w.err != nil {
		return w.err
	}
	var hdr [streamHeaderLen]byte
	copy(hdr[:], w.magic[:])
	if w.Anonymize {
		hdr[6] |= anonFlag
	}
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	w.started = true
	return nil
}

// begin opens the next block: the header on first use, then an
// accumulator — the writer's own when encoding inline, otherwise one from
// the pool (restarting it after a Flush), which blocks only when every
// in-flight block is still being encoded. A write error on the pool's
// merger surfaces here, at the next block boundary.
func (w *blockWriter) begin() error {
	if err := w.start(); err != nil {
		return err
	}
	if w.pool == nil {
		w.cur = &w.acc
		return nil
	}
	if err := w.pool.loadErr(); err != nil {
		return err // not latched: Flush must still reach the drain
	}
	w.pool.start()
	w.cur = w.pool.getAccum()
	return nil
}

// Write buffers one record; nothing in r is retained after return.
func (w *blockWriter) Write(r *FlowRecord) error {
	if w.cur == nil {
		if err := w.begin(); err != nil {
			return err
		}
	}
	w.cur.add(r, w.Anonymize)
	if w.cur.n >= w.blockTarget() {
		return w.cut()
	}
	return nil
}

// WriteFrom writes every record left in r, an un-anonymized binary stream,
// and returns how many it wrote. The bytes are those of Writing each
// record r would decode, blocks cut where Write cuts them, but no record
// is built: each source block is decoded column-wise into the writer's
// scratch and appended in ranges onto the block grid, every dictionary
// entry remapped (and anonymized) once per range rather than per record.
// Records a Read already decoded go through Write. r's end of stream, or
// its read error, stays latched in r as after a Read.
func (w *blockWriter) WriteFrom(r *BinaryReader) (int, error) {
	if r.err == nil {
		r.err = r.ensureHeader()
	}
	if r.err == io.EOF {
		return 0, nil
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.anon {
		return 0, errAnonymizedSource
	}
	n := 0
	for ; r.next < len(r.recs); r.next++ {
		if err := w.Write(r.recs[r.next]); err != nil {
			return n, err
		}
		n++
	}
	for {
		body, err := r.nextBody()
		if err == nil {
			err = w.src.decodeBody(body, &w.names)
		}
		if err != nil {
			r.err = err
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		for lo := 0; lo < w.src.n; {
			if w.cur == nil {
				if err := w.begin(); err != nil {
					return n, err
				}
			}
			hi := min(w.src.n, lo+w.blockTarget()-w.cur.n)
			w.cur.appendRange(&w.src, lo, hi, w.Anonymize)
			n += hi - lo
			lo = hi
			if w.cur.n >= w.blockTarget() {
				if err := w.cut(); err != nil {
					return n, err
				}
			}
		}
	}
}

// cut turns the block under construction into a frame: submitted to the
// pool, or finished and written here — one Write per frame, so an
// unbuffered underlying writer sees one syscall per block.
func (w *blockWriter) cut() error {
	acc := w.cur
	if w.pool != nil {
		w.cur = nil
		w.pool.submit(acc)
		return nil
	}
	frame := w.finish(&w.st, acc)
	if _, err := w.w.Write(frame); err != nil {
		w.err, w.cur = err, nil // the next Write reports it from begin
		return err
	}
	w.onFrame(acc, frame)
	acc.reset()
	return nil
}

// Flush writes the partially filled block — and the stream header, so a
// zero-record export is a valid (empty) stream, not an empty file — then
// waits until every submitted block has been encoded and written and
// stops the pool: a flushed writer owns no goroutines. A flushed partial
// block is simply a smaller block, so the core stays appendable; framings
// with a trailer make their own Flush terminal.
func (w *blockWriter) Flush() error {
	if err := w.start(); err != nil {
		return err
	}
	if w.cur != nil && w.cur.n > 0 {
		if err := w.cut(); err != nil {
			return err
		}
	}
	if w.pool != nil {
		if err := w.pool.drain(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// blockReader is the reader core the framings embed: it validates the
// stream header, then hands out the records of one decoded block at a
// time — singly (Read) or all that are left (ReadBlock) — asking the
// framing for the next block body when they run out.
type blockReader struct {
	br    *bufio.Reader
	magic [6]byte
	// nextBody returns the next block body (it may alias framing scratch:
	// the core decodes it before asking again), or io.EOF at a clean end
	// of stream.
	nextBody func() ([]byte, error)

	header bool
	anon   bool
	err    error

	recs []*FlowRecord // decoded records of the current block
	next int
	skip int // records to discard after a seek landed mid-block

	sc blockDecScratch // decode scratch; ReadBlock's records live here
}

// Anonymized reports whether the stream's client column is anonymized
// (meaningful once the header has been read: after the first Read).
func (r *blockReader) Anonymized() bool { return r.anon }

// ensureHeader consumes and validates the stream header once.
func (r *blockReader) ensureHeader() error {
	if r.header {
		return nil
	}
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("traces: reading %q stream header: %w", r.magic[:5], err)
	}
	if [6]byte(hdr[:6]) != r.magic {
		return fmt.Errorf("traces: not an %q trace stream (bad magic)", r.magic[:5])
	}
	r.anon = hdr[6]&anonFlag != 0
	r.header = true
	return nil
}

// fill makes sure the current block has a record left to hand out,
// decoding the next block (and the ones a pending seek skips whole) when
// it has none: into fresh records, or with reuse into the scratch's own.
func (r *blockReader) fill(reuse bool) error {
	if r.err != nil {
		return r.err
	}
	if err := r.ensureHeader(); err != nil {
		r.err = err
		return err
	}
	for r.next >= len(r.recs) {
		body, err := r.nextBody()
		var recs []*FlowRecord
		if err == nil {
			r.sc.reuse = reuse
			recs, err = decodeBlockBody(body, r.anon, &r.sc)
		}
		if err != nil {
			r.err = err
			return err
		}
		n := min(r.skip, len(recs))
		r.recs, r.next = recs, n
		r.skip -= n
	}
	return nil
}

// Read returns the next record, or io.EOF at end of stream. Returned
// records are freshly allocated and do not alias reader state.
func (r *blockReader) Read() (*FlowRecord, error) {
	if err := r.fill(false); err != nil {
		return nil, err
	}
	rec := r.recs[r.next]
	r.recs[r.next] = nil
	r.next++
	return rec, nil
}

// ReadBlock returns every record left in the current block — at least
// one; all of the next block when Read has not started it; from the
// target on after a SeekToRecord — or io.EOF at end of stream. The slice
// and its records are the reader's: they are valid, and must not be
// written to, until the next Read, ReadBlock or SeekToRecord, and a
// stream read this way costs no allocation per record. Read and ReadBlock
// interleave freely; what Read returns stays freshly allocated.
func (r *blockReader) ReadBlock() ([]*FlowRecord, error) {
	if err := r.fill(true); err != nil {
		return nil, err
	}
	recs := r.recs[r.next:]
	r.recs, r.next = nil, 0
	return recs, nil
}
