package traces

// The block codec core: one writer and one reader shared by every
// block-framed serialization. A framing (binary.go, flate.go) supplies
// only what genuinely differs — its 6-byte magic, a frame finisher that
// turns a filled blockAccum into frame bytes, and on the read side a
// slice step that reads one frame's bytes off the stream and a body step
// that yields its block body. The stream header, record accumulation,
// cutting blocks at blockRecords, in-order frame delivery, the partial
// block on Flush and the hand-out loop of Read exist once, here — as does
// WriteFrom, the block-to-block copy out of a binary stream that
// re-blocks columns instead of records.
//
// Both directions run their frames through one ordered slot ring
// (ring.go): the writer's has a slot per worker plus the caller's, the
// reader's GOMAXPROCS+1. The stream's bytes, and a reader's records and
// first error, are the same for every worker count (TestCodecMatrix,
// TestReadErrorsInStreamOrder).

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
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
	// blockRecords overrides the records-per-block target (0 means
	// DefaultBlockRecords); tests set it to cut multi-block streams from a
	// few records. It must be set before the first Write.
	blockRecords int

	w     io.Writer
	magic [6]byte
	// onFrame runs on the caller's goroutine after each successful frame
	// write, in stream order — telemetry and index builders hang off it.
	onFrame func(*blockAccum, []byte)
	ring    ring[frameSlot] // frames being finished, oldest first

	started bool
	err     error
	cur     *frameSlot // block under construction; nil between blocks

	// WriteFrom's source frame, with the dictionary remap tables, and the
	// names its dictionaries are interned in: one allocation per name per
	// writer, not per source stream. Its bytes are sliced into the
	// reader's body scratch.
	src   frameSlot
	names internTable
}

// errAnonymizedSource reports a WriteFrom whose source cannot be copied.
var errAnonymizedSource = errors.New("traces: WriteFrom needs a full-fidelity source: an anonymized stream's client tokens cannot be turned back into addresses")

// init readies the core of a framing's writer over w. workers <= 1
// encodes inline on the caller's goroutine. finish encodes one filled
// accum as a frame, on the frame's goroutine; the bytes are owned by the
// accum and stay valid until it is reset.
func (w *blockWriter) init(dst io.Writer, magic [6]byte, workers int,
	finish func(*encScratch, *blockAccum) []byte,
	onFrame func(*blockAccum, []byte)) {

	w.w, w.magic, w.onFrame = dst, magic, onFrame
	w.ring = ring[frameSlot]{size: ringSize(workers), work: func(s *frameSlot) { s.frame = finish(&s.enc, &s.cols) }}
}

func (w *blockWriter) blockTarget() int {
	if w.blockRecords > 0 {
		return w.blockRecords
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

// begin opens the next block: the header on first use, then a slot of
// the ring — writing the oldest frame first when every slot is in flight,
// which blocks (and counts the stall) only when that frame is still
// being finished.
func (w *blockWriter) begin() error {
	if err := w.start(); err != nil {
		return err
	}
	if w.ring.n == w.ring.size && w.retire(true) != nil {
		return w.err
	}
	w.cur = w.ring.claim()
	return nil
}

// retire takes the oldest frame back from the ring and writes it — one
// Write per frame, so an unbuffered underlying writer sees one syscall per
// block. The first write error is latched: later Writes and Flushes
// report it, and frames still in flight finish unwritten.
func (w *blockWriter) retire(countStall bool) error {
	s, stalled := w.ring.pop()
	if stalled && countStall {
		mParStalls.Inc()
	}
	if w.err == nil {
		if _, w.err = w.w.Write(s.frame); w.err == nil {
			w.onFrame(&s.cols, s.frame)
		}
	}
	s.cols.reset()
	return w.err
}

// Write buffers one record; nothing in r is retained after return.
func (w *blockWriter) Write(r *FlowRecord) error {
	if w.cur == nil {
		if err := w.begin(); err != nil {
			return err
		}
	}
	w.cur.cols.add(r, w.Anonymize)
	if w.cur.cols.n >= w.blockTarget() {
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
// Records a Read already decoded go through Write, and frames r already
// read ahead are taken from its ring. r's end of stream, or its read
// error, stays latched in r as after a Read.
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
	r.ahead = false
	for {
		s := &w.src
		if r.ring.n > 0 {
			s = r.take()
		} else {
			s.payload = r.body
			if s.err = r.slice(s); s.err == nil {
				s.err = s.cols.decodeBody(s.payload, &w.names)
			}
			r.body = s.payload
		}
		if s.err != nil {
			r.err = s.err
			if s.err == io.EOF {
				return n, nil
			}
			return n, s.err
		}
		src := &s.cols
		for lo := 0; lo < src.n; {
			if w.cur == nil {
				if err := w.begin(); err != nil {
					return n, err
				}
			}
			hi := min(src.n, lo+w.blockTarget()-w.cur.cols.n)
			w.cur.cols.appendRange(src, lo, hi, w.Anonymize)
			n += hi - lo
			lo = hi
			if w.cur.cols.n >= w.blockTarget() {
				if err := w.cut(); err != nil {
					return n, err
				}
			}
		}
	}
}

// cut hands the block under construction to the ring: finished on a
// goroutine of its own, or here and written at once with one slot.
func (w *blockWriter) cut() error {
	w.cur = nil
	w.ring.start(w.ring.n-1, w.ring.size == 1)
	if w.ring.size == 1 {
		return w.retire(false) // a failed write latches, and the next Write reports it
	}
	return nil
}

// Flush writes the partially filled block — and the stream header, so a
// zero-record export is a valid (empty) stream, not an empty file — then
// waits until every frame has been finished and written: a flushed writer
// owns no goroutines. A flushed partial block is simply a smaller block,
// so the core stays appendable; framings with a trailer make their own
// Flush terminal.
func (w *blockWriter) Flush() error {
	if w.start() == nil && w.cur != nil {
		w.cut()
	}
	for w.ring.n > 0 {
		w.retire(false)
	}
	return w.err
}

// blockReader is the reader core the framings embed: it validates the
// stream header, then hands out the records of one decoded block at a
// time — singly (Read) or all that are left (ReadBlock). The framing's
// slice reads a frame's bytes on the caller's goroutine; its body step
// and decodeBody turn them into columns in the frame's ring slot, on the
// frame's own goroutine once read-ahead is on; the caller builds records
// from the columns, and only from a seek target on.
type blockReader struct {
	br    *bufio.Reader
	magic [6]byte
	// slice reads the next frame's bytes into a slot, or returns io.EOF at
	// a clean end of stream. check vets each frame taken back from the
	// ring, in stream order, and returns the frame's error.
	slice func(*frameSlot) error
	check func(*frameSlot) error

	header bool
	anon   bool
	err    error

	ring     ring[frameSlot] // GOMAXPROCS+1 slots, or one worked inline
	names    sharedNames     // every slot's strings, interned once per reader
	started  int             // claimed slots whose work has started, oldest first
	inFlight int             // declared body bytes of the started slots
	ended    bool            // a claimed slot holds the end of the stream or an error
	ahead    bool            // read-ahead: a block was handed out whole since the last seek
	whole    bool            // the current block is handed out from its first record

	recs []*FlowRecord // records of the current block
	next int
	skip int // records to discard after a seek landed mid-block

	// ReadBlock's records, their backing and namespace slab, reused
	keep    []*FlowRecord
	backing []FlowRecord
	ns      []uint32
}

// init readies the core of a framing's reader over src; body returns a
// sliced frame's block body and runs with decodeBody on the frame's
// goroutine.
func (r *blockReader) init(src io.Reader, magic [6]byte, slice func(*frameSlot) error, body func(*frameSlot) ([]byte, error)) {
	r.br, r.magic, r.slice = bufio.NewReader(src), magic, slice
	r.check = func(s *frameSlot) error { return s.err }
	r.ring = ring[frameSlot]{size: ringSize(runtime.GOMAXPROCS(0)), work: func(s *frameSlot) {
		b, err := body(s)
		if err == nil {
			err = s.cols.decodeBody(b, &r.names)
		}
		s.err = err
	}}
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
// taking the next frame (and the ones a pending seek skips whole) when it
// has none: into fresh records, or with reuse into the reader's own.
func (r *blockReader) fill(reuse bool) error {
	if r.err != nil {
		return r.err
	}
	if err := r.ensureHeader(); err != nil {
		r.err = err
		return err
	}
	for r.next >= len(r.recs) {
		r.ahead = r.ahead || r.whole && r.ring.size > 1
		s := r.take()
		if err := r.check(s); err != nil {
			r.err = err
			return err
		}
		from := min(r.skip, s.cols.n)
		r.skip -= from
		r.whole = from == 0
		r.recs, r.next = r.build(&s.cols, from, reuse), 0
	}
	return nil
}

// take returns the next frame in stream order once it is decoded. It
// first slices frames into free slots and starts them: one frame without
// read-ahead, up to the whole ring with it, and a frame beyond the first
// only while the declared body bytes in flight stay within maxFrameRaw.
// A slot's first frame is worked on the caller's goroutine, which sizes
// the slot's scratch there.
func (r *blockReader) take() *frameSlot {
	q := &r.ring
	for {
		if r.started < q.n {
			s := q.at(r.started)
			if r.started > 0 && r.inFlight+s.rawLen > maxFrameRaw {
				break
			}
			if s.err == nil {
				if r.ahead {
					mReadAheadFrames.Inc()
				}
				q.start(r.started, !r.ahead || !s.warm)
				s.warm = true
			}
			r.started++
			r.inFlight += s.rawLen
			continue
		}
		if r.ended || q.n == q.size || q.n > 0 && !r.ahead {
			break
		}
		s := q.claim()
		s.err = r.slice(s)
		r.ended = s.err != nil
	}
	s, _ := q.pop()
	r.started--
	r.inFlight -= s.rawLen
	return s
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
