package traces

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

// recordReader is what both block readers offer the shared tests.
type recordReader interface {
	Read() (*FlowRecord, error)
	ReadBlock() ([]*FlowRecord, error)
	Anonymized() bool
}

// codecFraming describes one block framing to the shared codec tests:
// everything below that is not specific to a wire detail runs over this
// table instead of once per writer type.
type codecFraming struct {
	name       string
	appendable bool // Flush leaves the stream open for more records
	emptyLen   int  // size of a zero-record stream
	newWriter  func(w io.Writer, workers, blockRecords int, anon bool) RecordWriter
	newReader  func(r io.Reader) recordReader
}

var (
	binaryFraming = codecFraming{
		name: "binary", appendable: true, emptyLen: streamHeaderLen,
		newWriter: func(w io.Writer, workers, blockRecords int, anon bool) RecordWriter {
			bw := NewParallelBinaryWriter(w, workers)
			bw.blockRecords, bw.Anonymize = blockRecords, anon
			return bw
		},
		newReader: func(r io.Reader) recordReader { return NewBinaryReader(r) },
	}
	flateFraming = codecFraming{
		// header | sentinel | empty index (count 0) | footer
		name: "binary-flate", emptyLen: streamHeaderLen + 1 + 1 + flateFooterLen,
		newWriter: func(w io.Writer, workers, blockRecords int, anon bool) RecordWriter {
			fw := NewFlateWriter(w, workers)
			fw.blockRecords, fw.Anonymize = blockRecords, anon
			return fw
		},
		newReader: func(r io.Reader) recordReader { return NewFlateReader(r) },
	}
	codecFramings = []codecFraming{binaryFraming, flateFraming}
)

// randRecords draws n randomized records from a seeded stream.
func randRecords(seed int64, n int) []*FlowRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]*FlowRecord, n)
	for i := range recs {
		recs[i] = randRecord(rng, i)
	}
	return recs
}

// writeRecords writes recs through w, failing the test on any error.
func writeRecords(t testing.TB, w RecordWriter, recs []*FlowRecord) {
	t.Helper()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
}

// encodeStream serializes recs with one framing and returns the flushed
// stream. workers = 0 is the inline reference every other count must
// reproduce byte for byte.
func encodeStream(t testing.TB, f codecFraming, recs []*FlowRecord, blockRecords, workers int, anon bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := f.newWriter(&buf, workers, blockRecords, anon)
	writeRecords(t, w, recs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectRecords demands that rd yields exactly want (anonymized streams
// decode Client as 0) and then a clean io.EOF.
func expectRecords(t *testing.T, rd recordReader, want []*FlowRecord) {
	t.Helper()
	for i, w := range want {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		w = normalize(w)
		if rd.Anonymized() {
			w.Client = 0
		}
		if !reflect.DeepEqual(normalize(got), w) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, w)
		}
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("expected EOF after %d records, got %v", len(want), err)
	}
}

// cloneRecord copies r out of a reader-owned block.
func cloneRecord(r *FlowRecord) *FlowRecord {
	c := *r
	c.NotifyNamespaces = slices.Clone(r.NotifyNamespaces)
	return &c
}

// checkHandOuts reads one stream twice, a record at a time and a block at
// a time: ReadBlock must hand out exactly the records Read does, never an
// empty block, and end on the same error. It returns that error.
func checkHandOuts(t testing.TB, newReader func() recordReader) error {
	t.Helper()
	var one []*FlowRecord
	rd := newReader()
	rec, errRead := rd.Read()
	for ; errRead == nil; rec, errRead = rd.Read() {
		one = append(one, rec)
	}
	n := 0
	rd = newReader()
	blk, errBlock := rd.ReadBlock()
	for ; errBlock == nil; blk, errBlock = rd.ReadBlock() {
		if len(blk) == 0 || n+len(blk) > len(one) {
			t.Fatalf("ReadBlock handed out %d records after %d, Read %d in all", len(blk), n, len(one))
		}
		for i, r := range blk {
			if !reflect.DeepEqual(r, one[n+i]) {
				t.Fatalf("record %d: ReadBlock handed out %+v, Read %+v", n+i, r, one[n+i])
			}
		}
		n += len(blk)
	}
	if n != len(one) || fmt.Sprint(errBlock) != fmt.Sprint(errRead) {
		t.Fatalf("ReadBlock ended after %d records on %v, Read after %d on %v", n, errBlock, len(one), errRead)
	}
	return errRead
}

// readerWorkers are the worker counts the block-reader tests run at: the
// inline ring of GOMAXPROCS=1 and a concurrent one.
var readerWorkers = []int{1, 4}

// core exposes the reader core under either framing's reader.
func (r *blockReader) core() *blockReader { return r }

// withWorkers sizes a block or CSV reader's ring as GOMAXPROCS = workers
// would, before its first read; any other reader is returned as it is.
func withWorkers[R any](rd R, workers int) R {
	switch r := any(rd).(type) {
	case interface{ core() *blockReader }:
		r.core().ring.size = ringSize(workers)
	case *Reader:
		r.ring.size = ringSize(workers)
	}
	return rd
}

// waitForGoroutines polls until the goroutine count drops back to base
// (the runtime needs a beat to unwind exiting goroutines).
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCodecMatrix pins the writer core's contract over every framing,
// worker count, block size and anonymize setting: (i) the bytes equal the
// inline (workers = 0) output — determinism contract point 13; (ii) the
// stream round-trips through the matching reader, a record or a block at
// a time; (iii) after a Flush the binary stream takes more records and
// the flate stream refuses them; (iv) a flushed writer owns no goroutines.
func TestCodecMatrix(t *testing.T) {
	recs := randRecords(21, 10_000)
	more := recs[:300]
	for _, f := range codecFramings {
		for _, anon := range []bool{false, true} {
			for _, blockRecords := range []int{257, 1024, 0} {
				want := encodeStream(t, f, recs, blockRecords, 0, anon)
				for _, workers := range []int{0, 1, 2, 8} {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("%s anon=%v block=%d workers=%d: "+format,
							append([]any{f.name, anon, blockRecords, workers}, args...)...)
					}
					base := runtime.NumGoroutine()
					var buf bytes.Buffer
					w := f.newWriter(&buf, workers, blockRecords, anon)
					writeRecords(t, w, recs)
					if err := w.Flush(); err != nil {
						fail("Flush: %v", err)
					}
					waitForGoroutines(t, base)
					if !bytes.Equal(buf.Bytes(), want) {
						fail("output differs from the inline writer (%d vs %d bytes)", buf.Len(), len(want))
					}
					expectRecords(t, f.newReader(bytes.NewReader(buf.Bytes())), recs)
					checkHandOuts(t, func() recordReader { return f.newReader(bytes.NewReader(buf.Bytes())) })

					err := w.Write(more[0])
					if !f.appendable {
						if !errors.Is(err, errFlateFinalized) {
							fail("Write after the terminal Flush = %v, want errFlateFinalized", err)
						}
						if err := w.Flush(); err != nil || buf.Len() != len(want) {
							fail("second Flush = %v with %d bytes written, want an idempotent no-op", err, buf.Len()-len(want))
						}
						continue
					}
					if err != nil {
						fail("Write after Flush: %v", err)
					}
					writeRecords(t, w, more[1:])
					if err := w.Flush(); err != nil {
						fail("second Flush: %v", err)
					}
					waitForGoroutines(t, base)
					expectRecords(t, f.newReader(&buf), append(recs[:len(recs):len(recs)], more...))
				}
			}
		}
	}
}

// testEmptyStream: a zero-record export is a valid stream — Flush writes
// the header (and the framing's trailer), the anonymize flag survives,
// and a reader gets clean io.EOF, matching an empty CSV export. An
// appendable framing keeps taking records afterwards.
func testEmptyStream(t *testing.T, f codecFraming) {
	t.Helper()
	for _, workers := range []int{0, 2} {
		var buf bytes.Buffer
		w := f.newWriter(&buf, workers, 0, true)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != f.emptyLen {
			t.Fatalf("workers=%d: empty flush wrote %d bytes, want %d", workers, buf.Len(), f.emptyLen)
		}
		rd := f.newReader(bytes.NewReader(buf.Bytes()))
		expectRecords(t, rd, nil)
		if !rd.Anonymized() {
			t.Fatal("anonymize flag lost")
		}
		if f.appendable {
			rec := []*FlowRecord{sampleRecord()}
			writeRecords(t, w, rec)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			expectRecords(t, f.newReader(&buf), rec)
		}
	}
}

// testBadMagic pins the header validation error.
func testBadMagic(t *testing.T, f codecFraming) {
	t.Helper()
	rd := f.newReader(bytes.NewReader([]byte("IDBX9\n\x00rest")))
	if _, err := rd.Read(); err == nil || err == io.EOF {
		t.Fatalf("bad magic should fail, got %v", err)
	}
}

// testTruncated cuts a valid stream inside the header, inside a frame
// header, inside a frame body and one byte short: a truncated stream must
// end in an error, never clean EOF or a panic, whichever way it is read.
func testTruncated(t *testing.T, f codecFraming, seed int64) {
	t.Helper()
	stream := encodeStream(t, f, randRecords(seed, 1_000), 128, 0, false)
	h := streamHeaderLen
	cuts := []int{0, 1, 3, h - 1, h + 1, h + 2, h + 10, h + 33, len(stream) / 2, len(stream) - 1}
	if !f.appendable {
		// Only a framing with a trailer can tell a cut on a frame
		// boundary from the end of the stream.
		cuts = append(cuts, h)
	}
	for _, cut := range cuts {
		err := checkHandOuts(t, func() recordReader { return f.newReader(bytes.NewReader(stream[:cut])) })
		if err == io.EOF {
			t.Fatalf("cut=%d: truncated stream read to clean EOF", cut)
		}
	}
}

// TestReadBlockOwnership pins who owns what: a block's records are the
// reader's and are overwritten by the next ReadBlock, while a record Read
// returned stays the caller's whatever is called afterwards — with the
// ring inline and with frames decoded ahead.
func TestReadBlockOwnership(t *testing.T) {
	recs := randRecords(77, 1_000)
	for _, f := range codecFramings {
		for _, workers := range readerWorkers {
			rd := withWorkers(f.newReader(bytes.NewReader(encodeStream(t, f, recs, 100, 0, false))), workers)
			mine, err := rd.Read() // record 0, out of a block Read decoded
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rd.ReadBlock(); err != nil { // the rest of that block
				t.Fatal(err)
			}
			first, err := rd.ReadBlock() // records 100..199, the reader's own
			if err != nil {
				t.Fatal(err)
			}
			kept, was := first[0], cloneRecord(first[0])
			if !reflect.DeepEqual(normalize(was), normalize(recs[100])) {
				t.Fatalf("%s workers=%d: second block starts with %+v, want record 100", f.name, workers, was)
			}
			second, err := rd.ReadBlock() // records 200..299, over the first
			if err != nil {
				t.Fatal(err)
			}
			if kept != second[0] || reflect.DeepEqual(kept, was) || !reflect.DeepEqual(normalize(kept), normalize(recs[200])) {
				t.Fatalf("%s workers=%d: a record kept past the next ReadBlock reads %+v, want the reused storage holding record 200", f.name, workers, kept)
			}
			if !reflect.DeepEqual(normalize(mine), normalize(recs[0])) {
				t.Fatalf("%s workers=%d: a record Read returned changed under later ReadBlocks: %+v", f.name, workers, mine)
			}
		}
	}
}

// TestReadBlockInterleaved mixes the two hand-outs at random, Read
// stopping mid-block more often than not: together they deliver every
// record once and in order, and no Read result aliases a block.
func TestReadBlockInterleaved(t *testing.T) {
	recs := randRecords(78, 3_000)
	rng := rand.New(rand.NewSource(78))
	for _, f := range codecFramings {
		for _, workers := range readerWorkers {
			rd := withWorkers(f.newReader(bytes.NewReader(encodeStream(t, f, recs, 128, 0, false))), workers)
			var got []*FlowRecord
			var err error
			for err == nil {
				for k := rng.Intn(5); k > 0 && err == nil; k-- {
					var rec *FlowRecord
					if rec, err = rd.Read(); err == nil {
						got = append(got, rec)
					}
				}
				if err != nil {
					break
				}
				var blk []*FlowRecord
				if blk, err = rd.ReadBlock(); err == nil {
					if len(blk) != 128-len(got)%128 && len(got)+len(blk) != len(recs) {
						t.Fatalf("%s workers=%d: ReadBlock after %d records handed out %d, want the rest of a 128-record block", f.name, workers, len(got), len(blk))
					}
					for _, r := range blk {
						got = append(got, cloneRecord(r))
					}
				}
			}
			if err != io.EOF || len(got) != len(recs) {
				t.Fatalf("%s workers=%d: interleaved read ended after %d of %d records on %v", f.name, workers, len(got), len(recs), err)
			}
			for i := range recs {
				if !reflect.DeepEqual(normalize(got[i]), normalize(recs[i])) {
					t.Fatalf("%s workers=%d: record %d mismatch:\n got %+v\nwant %+v", f.name, workers, i, got[i], recs[i])
				}
			}
		}
	}
}

// TestReadBlockAllocationFree pins ReadBlock's promise: once the reader's
// body buffer, column scratch, records, namespace slab and interned names
// are warm, a block costs no allocation at all — the columns are reused
// block after block, not rebuilt. The binary framing only: a warm flate
// ReadBlock allocates 43 objects per frame of these records, 42 of them in
// compress/flate's huffmanDecoder.init, which decompressing a frame runs.
func TestReadBlockAllocationFree(t *testing.T) {
	const blocks, blockRecords = 16, 64
	recs := randRecords(79, blockRecords) // every block the same, so one warms all
	var buf bytes.Buffer
	w := binaryFraming.newWriter(&buf, 0, blockRecords, false)
	for range blocks {
		writeRecords(t, w, recs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := binaryFraming.newReader(bytes.NewReader(buf.Bytes()))
	if _, err := rd.ReadBlock(); err != nil { // the header read and the first fill
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(blocks-2, func() { // AllocsPerRun warms up once
		if blk, err := rd.ReadBlock(); err != nil || len(blk) != blockRecords {
			t.Fatalf("ReadBlock = %d records, %v; want %d", len(blk), err, blockRecords)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ReadBlock allocates %.2f objects per %d-record block, want 0", allocs, blockRecords)
	}
}

// framePayloads returns where each frame's payload lies in a stream of
// either framing: the body of a binary block, the compressed bytes of a
// flate frame.
func framePayloads(f codecFraming, stream []byte) [][2]int {
	var spans [][2]int
	for off := streamHeaderLen; off < len(stream); {
		n, k := binary.Uvarint(stream[off:])
		if n == 0 {
			break // the flate sentinel
		}
		off += k
		if f.name == flateFraming.name {
			n, k = binary.Uvarint(stream[off:])
			off += k
		}
		spans = append(spans, [2]int{off, off + int(n)})
		off += int(n)
	}
	return spans
}

// TestReadErrorsInStreamOrder pins contract point 17 under read-ahead:
// with frames k and k+2 corrupt, every worker count reads exactly the
// records before frame k and then frame k's error — the string the inline
// ring reports — however far decoding ran past it.
func TestReadErrorsInStreamOrder(t *testing.T) {
	const blockRecords, k = 64, 5
	recs := randRecords(80, 20*blockRecords)
	for _, f := range codecFramings {
		bad := encodeStream(t, f, recs, blockRecords, 0, false)
		spans := framePayloads(f, bad)
		clear(bad[spans[k][0]:spans[k][1]])
		for i := spans[k+2][0]; i < spans[k+2][1]; i++ {
			bad[i] = 0xff
		}
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := readAll(t, withWorkers(f.newReader(bytes.NewReader(bad)), workers), len(recs))
			if err == nil || err == io.EOF || len(got) != k*blockRecords {
				t.Fatalf("%s workers=%d: read %d records ending on %v, want the %d before frame %d and its error",
					f.name, workers, len(got), err, k*blockRecords, k)
			}
			for i, r := range got {
				if !reflect.DeepEqual(normalize(r), normalize(recs[i])) {
					t.Fatalf("%s workers=%d: record %d mismatch", f.name, workers, i)
				}
			}
			if workers == 1 {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("%s workers=%d: error %q, the inline ring's is %q", f.name, workers, err, want)
			}
			checkHandOuts(t, func() recordReader { return withWorkers(f.newReader(bytes.NewReader(bad)), workers) })
		}
	}
}

// TestSeekLoopDecodesNothingAhead: read-ahead starts only once a block has
// been handed out whole, so the archive's access pattern — seek, read
// 1,000 records, seek again — decodes no frame it does not hand out, and
// no seek discards one. A sequential read after a seek does start it, and
// the next seek drains the ring.
func TestSeekLoopDecodesNothingAhead(t *testing.T) {
	recs := randRecords(81, 5*DefaultBlockRecords)
	stream := encodeStream(t, flateFraming, recs, 0, 0, false)
	fr := withWorkers(NewFlateReader(bytes.NewReader(stream)), 4)
	ahead, discarded := mReadAheadFrames.Load(), mReadAheadDiscarded.Load()
	rng := rand.New(rand.NewSource(81))
	for range 12 {
		at := rng.Intn(len(recs) - 1_000)
		if err := fr.SeekToRecord(int64(at)); err != nil {
			t.Fatal(err)
		}
		for i := range 1_000 {
			if got, err := fr.Read(); err != nil || !reflect.DeepEqual(normalize(got), normalize(recs[at+i])) {
				t.Fatalf("record %d after a seek to %d: %v", at+i, at, err)
			}
		}
	}
	if n, d := mReadAheadFrames.Load()-ahead, mReadAheadDiscarded.Load()-discarded; n != 0 || d != 0 {
		t.Fatalf("the seek loop decoded %d frames ahead and discarded %d, want 0 and 0", n, d)
	}
	if err := fr.SeekToRecord(0); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := fr.ReadBlock(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fr.SeekToRecord(0); err != nil {
		t.Fatal(err)
	}
	if n, d := mReadAheadFrames.Load()-ahead, mReadAheadDiscarded.Load()-discarded; n == 0 || d == 0 {
		t.Fatalf("two whole blocks then a seek decoded %d frames ahead and discarded %d, want both above 0", n, d)
	}
}

// TestDroppedReaderOwnsNoGoroutines: a reader has no Close, so one dropped
// mid-stream with frames decoding ahead, after a seek, or after an error
// must own no goroutine once its in-flight frames finish.
func TestDroppedReaderOwnsNoGoroutines(t *testing.T) {
	recs := randRecords(82, 2_000)
	readBlocks := func(rd recordReader, n int) {
		t.Helper()
		for range n {
			if _, err := rd.ReadBlock(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range codecFramings {
		stream := encodeStream(t, f, recs, 64, 0, false)
		base := runtime.NumGoroutine()
		readBlocks(withWorkers(f.newReader(bytes.NewReader(stream)), 4), 3)
		if f.name == flateFraming.name {
			fr := withWorkers(NewFlateReader(bytes.NewReader(stream)), 4)
			readBlocks(fr, 3)
			if err := fr.SeekToRecord(100); err != nil {
				t.Fatal(err)
			}
			readBlocks(fr, 3)
		}
		span := framePayloads(f, stream)[10]
		clear(stream[span[0]:span[1]])
		rd := withWorkers(f.newReader(bytes.NewReader(stream)), 4)
		for err := error(nil); err == nil; _, err = rd.ReadBlock() {
		}
		waitForGoroutines(t, base)
	}
}
