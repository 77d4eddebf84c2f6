package traces

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// recordReader is what both block readers offer the shared tests.
type recordReader interface {
	Read() (*FlowRecord, error)
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
			bw.BlockRecords, bw.Anonymize = blockRecords, anon
			return bw
		},
		newReader: func(r io.Reader) recordReader { return NewBinaryReader(r) },
	}
	flateFraming = codecFraming{
		// header | sentinel | empty index (count 0) | footer
		name: "binary-flate", emptyLen: streamHeaderLen + 1 + 1 + flateFooterLen,
		newWriter: func(w io.Writer, workers, blockRecords int, anon bool) RecordWriter {
			fw := NewFlateWriter(w, workers)
			fw.BlockRecords, fw.Anonymize = blockRecords, anon
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
func writeRecords(t *testing.T, w RecordWriter, recs []*FlowRecord) {
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
func encodeStream(t *testing.T, f codecFraming, recs []*FlowRecord, blockRecords, workers int, anon bool) []byte {
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

// readToError drains rd and returns the error that ended the stream.
func readToError(rd recordReader) error {
	for {
		if _, err := rd.Read(); err != nil {
			return err
		}
	}
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
// stream round-trips through the matching reader; (iii) after a Flush the
// binary stream takes more records and the flate stream refuses them;
// (iv) a flushed writer owns no goroutines.
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
// end in an error, never clean EOF or a panic.
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
		if err := readToError(f.newReader(bytes.NewReader(stream[:cut]))); err == io.EOF {
			t.Fatalf("cut=%d: truncated stream read to clean EOF", cut)
		}
	}
}
