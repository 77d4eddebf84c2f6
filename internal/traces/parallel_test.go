package traces

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// TestParallelBinaryMatchesSequential pins determinism contract point 13
// at the constructor level: NewBinaryWriter (what campaign part files
// use) and NewParallelBinaryWriter at any worker count write the same
// bytes. TestCodecMatrix covers the full framing x block-size grid.
func TestParallelBinaryMatchesSequential(t *testing.T) {
	recs := randRecords(21, 10_000)
	var seq bytes.Buffer
	sw := NewBinaryWriter(&seq)
	sw.blockRecords = 257
	writeRecords(t, sw, recs)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		if got := encodeStream(t, binaryFraming, recs, 257, workers, false); !bytes.Equal(got, seq.Bytes()) {
			t.Fatalf("workers=%d: output differs from NewBinaryWriter (%d vs %d bytes)", workers, len(got), seq.Len())
		}
	}
}

// TestParallelBinaryRoundTrip decodes a pool-written stream with the
// ordinary reader.
func TestParallelBinaryRoundTrip(t *testing.T) {
	recs := randRecords(22, 3_000)
	stream := encodeStream(t, binaryFraming, recs, 256, 4, false)
	expectRecords(t, NewBinaryReader(bytes.NewReader(stream)), recs)
}

// TestParallelBinaryAppendAfterFlush exercises the restart path over
// several cycles: every Flush stops the pool, the next Write restarts it,
// and the stream stays valid.
func TestParallelBinaryAppendAfterFlush(t *testing.T) {
	recs := randRecords(23, 700)
	var buf bytes.Buffer
	pw := NewParallelBinaryWriter(&buf, 3)
	pw.blockRecords = 128
	for _, part := range [][]*FlowRecord{recs[:300], recs[300:301], recs[301:]} {
		writeRecords(t, pw, part)
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	expectRecords(t, NewBinaryReader(&buf), recs)
}

// failAfterWriter errors every write after the first n.
type failAfterWriter struct {
	n    int
	seen int
}

var errWriterBroke = errors.New("writer broke")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.seen++
	if w.seen > w.n {
		return 0, errWriterBroke
	}
	return len(p), nil
}

// TestParallelBinaryWriteError checks, for every framing inline and
// pooled, that an underlying write error is latched and surfaced by Write
// or Flush, that later Writes keep failing, and that Flush still drains
// cleanly (no leaked goroutines, no deadlock).
func TestParallelBinaryWriteError(t *testing.T) {
	recs := randRecords(24, 10_000)
	for _, f := range codecFramings {
		for _, workers := range []int{0, 4} {
			base := runtime.NumGoroutine()
			w := f.newWriter(&failAfterWriter{n: 2}, workers, 64, false) // header + 1 frame succeed
			var err error
			for _, r := range recs {
				if err = w.Write(r); err != nil {
					break
				}
			}
			if ferr := w.Flush(); err == nil {
				err = ferr
			}
			if !errors.Is(err, errWriterBroke) {
				t.Fatalf("%s workers=%d: write error surfaced as %v", f.name, workers, err)
			}
			if err := w.Write(recs[0]); err == nil {
				t.Fatalf("%s workers=%d: Write after a latched error succeeded", f.name, workers)
			}
			waitForGoroutines(t, base)
		}
	}
}

// TestParallelBinaryNoGoroutineLeak pins the lifecycle contract where the
// matrix does not reach: after Flush the writer owns no goroutines even
// when the stream is abandoned early (a partial block was buffered but
// the consumer stops writing) or never written to at all.
func TestParallelBinaryNoGoroutineLeak(t *testing.T) {
	recs := randRecords(25, 100) // mid-block: 100 records leave a partial accumulator
	for _, f := range codecFramings {
		for _, n := range []int{len(recs), 0} {
			base := runtime.NumGoroutine()
			encodeStream(t, f, recs[:n], 64, 8, false)
			waitForGoroutines(t, base)
		}
	}
}
