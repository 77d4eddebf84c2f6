package traces

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

func TestFlateRoundTrip(t *testing.T) {
	recs := randRecords(31, 5_000)
	stream := encodeStream(t, flateFraming, recs, 257, 1, false)
	expectRecords(t, NewFlateReader(bytes.NewReader(stream)), recs)
}

// TestFlateDeterministicAcrossWorkers pins determinism contract point 13
// for the archival tier, trailer included: worker count never changes the
// output bytes. TestCodecMatrix covers the full grid.
func TestFlateDeterministicAcrossWorkers(t *testing.T) {
	recs := randRecords(32, 6_000)
	want := encodeStream(t, flateFraming, recs, 300, 1, true)
	for _, workers := range []int{2, 8} {
		got := encodeStream(t, flateFraming, recs, 300, workers, true)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: output differs from workers=1 (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

// TestFlateNumRecordsPreservesPosition pins the loadIndex contract:
// index lookups (NumRecords) must not disturb a sequential read,
// whether they happen before the first Read or in the middle of one.
func TestFlateNumRecordsPreservesPosition(t *testing.T) {
	recs := randRecords(35, 700)
	stream := encodeStream(t, flateFraming, recs, 128, 2, false)
	fr := NewFlateReader(bytes.NewReader(stream))
	if n, err := fr.NumRecords(); err != nil || n != int64(len(recs)) {
		t.Fatalf("NumRecords before reading = %d, %v; want %d", n, err, len(recs))
	}
	for i, want := range recs {
		if i == 300 || i == 301 { // mid-frame, repeated
			if n, err := fr.NumRecords(); err != nil || n != int64(len(recs)) {
				t.Fatalf("NumRecords at record %d = %d, %v", i, n, err)
			}
		}
		got, err := fr.Read()
		if err != nil {
			t.Fatalf("record %d after NumRecords: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("record %d diverged after NumRecords", i)
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestFlateSeekToRecord pins the acceptance criterion: a seeked partial
// read returns exactly the records of the requested range, bit-exact
// against the full sequential decode, with the ring inline and with
// frames decoded ahead (a 300-record read crosses whole 256-record
// frames, so read-ahead is on when the next seek drains it).
func TestFlateSeekToRecord(t *testing.T) {
	recs := randRecords(33, 4_000)
	stream := encodeStream(t, flateFraming, recs, 256, 4, false)
	for _, workers := range readerWorkers {
		testFlateSeekToRecord(t, withWorkers(NewFlateReader(bytes.NewReader(stream)), workers), recs)
	}
}

func testFlateSeekToRecord(t *testing.T, fr *FlateReader, recs []*FlowRecord) {

	total, err := fr.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(recs)) {
		t.Fatalf("NumRecords = %d, want %d", total, len(recs))
	}

	// Seek targets cover: block-start, mid-block, first record, the very
	// last record, and the EOF position.
	for _, start := range []int64{0, 1, 255, 256, 257, 1000, 3999, 4000} {
		if err := fr.SeekToRecord(start); err != nil {
			t.Fatalf("SeekToRecord(%d): %v", start, err)
		}
		for i := start; i < total; i++ {
			got, err := fr.Read()
			if err != nil {
				t.Fatalf("seek %d, record %d: %v", start, i, err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(recs[i])) {
				t.Fatalf("seek %d, record %d mismatch", start, i)
			}
			if i > start+300 {
				break // partial range is the point; don't re-read the tail each time
			}
		}
		if start == total {
			if _, err := fr.Read(); err != io.EOF {
				t.Fatalf("seek to EOF position: expected EOF, got %v", err)
			}
		}
		// A block hand-out starts at the target too, and ends with its block.
		if err := fr.SeekToRecord(start); err != nil {
			t.Fatalf("SeekToRecord(%d): %v", start, err)
		}
		blk, err := fr.ReadBlock()
		if start == total {
			if err != io.EOF {
				t.Fatalf("seek to EOF position: ReadBlock = %v, want EOF", err)
			}
			continue
		}
		if want := min(256-start%256, total-start); err != nil || int64(len(blk)) != want {
			t.Fatalf("seek %d: ReadBlock handed out %d records (%v), want %d", start, len(blk), err, want)
		}
		for i, got := range blk {
			if !reflect.DeepEqual(normalize(got), normalize(recs[start+int64(i)])) {
				t.Fatalf("seek %d, block record %d mismatch", start, i)
			}
		}
	}

	// Out-of-range seeks fail cleanly.
	if err := fr.SeekToRecord(-1); err == nil {
		t.Fatal("SeekToRecord(-1) should fail")
	}
	if err := fr.SeekToRecord(total + 1); err == nil {
		t.Fatal("SeekToRecord(total+1) should fail")
	}

	// Seeking backwards after EOF works (EOF state is cleared).
	if err := fr.SeekToRecord(total); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if err := fr.SeekToRecord(42); err != nil {
		t.Fatal(err)
	}
	got, err := fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(recs[42])) {
		t.Fatal("record 42 after re-seek mismatch")
	}
}

// TestFlateSeekRequiresSeeker checks the non-seekable degradation.
func TestFlateSeekRequiresSeeker(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	recs := []*FlowRecord{randRecord(rng, 0)}
	stream := encodeStream(t, flateFraming, recs, 16, 1, false)
	// io.MultiReader hides the Seeker.
	fr := NewFlateReader(io.MultiReader(bytes.NewReader(stream)))
	if err := fr.SeekToRecord(0); err == nil {
		t.Fatal("SeekToRecord on a non-seekable source should fail")
	}
	// Sequential reading still works.
	if _, err := fr.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFlateEmptyStream(t *testing.T) {
	testEmptyStream(t, flateFraming)
	// The empty index still answers the seek API.
	stream := encodeStream(t, flateFraming, nil, 0, 2, true)
	fr := NewFlateReader(bytes.NewReader(stream))
	n, err := fr.NumRecords()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("NumRecords = %d, want 0", n)
	}
	if err := fr.SeekToRecord(0); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("expected EOF after seek, got %v", err)
	}
}

func TestFlateWriteAfterFlushFails(t *testing.T) {
	var buf bytes.Buffer
	w := NewFlateWriter(&buf, 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Write(sampleRecord()); err == nil {
		t.Fatal("Write after terminal Flush should fail")
	}
}

// TestFlateInvalidLevel: an out-of-range Level is an error from the first
// Write or Flush — inline and pooled alike, never a panic on a worker
// goroutine — and nothing is written past the header; every level
// compress/flate accepts still works.
func TestFlateInvalidLevel(t *testing.T) {
	recs := randRecords(40, 300)
	for _, workers := range []int{0, 2} {
		for _, level := range []int{10, -3} {
			var buf bytes.Buffer
			w := NewFlateWriter(&buf, workers)
			w.Level, w.BlockRecords = level, 100
			if err := w.Write(recs[0]); err == nil {
				t.Fatalf("workers=%d level %d: Write succeeded", workers, level)
			}
			if err := w.Flush(); err == nil {
				t.Fatalf("workers=%d level %d: Flush succeeded", workers, level)
			}
			if buf.Len() > streamHeaderLen {
				t.Fatalf("workers=%d level %d: %d bytes written past the header", workers, level, buf.Len()-streamHeaderLen)
			}
		}
		for level := -2; level <= 9; level++ {
			var buf bytes.Buffer
			w := NewFlateWriter(&buf, workers)
			w.Level, w.BlockRecords = level, 100
			writeRecords(t, w, recs)
			if err := w.Flush(); err != nil {
				t.Fatalf("workers=%d level %d: %v", workers, level, err)
			}
			expectRecords(t, NewFlateReader(&buf), recs)
		}
	}
}

func TestFlateCompresses(t *testing.T) {
	recs := randRecords(36, 4_096)
	raw := encodeStream(t, binaryFraming, recs, 0, 1, false)
	comp := encodeStream(t, flateFraming, recs, 0, 1, false)
	if len(comp) >= len(raw) {
		t.Fatalf("flate stream (%d bytes) not smaller than raw binary (%d bytes)", len(comp), len(raw))
	}
}

// --- reader error paths ---

func TestFlateBadMagic(t *testing.T)  { testBadMagic(t, flateFraming) }
func TestFlateTruncated(t *testing.T) { testTruncated(t, flateFraming, 37) }

func TestFlateBadFooterMagic(t *testing.T) {
	stream := encodeStream(t, flateFraming, nil, 0, 1, false)
	bad := bytes.Clone(stream)
	bad[len(bad)-1] ^= 0xff
	fr := NewFlateReader(bytes.NewReader(bad))
	if _, err := fr.Read(); err == nil || err == io.EOF {
		t.Fatalf("bad footer magic should fail, got %v", err)
	}
	fr2 := NewFlateReader(bytes.NewReader(bad))
	if _, err := fr2.NumRecords(); err == nil {
		t.Fatal("NumRecords with bad footer magic should fail")
	}
}

// TestFlateIndexOffsetPastEOF corrupts the index so the cumulative frame
// offsets run past the frame section; the seek path must reject it.
func TestFlateIndexOffsetPastEOF(t *testing.T) {
	recs := randRecords(38, 300)
	stream := encodeStream(t, flateFraming, recs, 100, 1, false)

	// Rebuild the trailer with an inflated frameLen in the first entry.
	idxLen := int(binary.LittleEndian.Uint64(stream[len(stream)-flateFooterLen:]))
	idxStart := len(stream) - flateFooterLen - idxLen
	idx := stream[idxStart : idxStart+idxLen]
	d := &bdec{b: idx}
	count := d.uvarint()
	var badIdx []byte
	badIdx = binary.AppendUvarint(badIdx, count)
	for i := uint64(0); i < count; i++ {
		records, frameLen := d.uvarint(), d.uvarint()
		if i == 0 {
			frameLen += 1 << 20
		}
		badIdx = binary.AppendUvarint(badIdx, records)
		badIdx = binary.AppendUvarint(badIdx, frameLen)
	}
	bad := append([]byte(nil), stream[:idxStart]...)
	bad = append(bad, badIdx...)
	var footer [flateFooterLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(len(badIdx)))
	copy(footer[8:], flateFooterMagic[:])
	bad = append(bad, footer[:]...)

	fr := NewFlateReader(bytes.NewReader(bad))
	if err := fr.SeekToRecord(0); err == nil {
		t.Fatal("index with offsets past EOF should fail to load")
	}
}

// TestFlateFrameCorruption flips bytes inside the first frame; decoding
// must fail cleanly (flate checksum-less streams can decode garbage, so
// the block decoder's bounds checks are the backstop — any outcome but a
// panic, a silent wrong-length success or Read and ReadBlock disagreeing
// passes).
func TestFlateFrameCorruption(t *testing.T) {
	recs := randRecords(39, 500)
	stream := encodeStream(t, flateFraming, recs, 500, 1, false)
	for off := streamHeaderLen; off < len(stream); off += 7 {
		bad := bytes.Clone(stream)
		bad[off] ^= 0x55
		fr := NewFlateReader(bytes.NewReader(bad))
		n := 0
		for {
			if _, err := fr.Read(); err != nil {
				break
			}
			if n++; n > len(recs) {
				t.Fatalf("offset %d: corrupted stream yielded more records than written", off)
			}
		}
		// Decompression is most of this test's time: compare the two
		// hand-outs on every fifth corruption only.
		if off%5 == 0 {
			checkHandOuts(t, func() recordReader { return NewFlateReader(bytes.NewReader(bad)) })
		}
	}
}

// withIndex rebuilds a flate stream's trailer with edit applied to every
// index entry.
func withIndex(stream []byte, edit func(i int, f *flateFrame)) []byte {
	idxLen := int(binary.LittleEndian.Uint64(stream[len(stream)-flateFooterLen:]))
	idxStart := len(stream) - flateFooterLen - idxLen
	d := &bdec{b: stream[idxStart : idxStart+idxLen]}
	count := d.uvarint()
	idx := binary.AppendUvarint(nil, count)
	for i := range int(count) {
		f := flateFrame{records: d.uvarint(), frameLen: d.uvarint()}
		edit(i, &f)
		idx = binary.AppendUvarint(binary.AppendUvarint(idx, f.records), f.frameLen)
	}
	out := append(bytes.Clone(stream[:idxStart]), idx...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(idx)))
	return append(out, flateFooterMagic[:]...)
}

// flateIndexProbe is a stream whose index lies about a frame it lists, or
// whose footer is not its last byte.
type flateIndexProbe struct {
	name   string
	stream []byte
}

// flateIndexProbes builds the probes over 300 records in three frames of
// 100, returning the records too.
func flateIndexProbes(t testing.TB) ([]*FlowRecord, []flateIndexProbe) {
	recs := randRecords(42, 300)
	stream := encodeStream(t, flateFraming, recs, 100, 0, false)
	return recs, []flateIndexProbe{
		{"entry 0 lists 99 records", withIndex(stream, func(i int, f *flateFrame) {
			if i == 0 {
				f.records = 99
			}
		})},
		{"entry 1 lists 101 records", withIndex(stream, func(i int, f *flateFrame) {
			if i == 1 {
				f.records = 101
			}
		})},
		{"entries 0 and 1 trade a byte of length", withIndex(stream, func(i int, f *flateFrame) {
			switch i {
			case 0:
				f.frameLen++
			case 1:
				f.frameLen--
			}
		})},
		{"8 bytes after the footer", append(bytes.Clone(stream), "trailing"...)},
	}
}

// TestFlateIndexMustMatchFrames pins contract point 17 for the index: a
// sequential read holds every entry to the frame it read (record count
// and length) and requires the stream to end with the footer, so an index
// that lies ends the read in an error, never a clean EOF; and a seek
// holds its landing frame to its entry before handing out a record. A
// seek trusts the counts of the frames before its landing frame, which it
// does not read.
func TestFlateIndexMustMatchFrames(t *testing.T) {
	recs, probes := flateIndexProbes(t)
	for _, workers := range readerWorkers {
		for _, p := range probes {
			got, err := readAll(t, withWorkers(NewFlateReader(bytes.NewReader(p.stream)), workers), len(recs))
			if err == io.EOF || err == nil {
				t.Fatalf("%s, workers=%d: read %d records to a clean end", p.name, workers, len(got))
			}
			checkHandOuts(t, func() recordReader { return withWorkers(NewFlateReader(bytes.NewReader(p.stream)), workers) })
		}
		fr := withWorkers(NewFlateReader(bytes.NewReader(probes[1].stream)), workers)
		if err := fr.SeekToRecord(150); err != nil {
			t.Fatal(err)
		}
		if rec, err := fr.Read(); err == nil {
			t.Fatalf("workers=%d: a seek into a frame its entry miscounts read %+v", workers, rec)
		}
		if err := NewFlateReader(bytes.NewReader(probes[3].stream)).SeekToRecord(150); err == nil {
			t.Fatal("a seek accepted a stream with bytes after its footer")
		}
	}
}
