package traces

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"insidedropbox/internal/wire"
)

// fromWriter is a block writer seen with its block-to-block entry point.
type fromWriter interface {
	RecordWriter
	WriteFrom(*BinaryReader) (int, error)
}

// partRecords draws n records whose clients mostly repeat one of 40
// addresses, so the address dictionaries share entries across records and
// blocks, with a unique address every few records.
func partRecords(seed int64, n int) []*FlowRecord {
	recs := randRecords(seed, n)
	rng := rand.New(rand.NewSource(seed))
	for i, r := range recs {
		if i%5 != 0 {
			r.Client = wire.IP(rng.Intn(40))
		}
	}
	return recs
}

// encodeParts splits recs at nparts-1 random points and encodes each piece
// as a full-fidelity binary part of blockRecords records per block.
func encodeParts(t *testing.T, rng *rand.Rand, recs []*FlowRecord, nparts, blockRecords int) [][]byte {
	t.Helper()
	cuts := []int{0}
	for range nparts - 1 {
		cuts = append(cuts, rng.Intn(len(recs)+1))
	}
	cuts = append(cuts, len(recs))
	slices.Sort(cuts)
	var parts [][]byte
	for i := 1; i < len(cuts); i++ {
		parts = append(parts, encodeStream(t, binaryFraming, recs[cuts[i-1]:cuts[i]], blockRecords, 0, false))
	}
	return parts
}

// TestWriteFromMatchesWrite is the column path's differential test:
// copying parts with WriteFrom gives the bytes of Writing their records,
// whatever the part and export block sizes, the anonymization, the
// framing and the worker count — so part blocks are re-blocked onto the
// export's grid, and each dictionary comes out in add's entry order.
func TestWriteFromMatchesWrite(t *testing.T) {
	recs := partRecords(31, 7_000)
	rng := rand.New(rand.NewSource(31))
	k := 0 // export configurations so far: cycles each part size through 1-4 parts
	for _, f := range codecFramings {
		for _, anon := range []bool{false, true} {
			for _, exportBlock := range []int{0, 1000} {
				want := encodeStream(t, f, recs, exportBlock, 0, anon)
				k++
				for i, partBlock := range []int{1, 7, DefaultBlockRecords, 5000} {
					parts := encodeParts(t, rng, recs, 1+(i+k)%4, partBlock)
					for _, workers := range []int{1, 4} {
						var buf bytes.Buffer
						w := f.newWriter(&buf, workers, exportBlock, anon).(fromWriter)
						n := 0
						for _, p := range parts {
							k, err := w.WriteFrom(NewBinaryReader(bytes.NewReader(p)))
							if err != nil {
								t.Fatal(err)
							}
							n += k
						}
						if err := w.Flush(); err != nil {
							t.Fatal(err)
						}
						if n != len(recs) || !bytes.Equal(buf.Bytes(), want) {
							t.Fatalf("%s anon=%v export block %d, %d parts of %d-record blocks, workers %d: WriteFrom wrote %d records, %d bytes; Write %d records, %d bytes (equal: %v)",
								f.name, anon, exportBlock, len(parts), partBlock, workers, n, buf.Len(), len(recs), len(want), bytes.Equal(buf.Bytes(), want))
						}
					}
				}
			}
		}
	}
}

// TestWriteFromAfterRead: the records a Read already decoded are written
// first, so WriteFrom continues the stream wherever Read left it.
func TestWriteFromAfterRead(t *testing.T) {
	recs := partRecords(32, 3_000)
	part := encodeStream(t, binaryFraming, recs, 700, 0, false)
	want := encodeStream(t, binaryFraming, recs, 0, 0, true)
	var buf bytes.Buffer
	w := binaryFraming.newWriter(&buf, 1, 0, true).(fromWriter)
	rd := NewBinaryReader(bytes.NewReader(part))
	for range 3 {
		rec, err := rd.Read()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := w.WriteFrom(rd); err != nil || n != len(recs)-3 {
		t.Fatalf("WriteFrom after three Reads = %d, %v; want %d records", n, err, len(recs)-3)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("Read then WriteFrom differs from Writing every record")
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("Read after WriteFrom = %v, want io.EOF", err)
	}
}

// accumColumns lists every column of a block accumulator, the dictionary
// maps and encode scratch aside.
func accumColumns(a *blockAccum) []any {
	return []any{
		a.n,
		a.client.entries, a.client.refs, a.server.entries, a.server.refs,
		a.cport, a.sport, a.first, a.last, a.lpUp, a.lpDown,
		a.bytesUp, a.bytesDown, a.pktsUp, a.pktsDown, a.pshUp, a.pshDown,
		a.retrUp, a.retrDown, a.minRTT, a.rttSamples,
		a.notifyHost, a.nsCount, a.nsVals, a.flags,
		a.vp.entries, a.vp.refs, a.sni.entries, a.sni.refs,
		a.cert.entries, a.cert.refs, a.fqdn.entries, a.fqdn.refs,
	}
}

// TestDecodeBodyRoundTrip: decodeBody is encodeBody's inverse, column for
// column, into an accumulator that last held a different block.
func TestDecodeBodyRoundTrip(t *testing.T) {
	var a, other, got blockAccum
	for _, r := range partRecords(33, 3_000) {
		a.add(r, false)
	}
	for _, r := range randRecords(34, 500) {
		other.add(r, false)
	}
	body := a.encodeBody(nil)
	var names internTable
	if err := got.decodeBody(other.encodeBody(nil), &names); err != nil {
		t.Fatal(err)
	}
	if err := got.decodeBody(body, &names); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(accumColumns(&got), accumColumns(&a)) {
		t.Fatal("decodeBody(encodeBody(a)) holds other columns than a")
	}
	if !bytes.Equal(got.encodeBody(nil), body) {
		t.Fatal("decodeBody(encodeBody(a)) re-encodes to other bytes")
	}
}

// TestWriteFromRefuses: an anonymized source is refused before anything is
// written, and a finalized flate stream takes no more records this way
// than through Write.
func TestWriteFromRefuses(t *testing.T) {
	recs := partRecords(35, 100)
	var buf bytes.Buffer
	w := binaryFraming.newWriter(&buf, 1, 0, true).(fromWriter)
	anonPart := encodeStream(t, binaryFraming, recs, 0, 0, true)
	if n, err := w.WriteFrom(NewBinaryReader(bytes.NewReader(anonPart))); !errors.Is(err, errAnonymizedSource) || n != 0 || buf.Len() != 0 {
		t.Fatalf("WriteFrom(anonymized) = %d, %v with %d bytes written; want errAnonymizedSource and nothing", n, err, buf.Len())
	}

	part := encodeStream(t, binaryFraming, recs, 0, 0, false)
	fw := flateFraming.newWriter(&buf, 1, 0, true).(fromWriter)
	if _, err := fw.WriteFrom(NewBinaryReader(bytes.NewReader(part))); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteFrom(NewBinaryReader(bytes.NewReader(part))); !errors.Is(err, errFlateFinalized) {
		t.Fatalf("WriteFrom after the terminal Flush = %v, want errFlateFinalized", err)
	}
}

// TestWriteFromAllocationFree: once the writer's column scratch, remap
// tables and interned names are warm, copying a part allocates nothing per
// record — one object per part is left, the reader's header read.
func TestWriteFromAllocationFree(t *testing.T) {
	const records = 20_000
	part := encodeStream(t, binaryFraming, partRecords(36, records), 0, 0, false)
	for _, f := range codecFramings {
		t.Run(f.name, func(t *testing.T) {
			w := f.newWriter(io.Discard, 1, 1000, true).(fromWriter)
			const runs = 3
			readers := make([]*BinaryReader, runs+1) // AllocsPerRun warms up once
			for i := range readers {
				readers[i] = NewBinaryReader(bytes.NewReader(part))
				readers[i].body = make([]byte, 0, 1<<20) // the reader's scratch, not the writer's
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if n, err := w.WriteFrom(readers[next]); err != nil || n != records {
					t.Fatalf("WriteFrom = %d, %v", n, err)
				}
				next++
			})
			if allocs > 1 {
				t.Fatalf("warm WriteFrom allocates %.0f objects per %d-record part, want at most the header read's 1", allocs, records)
			}
		})
	}
}
