package traces

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"insidedropbox/internal/wire"
)

// fuzzRecord deserializes the fuzzer's raw bytes into a batch of
// records: a deterministic, crash-free mapping from arbitrary input to
// arbitrary-ish field values, so the round-trip fuzzers explore the
// encoder's input space rather than the decoder's.
func fuzzRecords(data []byte) []*FlowRecord {
	if len(data) == 0 {
		return nil
	}
	// The first byte seeds a PRNG; subsequent bytes perturb fields so the
	// corpus bytes matter beyond the seed.
	rng := rand.New(rand.NewSource(int64(data[0])))
	n := 1 + len(data)/4
	if n > 300 {
		n = 300
	}
	recs := make([]*FlowRecord, 0, n)
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	for i := 0; i < n; i++ {
		r := randRecord(rng, i)
		r.BytesUp = int64(at(i)) << (at(i+1) % 40)
		r.PktsUp = int(at(i + 2))
		r.FirstPacket = time.Duration(int64(at(i+3))) * time.Minute
		r.LastPacket = r.FirstPacket + time.Duration(at(i+4))*time.Second
		r.Client = wire.IP(uint32(at(i))<<24 | uint32(at(i+5)))
		if at(i+6)%7 == 0 {
			r.SNI = string(data[i%len(data):][:min(len(data)-i%len(data), 40)])
		}
		recs = append(recs, r)
	}
	return recs
}

// FuzzBinaryRoundTrip drives arbitrary record batches through the
// sequential binary codec, the parallel writer, and the flate tier,
// asserting lossless round-trips, read at 1 and 4 workers, and the
// cross-writer byte-identity contract.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte("inside dropbox imc2012"), uint8(7))
	f.Add(bytes.Repeat([]byte{0xab, 0x00, 0xff}, 40), uint8(129))
	f.Fuzz(func(t *testing.T, data []byte, knobs uint8) {
		recs := fuzzRecords(data)
		anon := knobs&1 != 0
		blockRecords := 1 + int(knobs>>1) // 1..128

		var seq bytes.Buffer
		bw := NewBinaryWriter(&seq)
		bw.Anonymize = anon
		bw.blockRecords = blockRecords
		for _, r := range recs {
			if err := bw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}

		var par bytes.Buffer
		pw := NewParallelBinaryWriter(&par, 4)
		pw.Anonymize = anon
		pw.blockRecords = blockRecords
		for _, r := range recs {
			if err := pw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Bytes(), par.Bytes()) {
			t.Fatal("parallel writer output differs from sequential writer")
		}

		for _, workers := range readerWorkers {
			br := withWorkers(NewBinaryReader(bytes.NewReader(seq.Bytes())), workers)
			for i, want := range recs {
				got, err := br.Read()
				if err != nil {
					t.Fatalf("workers=%d record %d: %v", workers, i, err)
				}
				checkFuzzRecord(t, i, got, want, anon)
			}
			if _, err := br.Read(); err != io.EOF {
				t.Fatalf("workers=%d: expected EOF, got %v", workers, err)
			}
			checkHandOuts(t, func() recordReader { return withWorkers(NewBinaryReader(bytes.NewReader(seq.Bytes())), workers) })
		}

		var comp bytes.Buffer
		fw := NewFlateWriter(&comp, 2)
		fw.Anonymize = anon
		fw.blockRecords = blockRecords
		for _, r := range recs {
			if err := fw.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, workers := range readerWorkers {
			fr := withWorkers(NewFlateReader(bytes.NewReader(comp.Bytes())), workers)
			for i, want := range recs {
				got, err := fr.Read()
				if err != nil {
					t.Fatalf("workers=%d flate record %d: %v", workers, i, err)
				}
				checkFuzzRecord(t, i, got, want, anon)
			}
			if _, err := fr.Read(); err != io.EOF {
				t.Fatalf("workers=%d flate: expected EOF, got %v", workers, err)
			}
			checkHandOuts(t, func() recordReader { return withWorkers(NewFlateReader(bytes.NewReader(comp.Bytes())), workers) })
		}
	})
}

// checkFuzzRecord compares a decoded record against the original,
// accounting for anonymization (client decodes to 0).
func checkFuzzRecord(t *testing.T, i int, got, want *FlowRecord, anon bool) {
	t.Helper()
	w := *normalize(want)
	if anon {
		w.Client = 0
	}
	if !reflect.DeepEqual(normalize(got), &w) {
		t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, &w)
	}
}

// FuzzWriteFrom feeds arbitrary bytes to WriteFrom as a part (contract
// point 17 for the column path). WriteFrom and the readers parse bodies
// with the same decodeBody, so what this pins is that appendRange's bytes
// equal add's: WriteFrom returns an error — the one ReadBlock returns,
// unless the source is anonymized, which it refuses — or writes exactly
// the bytes of Writing the records ReadBlock decodes; never a panic. knobs
// picks the export's anonymization and block size.
func FuzzWriteFrom(f *testing.F) {
	recs := randRecords(52, 150)
	for _, c := range []struct {
		blockRecords int
		anon         bool
		knobs        uint8
	}{{1, false, 0}, {7, false, 13}, {64, false, 255}, {64, true, 1}} {
		f.Add(encodeStream(f, binaryFraming, recs, c.blockRecords, 0, c.anon), c.knobs)
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("IDBT1\n\x00"), uint8(3))
	f.Add([]byte("IDBF1\n\x00\x00"), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, knobs uint8) {
		anon, blockRecords := knobs&1 != 0, 1+int(knobs>>1)
		var want bytes.Buffer
		ref := NewBinaryWriter(&want)
		ref.Anonymize, ref.blockRecords = anon, blockRecords
		rd := NewBinaryReader(bytes.NewReader(data))
		var refErr error
		for refErr == nil {
			var blk []*FlowRecord
			if blk, refErr = rd.ReadBlock(); refErr == nil {
				writeRecords(t, ref, blk)
			}
		}
		if refErr == io.EOF {
			refErr = nil
		}

		var got bytes.Buffer
		w := NewBinaryWriter(&got)
		w.Anonymize, w.blockRecords = anon, blockRecords
		_, err := w.WriteFrom(NewBinaryReader(bytes.NewReader(data)))
		if rd.Anonymized() {
			if err == nil {
				t.Fatal("WriteFrom accepted an anonymized source")
			}
			return
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("WriteFrom ended on %v, ReadBlock on %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteFrom wrote %d bytes, Writing ReadBlock's records %d", got.Len(), want.Len())
		}
	})
}

// FuzzFlateFrameReader feeds arbitrary bytes to both block readers: any
// input — corrupted, truncated, or valid — must produce records or a clean
// error, never a panic, hang, or unbounded allocation, and the same records
// and error from Read as from ReadBlock and at 1 worker as at 4. The same
// bytes through Open must read exactly as through the one reader their
// first bytes select (the CSV reader for anything without a block magic):
// the same records and the same first error, so Open hands a stream on
// and parses nothing.
func FuzzFlateFrameReader(f *testing.F) {
	// Valid streams (so mutations explore near-valid space), plus raw junk.
	rng := rand.New(rand.NewSource(51))
	var recs []*FlowRecord
	for i := 0; i < 200; i++ {
		recs = append(recs, randRecord(rng, i))
	}
	var comp bytes.Buffer
	fw := NewFlateWriter(&comp, 1)
	fw.blockRecords = 64
	for _, r := range recs {
		if err := fw.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(comp.Bytes())
	var raw bytes.Buffer
	bw := NewBinaryWriter(&raw)
	bw.blockRecords = 64
	for _, r := range recs {
		if err := bw.Write(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(raw.Bytes())
	f.Add([]byte{})
	f.Add([]byte("IDBF1\n\x00"))
	f.Add([]byte("IDBT1\n\x00"))
	f.Add([]byte("IDBF1\n\x00\x05\x03abc\x00"))
	var csv bytes.Buffer
	cw := NewWriter(&csv)
	writeRecords(f, cw, recs[:3])
	if err := cw.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(csv.Bytes())
	_, probes := flateIndexProbes(f)
	for _, p := range probes {
		f.Add(p.stream)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecords = 1 << 20 // backstop against decode loops
		for _, workers := range readerWorkers {
			fr := withWorkers(NewFlateReader(bytes.NewReader(data)), workers)
			for n := 0; ; n++ {
				if _, err := fr.Read(); err != nil {
					break
				}
				if n > maxRecords {
					t.Fatal("flate reader yielded implausibly many records")
				}
			}
			if fr.rs != nil {
				total, err := fr.NumRecords()
				if err == nil && (total < 0 || total > maxRecords) {
					t.Fatalf("implausible NumRecords %d", total)
				}
				if err == nil && total > 0 {
					if err := fr.SeekToRecord(total / 2); err == nil {
						fr.Read()
					}
				}
			}
			br := withWorkers(NewBinaryReader(bytes.NewReader(data)), workers)
			for n := 0; ; n++ {
				if _, err := br.Read(); err != nil {
					break
				}
				if n > maxRecords {
					t.Fatal("binary reader yielded implausibly many records")
				}
			}
			// Whatever the bytes are, the two hand-outs agree on them.
			checkHandOuts(t, func() recordReader { return withWorkers(NewFlateReader(bytes.NewReader(data)), workers) })
			checkHandOuts(t, func() recordReader { return withWorkers(NewBinaryReader(bytes.NewReader(data)), workers) })

			var direct RecordReader
			switch {
			case bytes.HasPrefix(data, flateMagic[:]):
				direct = withWorkers(NewFlateReader(bytes.NewReader(data)), workers)
			case bytes.HasPrefix(data, binaryMagic[:]):
				direct = withWorkers(NewBinaryReader(bytes.NewReader(data)), workers)
			default:
				direct = NewReader(bytes.NewReader(data))
			}
			opened, err := Open(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			opened = withWorkers(opened, workers)
			want, wantErr := readAll(t, direct, maxRecords)
			got, gotErr := readAll(t, opened, maxRecords)
			if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("through Open: %d records ending on %v; %T directly: %d ending on %v",
					len(got), gotErr, direct, len(want), wantErr)
			}
		}
		// Every worker count reads the same records and the same first error.
		for _, newReader := range []func(io.Reader) RecordReader{
			func(r io.Reader) RecordReader { return NewFlateReader(r) },
			func(r io.Reader) RecordReader { return NewBinaryReader(r) },
		} {
			want, wantErr := readAll(t, withWorkers(newReader(bytes.NewReader(data)), 1), maxRecords)
			got, gotErr := readAll(t, withWorkers(newReader(bytes.NewReader(data)), 4), maxRecords)
			if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("4 workers: %d records ending on %v; 1 worker: %d ending on %v", len(got), gotErr, len(want), wantErr)
			}
		}
	})
}
