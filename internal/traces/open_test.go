package traces

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// readAll drains rd, returning its records and the error that ended them
// (io.EOF on a clean end). max backstops a reader that never ends.
func readAll(t testing.TB, rd RecordReader, max int) ([]*FlowRecord, error) {
	t.Helper()
	var recs []*FlowRecord
	for {
		r, err := rd.Read()
		if err != nil {
			return recs, err
		}
		if recs = append(recs, r); len(recs) > max {
			t.Fatalf("reader yielded more than %d records", max)
		}
	}
}

// TestOpen pins the one reader entry point: Open hands every format, raw
// or anonymized, to the reader that format's table row builds, which then
// reads exactly what it reads directly, whatever either one's worker
// count; a seekable source keeps the flate index; a pipe streams; and what
// is not a block stream is CSV's to judge.
func TestOpen(t *testing.T) {
	recs := randRecords(61, 1_000)
	for _, f := range formats {
		for _, anon := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/anon=%v", f.Name, anon), func(t *testing.T) {
				var buf bytes.Buffer
				w := f.New(&buf, anon, 1)
				writeRecords(t, w, recs)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				for i, workers := range readerWorkers {
					direct := withWorkers(f.NewReader(bytes.NewReader(buf.Bytes())), workers)
					opened, err := Open(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					opened = withWorkers(opened, readerWorkers[len(readerWorkers)-1-i]) // the other count
					if reflect.TypeOf(opened) != reflect.TypeOf(direct) {
						t.Fatalf("Open chose %T, the table row builds %T", opened, direct)
					}
					want, wantErr := readAll(t, direct, len(recs))
					got, gotErr := readAll(t, opened, len(recs))
					if wantErr != io.EOF || gotErr != io.EOF || len(want) != len(recs) {
						t.Fatalf("workers=%d: read %d records ending on %v directly, %d on %v through Open; wrote %d",
							workers, len(want), wantErr, len(got), gotErr, len(recs))
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers=%d: Open's reader read different records from the direct reader", workers)
					}
					if opened.Anonymized() != anon {
						t.Fatalf("Anonymized() = %v, want %v", opened.Anonymized(), anon)
					}
				}
			})
		}
	}

	// A seekable source reaches the flate reader itself, index and all.
	stream := encodeStream(t, flateFraming, recs, 64, 0, false)
	path := filepath.Join(t.TempDir(), "trace.idbf")
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for name, src := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(stream), "os.File": file} {
		rd, err := Open(src)
		if err != nil {
			t.Fatal(err)
		}
		rd = withWorkers(rd, 4)
		sk, ok := rd.(interface {
			NumRecords() (int64, error)
			SeekToRecord(int64) error
		})
		if !ok {
			t.Fatalf("%s: Open returned %T, which cannot seek", name, rd)
		}
		if n, err := sk.NumRecords(); err != nil || n != int64(len(recs)) {
			t.Fatalf("%s: NumRecords = %d, %v; want %d", name, n, err, len(recs))
		}
		for _, at := range []int{777, 0, 999} {
			if err := sk.SeekToRecord(int64(at)); err != nil {
				t.Fatalf("%s: SeekToRecord(%d): %v", name, at, err)
			}
			got, err := rd.Read()
			if err != nil || !reflect.DeepEqual(normalize(got), normalize(recs[at])) {
				t.Fatalf("%s: record %d after seek: %v", name, at, err)
			}
		}
	}

	// A pipe's *os.File has a Seek that fails: Open must put the peeked
	// magic back in front of the stream, which then reads sequentially.
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	wrote := make(chan error, 1)
	go func() {
		_, err := pw.Write(stream)
		pw.Close()
		wrote <- err
	}()
	rd, err := Open(pr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(t, rd, len(recs))
	if err != io.EOF || len(got) != len(recs) {
		t.Fatalf("pipe: read %d of %d records, ending on %v", len(got), len(recs), err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := rd.(*FlateReader).SeekToRecord(0); err == nil {
		t.Fatal("pipe: SeekToRecord succeeded on a stream that cannot seek")
	}

	// Empty input is a zero-record CSV export; junk is refused by the CSV
	// reader on its header row; a failing source is Open's own error.
	rd, err = Open(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("empty input: Read = %v, want io.EOF", err)
	}
	rd, err = Open(strings.NewReader("IDB not a trace\n"))
	if err != nil {
		t.Fatal(err)
	}
	var csvErr *CSVError
	if _, err := rd.Read(); !errors.As(err, &csvErr) || csvErr.Row != 1 {
		t.Fatalf("junk input: Read = %v, want a row-1 *CSVError", err)
	}
	boom := errors.New("boom")
	if _, err := Open(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("failing source: Open = %v, want %v", err, boom)
	}
}
