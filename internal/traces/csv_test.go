package traces

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"insidedropbox/internal/wire"
)

// referenceCSV renders records through encoding/csv with the exact field
// formatting the pre-rewrite Writer used — the byte-identity oracle for
// the append-based encoder (golden stream hashes across the repo pin the
// same bytes transitively).
func referenceCSV(t *testing.T, recs []*FlowRecord, anonymize bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader[:]); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		client := r.Client.String()
		if anonymize {
			client = anonIP(r.Client)
		}
		var ns []string
		for _, n := range r.NotifyNamespaces {
			ns = append(ns, strconv.FormatUint(uint64(n), 10))
		}
		row := []string{
			r.VP, client, r.Server.String(),
			strconv.Itoa(int(r.ClientPort)), strconv.Itoa(int(r.ServerPort)),
			strconv.FormatInt(int64(r.FirstPacket), 10),
			strconv.FormatInt(int64(r.LastPacket), 10),
			strconv.FormatInt(int64(r.LastPayloadUp), 10),
			strconv.FormatInt(int64(r.LastPayloadDown), 10),
			strconv.FormatInt(r.BytesUp, 10), strconv.FormatInt(r.BytesDown, 10),
			strconv.Itoa(r.PktsUp), strconv.Itoa(r.PktsDown),
			strconv.Itoa(r.PSHUp), strconv.Itoa(r.PSHDown),
			strconv.Itoa(r.RetransUp), strconv.Itoa(r.RetransDown),
			strconv.FormatInt(r.MinRTT.Microseconds(), 10),
			strconv.Itoa(r.RTTSamples),
			r.SNI, r.CertName, r.FQDN,
			strconv.FormatUint(r.NotifyHost, 10), strings.Join(ns, ";"),
			boolRef(r.SawSYN), boolRef(r.SawFIN), boolRef(r.SawRST), boolRef(r.ServerClosed),
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func boolRef(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// TestCSVMatchesEncodingCSV pins the append-based encoder to the
// encoding/csv reference byte for byte, including fields that trigger
// csv quoting.
func TestCSVMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var recs []*FlowRecord
	for i := 0; i < 2_000; i++ {
		recs = append(recs, randRecord(rng, i))
	}
	// Quote-triggering and edge-case fields (never produced by the
	// simulator, but the encoder must not silently diverge on them).
	hostile := []string{
		"", `\.`, "a,b", `say "hi"`, "line\nbreak", "cr\rhere",
		" leadingspace", "\ttab", "é-utf8", `""`, ",", "\n",
	}
	for i, s := range hostile {
		r := randRecord(rng, i)
		r.VP = s
		r.SNI = hostile[(i+1)%len(hostile)]
		r.CertName = hostile[(i+2)%len(hostile)]
		r.FQDN = hostile[(i+3)%len(hostile)]
		recs = append(recs, r)
	}
	for _, anon := range []bool{false, true} {
		want := referenceCSV(t, recs, anon)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Anonymize = anon
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			got := buf.Bytes()
			n := min(len(got), len(want))
			at := n
			for i := 0; i < n; i++ {
				if got[i] != want[i] {
					at = i
					break
				}
			}
			lo := max(0, at-60)
			t.Fatalf("anon=%v: output diverges from encoding/csv at byte %d:\n got %q\nwant %q",
				anon, at, got[lo:min(len(got), at+60)], want[lo:min(len(want), at+60)])
		}
	}
}

// TestCSVWriteAllocations pins the hot-path allocation budget the
// append-based encoder bought (was 13.4 allocs/rec via encoding/csv +
// strconv.Format, the pr3 column of PERFORMANCE.md's archived table;
// ISSUE 7 targets <= 2).
func TestCSVWriteAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := make([]*FlowRecord, 64)
	for i := range recs {
		recs[i] = randRecord(rng, i)
	}
	w := NewWriter(io.Discard)
	w.Anonymize = true
	// Warm up: header row, row scratch growth, bufio fill.
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Write(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("CSV Write allocates %.1f/rec, want <= 2", allocs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// endless yields one byte pattern forever: input for the row cap.
type endless string

func (e endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e[i%len(e)]
	}
	return len(p), nil
}

// TestCSVReaderCaps: hostile input cannot make the reader hold more than
// its caps — a row that never ends is refused at 16 MiB whether it is one
// line or one quoted field over many, every slot's buffer and decoded-row
// scratch stay within a few times the row cap however long the input
// runs, and the intern tables stop growing.
func TestCSVReaderCaps(t *testing.T) {
	header := strings.Join(csvHeader[:], ",") + "\n"
	for name, tail := range map[string]endless{"one line": "x", "open quote": "xxxxxxx\n"} {
		r := NewReader(io.MultiReader(strings.NewReader(header+`"`), tail))
		_, err := r.Read()
		var ce *CSVError
		if !errors.As(err, &ce) || ce.Row != 2 || !strings.Contains(ce.Reason, "longer than") {
			t.Fatalf("%s: endless row: %v", name, err)
		}
		waitForSlots(r)
		for i, s := range r.ring.slots {
			if cap(s.v.buf) > maxCSVChunk || cap(s.v.unq) > 2*maxCSVChunk {
				t.Fatalf("%s: slot %d holds a %d-byte buffer and %d bytes of row scratch", name, i, cap(s.v.buf), cap(s.v.unq))
			}
		}
	}

	// Chunks of blank lines size their slabs by the bytes a row needs, not
	// by their newlines: a few bytes allocated per byte read ahead.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(io.MultiReader(strings.NewReader(header), endless("\n")))
	if _, err := r.Read(); err == nil || !strings.Contains(err.Error(), "row 2: blank line") {
		t.Fatalf("blank lines: %v", err)
	}
	waitForSlots(r)
	runtime.ReadMemStats(&after)
	if got, read := after.TotalAlloc-before.TotalAlloc, uint64(r.ring.size*csvChunkSize); got > 16*read {
		t.Fatalf("blank lines: %d bytes allocated reading ahead %d", got, read)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := sampleRecord()
	const rows = internEntries + 500
	for i := 0; i < rows; i++ {
		rec.SNI = "host" + strconv.Itoa(i) + ".example"
		rec.FQDN = strings.Repeat("x", internLen+1+i%7)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// A bad last row keeps the scratch in the reader, which hands it on at
	// a clean end of input.
	buf.WriteString("bad\n")
	r = NewReader(&buf)
	for i := 0; i < rows; i++ {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if want := "host" + strconv.Itoa(i) + ".example"; got.SNI != want || len(got.FQDN) != internLen+1+i%7 {
			t.Fatalf("row %d: sni %q, fqdn of %d bytes", i, got.SNI, len(got.FQDN))
		}
	}
	waitForSlots(r)
	for _, slot := range r.ring.slots {
		strs := slot.v.names
		if len(strs) > internEntries {
			t.Fatalf("intern table holds %d entries, cap %d", len(strs), internEntries)
		}
		for s := range strs {
			if len(s) > internLen {
				t.Fatalf("intern table holds a %d-byte string, cap %d", len(s), internLen)
			}
		}
	}
}

// waitForSlots waits until no chunk of r is being parsed.
func waitForSlots(r *Reader) {
	for _, s := range r.ring.slots {
		if s.busy {
			<-s.done
			s.busy = false
		}
	}
}

// csvRow is r as the Writer renders it, without the header.
func csvRow(t testing.TB, r *FlowRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(r); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[len(csvHeaderLine()):]
}

func csvHeaderLine() string { return strings.Join(csvHeader[:], ",") + "\n" }

// readCSVWorkers reads data to its end or first error with the ring
// GOMAXPROCS = workers gives the reader.
func readCSVWorkers(t testing.TB, data []byte, workers int) ([]*FlowRecord, error) {
	t.Helper()
	return readAll(t, withWorkers(NewReader(bytes.NewReader(data)), workers), 1<<22)
}

// sameAtEveryRing reads data with one slot and with a ring of five, and
// fails unless both return the same records and the same error, down to
// its row, column and reason. It returns what they read.
func sameAtEveryRing(t testing.TB, what string, data []byte) ([]*FlowRecord, error) {
	t.Helper()
	want, wantErr := readCSVWorkers(t, data, 1)
	got, gotErr := readCSVWorkers(t, data, 4)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("%s: a ring of five read %d records ending on %v; one slot %d ending on %v",
			what, len(got), gotErr, len(want), wantErr)
	}
	return want, wantErr
}

// TestCSVRowCap: a row of maxCSVRow bytes, its closing line end not
// counted, is read, and one byte more is refused, whether the row is one
// line or a quoted field over many.
func TestCSVRowCap(t *testing.T) {
	for _, shape := range []struct {
		name, unit string // the long field is unit repeated
		end        string // the row's line end
	}{{"one line", "x", "\r\n"}, {"quoted over many lines", "y\n", "\n"}} {
		rec := sampleRecord()
		rec.FQDN = strings.Repeat(shape.unit, (maxCSVRow-1000)/len(shape.unit))
		short := maxCSVRow - (len(csvRow(t, rec)) - 1)
		for _, over := range []int{0, 1} {
			rec.FQDN += strings.Repeat("z", short+over)
			row := csvRow(t, rec)
			rec.FQDN = rec.FQDN[:len(rec.FQDN)-short-over]
			if len(row)-1 != maxCSVRow+over {
				t.Fatalf("%s: built a row of %d bytes, want %d", shape.name, len(row)-1, maxCSVRow+over)
			}
			data := append([]byte(csvHeaderLine()), row[:len(row)-1]...)
			data = append(data, shape.end...)
			recs, err := readCSVWorkers(t, data, 4)
			what := fmt.Sprintf("%s, maxCSVRow+%d bytes", shape.name, over)
			if over == 0 {
				if err != io.EOF || len(recs) != 1 || len(recs[0].FQDN) != len(rec.FQDN)+short {
					t.Fatalf("%s: %d records, err %v; want the row", what, len(recs), err)
				}
				continue
			}
			var ce *CSVError
			if !errors.As(err, &ce) || ce.Row != 2 || ce.Column != "" || ce.Reason != fmt.Sprintf("longer than %d bytes", maxCSVRow) {
				t.Fatalf("%s: %d records, err %v; want row 2 refused for its length", what, len(recs), err)
			}
		}
	}
}

// TestCSVChunkBoundaries slides a hostile row — a quoted comma, doubled
// quotes, CR, LF and CRLF in its fields — across the reader's first chunk
// cut, one byte at a time from before its start to past its end, with a
// row whose quoted field is longer than a chunk after it; then it cuts the
// input at every byte of that window. Every input reads the same with one
// slot as with a ring of five, and the whole ones read back every record.
func TestCSVChunkBoundaries(t *testing.T) {
	fill := sampleRecord()
	fill.SNI = strings.Repeat("s", 2000) // few rows to a chunk
	hostile := sampleRecord()
	hostile.VP, hostile.SNI = "a,b", `say "hi", ""twice""`
	hostile.CertName, hostile.FQDN = "cr\rhere", "lf\nand crlf\r\nhere"
	long := sampleRecord()
	long.FQDN = strings.Repeat("x", csvChunkSize) + ",\"y\"\r\nz\n"
	fillRow, hostileRow, longRow := csvRow(t, fill), csvRow(t, hostile), csvRow(t, long)

	// Without padding the hostile row ends slack bytes before the cut; the
	// window pads the first row by 0 .. len(hostileRow)+2*slack bytes, which
	// moves the cut from there back to slack bytes before the row.
	const slack = 2
	bare := sampleRecord()
	bare.SNI = ""
	fills := (csvChunkSize - 4096) / len(fillRow)
	padLen := csvChunkSize - len(hostileRow) - slack - len(csvHeaderLine()) - fills*len(fillRow) - len(csvRow(t, bare))
	window := len(hostileRow) + 2*slack
	input := func(k int) (data []byte, want []*FlowRecord, hostileAt int) {
		pad := sampleRecord()
		pad.SNI = strings.Repeat("p", padLen+k)
		data = append([]byte(csvHeaderLine()), csvRow(t, pad)...)
		want = []*FlowRecord{pad}
		for range fills {
			data = append(data, fillRow...)
			want = append(want, fill)
		}
		hostileAt = len(data)
		data = append(append(append(data, hostileRow...), longRow...), fillRow...)
		return data, append(want, asRead(hostile), asRead(long), fill), hostileAt
	}
	for k := 0; k <= window; k++ {
		data, want, at := input(k)
		into := csvChunkSize - at
		if into != len(hostileRow)+slack-k {
			t.Fatalf("pad %d: the cut falls %d bytes into the hostile row, want %d", k, into, len(hostileRow)+slack-k)
		}
		got, err := sameAtEveryRing(t, fmt.Sprintf("the cut %d bytes into the hostile row", into), data)
		if err != io.EOF || !reflect.DeepEqual(got, want) {
			t.Fatalf("the cut %d bytes into the hostile row: %d records ending on %v, want the %d written", into, len(got), err, len(want))
		}
	}
	data, _, at := input(window / 2)
	for cut := at - slack; cut <= at+len(hostileRow)+slack; cut++ {
		got, err := sameAtEveryRing(t, fmt.Sprintf("input cut %d bytes into the hostile row", cut-at), data[:cut])
		// Only a cut at a line end, or one byte short of it, leaves whole rows.
		end := at + len(hostileRow)
		if whole := cut == at-1 || cut == at || cut == end-1 || cut == end; whole != (err == io.EOF) {
			t.Fatalf("input cut %d bytes into the hostile row: %d records ending on %v", cut-at, len(got), err)
		}
	}
}

// asRead is r as the reader returns it: "\r\n" in a quoted field reads as
// "\n", as in encoding/csv.
func asRead(r *FlowRecord) *FlowRecord {
	c := *r
	c.FQDN = strings.ReplaceAll(c.FQDN, "\r\n", "\n")
	return &c
}

// TestCSVAnonymizedOnHandOut: Anonymized turns true with the first token
// row Read returns, not when the chunk holding it is parsed — whether that
// row shares the first chunk with plain rows or lies chunks ahead, parsed
// before the first record is handed out.
func TestCSVAnonymizedOnHandOut(t *testing.T) {
	recs := randRecords(71, 6_000)
	for _, plain := range []int{10, 3_000} {
		data := csvExportOf(t, recs[:plain], false)
		data = append(data, csvExportOf(t, recs[plain:], true)[len(csvHeaderLine()):]...)
		for _, workers := range readerWorkers {
			r := withWorkers(NewReader(bytes.NewReader(data)), workers)
			for i := range recs {
				if _, err := r.Read(); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					waitForSlots(r) // every chunk read ahead is parsed
				}
				if r.Anonymized() != (i >= plain) {
					t.Fatalf("%d plain rows, %d workers: Anonymized() = %v after %d records", plain, workers, r.Anonymized(), i+1)
				}
			}
		}
	}
}

// TestCSVReaderNoGoroutineLeak: a reader dropped with chunks in flight
// owns no goroutine once they are parsed, as a block reader or writer.
func TestCSVReaderNoGoroutineLeak(t *testing.T) {
	data := csvExportOf(t, randRecords(72, 20_000), false)
	base := runtime.NumGoroutine()
	r := withWorkers(NewReader(bytes.NewReader(data)), 8)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if r.ring.n == 0 {
		t.Fatal("no chunk read ahead")
	}
	waitForGoroutines(t, base)
}

// csvExportOf writes recs as a CSV export.
func csvExportOf(t testing.TB, recs []*FlowRecord, anonymize bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Anonymize = anonymize
	writeRecords(t, w, recs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// anonIP renders the anonymous token for an address.
func anonIP(ip wire.IP) string {
	return string(appendAnonIP(nil, ip))
}
