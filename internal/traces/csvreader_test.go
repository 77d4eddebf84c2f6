package traces_test

// Tests of the strict CSV reader through the package's exported surface
// only, which lets them draw their sample from the workload generator
// (workload imports traces, so an in-package test could not).

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// header is the format's first row, spelled out here so that a change to
// the package's own table cannot hide from these tests.
const header = "vp,client,server,cport,sport,first,last,last_payload_up,last_payload_down," +
	"bytes_up,bytes_down,pkts_up,pkts_down,psh_up,psh_down,retr_up,retr_down," +
	"min_rtt_us,rtt_samples,sni,cert,fqdn,notify_host,notify_ns,syn,fin,rst,server_closed"

var columns = strings.Split(header, ",")

// goodRow is one valid row, column by column.
var goodRow = []string{
	"home1", "10.1.2.3", "184.72.9.9", "40001", "443",
	"3000000000", "9000000000", "8000000000", "-7000000000",
	"123456", "7890", "100", "60", "4", "7", "1", "2",
	"92000", "14", "dl-client9.dropbox.com", "*.dropbox.com", "dl-client9.dropbox.com",
	"777", "1;5;9", "1", "1", "0", "1",
}

// home1Sample is one shard of a small Home 1 population: a few thousand
// records with the notify, storage and background mix of a real export.
func home1Sample(tb testing.TB) []*traces.FlowRecord {
	tb.Helper()
	var recs []*traces.FlowRecord
	workload.GenerateShard(workload.Home1(0.02), 7, 0, 4, func(r *traces.FlowRecord) {
		recs = append(recs, r)
	})
	if len(recs) < 1000 {
		tb.Fatalf("sample has only %d records", len(recs))
	}
	return recs
}

// hostileRecords carry strings that force every quoting rule of the
// format: commas, quotes, CR, LF, CRLF, leading space, the empty string.
func hostileRecords() []*traces.FlowRecord {
	hostile := []string{
		"", `\.`, "a,b", `say "hi"`, "line\nbreak", "cr\rhere", "crlf\r\nhere",
		" leadingspace", "\ttab", "é-utf8", `""`, ",", "\n", `"`, "trailing\r",
	}
	var recs []*traces.FlowRecord
	for i := range hostile {
		recs = append(recs, &traces.FlowRecord{
			VP:     hostile[i],
			Client: wire.MakeIP(10, 0, byte(i), 1), Server: wire.MakeIP(184, 72, 9, byte(i)),
			ClientPort: uint16(40000 + i), ServerPort: 443,
			FirstPacket: time.Duration(i) * time.Second, LastPacket: time.Duration(i+1) * time.Second,
			LastPayloadUp: -time.Duration(i), BytesUp: int64(i) << 33, PktsUp: i, MinRTT: time.Duration(i) * time.Millisecond,
			SNI:        hostile[(i+1)%len(hostile)],
			CertName:   hostile[(i+2)%len(hostile)],
			FQDN:       hostile[(i+3)%len(hostile)],
			NotifyHost: uint64(i) << 60, NotifyNamespaces: []uint32{uint32(i), 1<<32 - 1},
			SawSYN: i%2 == 0, ServerClosed: i%3 == 0,
		})
	}
	return recs
}

func export(tb testing.TB, recs []*traces.FlowRecord, anonymize bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := traces.NewWriter(&buf)
	w.Anonymize = anonymize
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readCSV decodes data to the end or the first error.
func readCSV(data []byte) ([]*traces.FlowRecord, *traces.Reader, error) {
	r := traces.NewReader(bytes.NewReader(data))
	var recs []*traces.FlowRecord
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, r, nil
		}
		if err != nil {
			return recs, r, err
		}
		recs = append(recs, rec)
	}
}

// readCSVProcs is readCSV with the reader made, and read, at GOMAXPROCS
// procs: one slot worked inline at 1, a ring of procs+1 above.
func readCSVProcs(data []byte, procs int) ([]*traces.FlowRecord, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	recs, _, err := readCSV(data)
	return recs, err
}

// oracleRead is the reader this package had before the strict one:
// encoding/csv for the grammar and strconv with every error dropped for
// the fields, so that a field it cannot parse reads as zero. (Two details
// differ from that code and change no result on valid rows: addresses go
// through strconv instead of fmt.Sscanf, and notify_host through
// ParseUint — the old ParseInt zeroed hosts above 2^63-1.)
func oracleRead(data []byte) ([]*traces.FlowRecord, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = len(columns)
	if _, err := cr.Read(); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, err
	}
	atoi64 := func(s string) int64 { v, _ := strconv.ParseInt(s, 10, 64); return v }
	ip := func(s string) wire.IP {
		parts := strings.Split(s, ".")
		if len(parts) != 4 {
			return 0
		}
		var b [4]byte
		for i, p := range parts {
			v, err := strconv.ParseUint(p, 10, 8)
			if err != nil {
				return 0
			}
			b[i] = byte(v)
		}
		return wire.MakeIP(b[0], b[1], b[2], b[3])
	}
	var recs []*traces.FlowRecord
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		rec := &traces.FlowRecord{
			VP: row[0], Client: ip(row[1]), Server: ip(row[2]),
			ClientPort: uint16(atoi64(row[3])), ServerPort: uint16(atoi64(row[4])),
			FirstPacket: time.Duration(atoi64(row[5])), LastPacket: time.Duration(atoi64(row[6])),
			LastPayloadUp: time.Duration(atoi64(row[7])), LastPayloadDown: time.Duration(atoi64(row[8])),
			BytesUp: atoi64(row[9]), BytesDown: atoi64(row[10]),
			PktsUp: int(atoi64(row[11])), PktsDown: int(atoi64(row[12])),
			PSHUp: int(atoi64(row[13])), PSHDown: int(atoi64(row[14])),
			RetransUp: int(atoi64(row[15])), RetransDown: int(atoi64(row[16])),
			MinRTT: time.Duration(atoi64(row[17])) * time.Microsecond, RTTSamples: int(atoi64(row[18])),
			SNI: row[19], CertName: row[20], FQDN: row[21],
			SawSYN: row[24] == "1", SawFIN: row[25] == "1", SawRST: row[26] == "1", ServerClosed: row[27] == "1",
		}
		rec.NotifyHost, _ = strconv.ParseUint(row[22], 10, 64)
		if row[23] != "" {
			for _, part := range strings.Split(row[23], ";") {
				rec.NotifyNamespaces = append(rec.NotifyNamespaces, uint32(atoi64(part)))
			}
		}
		recs = append(recs, rec)
	}
}

// wantCSVError demands a *CSVError at the given row and column.
func wantCSVError(t *testing.T, err error, row int, column string) {
	t.Helper()
	var ce *traces.CSVError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want a *CSVError at row %d column %q", err, row, column)
	}
	if ce.Row != row || ce.Column != column {
		t.Fatalf("error %q is at row %d column %q, want row %d column %q", err, ce.Row, ce.Column, row, column)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("row %d", row)) || !strings.Contains(err.Error(), column) {
		t.Fatalf("message %q does not name row %d and column %q", err, row, column)
	}
}

// TestCSVStrictFields: one malformed value after another in each of the
// 28 columns must fail naming its row and column — and, where the damage
// is to a value and not to the quoting, the old reader returned a record.
func TestCSVStrictFields(t *testing.T) {
	integer := []string{"abc", "", "+5", "1.5", "0x10", " 5", "5 ", "-", "1e3", "9223372036854775808", "-9223372036854775809"}
	port := []string{"65536", "-1", "abc", "", "+5", "99999999999999999999"}
	address := []string{"1.2.3.4.5", "1.2.3", "256.1.1.1", "1..2.3", "1.2.3.4 ", "0001.2.3.4", "", "a.b.c.d", "-1.2.3.4"}
	quoting := []string{`a"b`, `"a"b`, `"ab`}
	flag := []string{"2", "", "01", "true", "-1"}
	bad := map[string][]string{
		"vp":     quoting,
		"client": append([]string{"hABCDEF012345", "h0123456789a", "h0123456789abc", "H0123456789ab", "h0123456789ag"}, address...),
		"server": append([]string{"h0123456789ab"}, address...),
		"cport":  port, "sport": port,
		"min_rtt_us":  append([]string{"9223372036854776", "-9223372036854776"}, integer...),
		"sni":         quoting,
		"cert":        quoting,
		"fqdn":        quoting,
		"notify_host": {"-1", "18446744073709551616", "abc", "", "+5"},
		"notify_ns":   {"1;;2", "4294967296", "1;", ";1", "a", "-1", "+5", "1;x"},
		"syn":         flag, "fin": flag, "rst": flag, "server_closed": flag,
	}
	for col, name := range columns {
		values, ok := bad[name]
		if !ok {
			values = integer
		}
		for _, v := range values {
			row := append([]string(nil), goodRow...)
			row[col] = v
			data := []byte(header + "\n" + strings.Join(goodRow, ",") + "\n" + strings.Join(row, ",") + "\n")
			recs, _, err := readCSV(data)
			if len(recs) != 1 {
				t.Fatalf("%s=%q: %d records before the error, want 1", name, v, len(recs))
			}
			wantCSVError(t, err, 3, name)
			if old, oerr := oracleRead(data); strings.Contains(v, `"`) {
				if oerr == nil {
					t.Errorf("%s=%q: the oracle accepted damaged quoting", name, v)
				}
			} else if oerr != nil || len(old) != 2 {
				t.Errorf("%s=%q: the old reader returned %d records, err %v; this table lists rows it let through", name, v, len(old), oerr)
			}
		}
	}
}

// TestCSVStrictRows: damage to the shape of the file.
func TestCSVStrictRows(t *testing.T) {
	good := strings.Join(goodRow, ",")
	reordered := append([]string(nil), columns...)
	reordered[3], reordered[4] = reordered[4], reordered[3]
	for _, tc := range []struct {
		name, data string
		records    int // read before the error
		row        int
		column     string
	}{
		{"foreign header", "a,b,c\n" + good + "\n", 0, 1, ""},
		{"foreign header of the right width", strings.Repeat("x,", 27) + "x\n" + good + "\n", 0, 1, "vp"},
		{"short header", strings.Join(columns[:27], ",") + "\n" + good + "\n", 0, 1, ""},
		{"reordered header", strings.Join(reordered, ",") + "\n" + good + "\n", 0, 1, "cport"},
		{"upper-case header", strings.ToUpper(header) + "\n" + good + "\n", 0, 1, "vp"},
		{"no header", good + "\n" + good + "\n", 0, 1, "vp"},
		{"27 fields", header + "\n" + good + "\n" + strings.Join(goodRow[:27], ",") + "\n", 1, 3, ""},
		{"29 fields", header + "\n" + good + ",0\n", 0, 2, ""},
		{"blank line", header + "\n" + good + "\n\n" + good + "\n", 1, 3, ""},
		{"blank CRLF line", header + "\r\n" + good + "\r\n\r\n" + good + "\r\n", 1, 3, ""},
		{"blank line after the header", header + "\n\n" + good + "\n", 0, 2, ""},
		{"trailing blank line", header + "\n" + good + "\n\n", 1, 3, ""},
		{"lone CR at the end", header + "\n" + good + "\n\r", 1, 3, ""},
		{"bare quote", header + "\n" + strings.Replace(good, "443", `4"3`, 1) + "\n", 0, 2, "sport"},
		{"unterminated quote", header + "\n" + strings.Replace(good, "*.dropbox.com", `"*.dropbox.com`, 1) + "\n" + good + "\n", 0, 2, "cert"},
		{"text after a closing quote", header + "\n" + strings.Replace(good, "*.dropbox.com", `"*.dropbox".com`, 1) + "\n", 0, 2, "cert"},
		{"quote past the last column", header + "\n" + good + `,"x"y` + "\n", 0, 2, ""},
	} {
		recs, r, err := readCSV([]byte(tc.data))
		if len(recs) != tc.records {
			t.Errorf("%s: %d records before the error, want %d", tc.name, len(recs), tc.records)
		}
		t.Run(tc.name, func(t *testing.T) { wantCSVError(t, err, tc.row, tc.column) })
		// The failure is sticky.
		if _, again := r.Read(); again != err {
			t.Errorf("%s: second Read returned %v, want the first error again", tc.name, again)
		}
	}
}

// TestCSVTruncation cuts a real export at every byte offset of its last
// row: short of the full row every cut is an error at that row, with every
// earlier record delivered; only the final newline may be missing.
func TestCSVTruncation(t *testing.T) {
	sample := home1Sample(t)[:50]
	for _, anon := range []bool{false, true} {
		data := export(t, sample, anon)
		lastRow := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
		for cut := lastRow; cut <= len(data); cut++ {
			recs, _, err := readCSV(data[:cut])
			switch {
			case cut == lastRow:
				if err != nil || len(recs) != len(sample)-1 {
					t.Fatalf("anon=%v: cut at the row boundary: %d records, err %v", anon, len(recs), err)
				}
			case cut >= len(data)-1:
				if err != nil || len(recs) != len(sample) {
					t.Fatalf("anon=%v: cut %d of %d (whole row): %d records, err %v", anon, cut, len(data), len(recs), err)
				}
			default:
				var ce *traces.CSVError
				if !errors.As(err, &ce) || ce.Row != len(sample)+1 || len(recs) != len(sample)-1 {
					t.Fatalf("anon=%v: cut %d of %d (%q): %d records, err %v; want an error at row %d",
						anon, cut, len(data), data[lastRow:cut], len(recs), err, len(sample)+1)
				}
			}
		}
	}
}

// TestCSVMatchesOracle: on everything the writer can produce — and on the
// same bytes with CRLF line ends or without a final newline — the strict
// reader returns the records the old encoding/csv-based one did.
func TestCSVMatchesOracle(t *testing.T) {
	sample := home1Sample(t)
	exports := map[string][]byte{
		"home1":           export(t, sample, false),
		"home1 anon":      export(t, sample, true),
		"hostile strings": export(t, hostileRecords(), false),
		"header only":     []byte(header + "\n"),
	}
	inputs := map[string][]byte{"empty": nil}
	for name, data := range exports {
		inputs[name] = data
		inputs[name+", CRLF"] = bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n"))
		inputs[name+", no final newline"] = data[:len(data)-1]
		inputs[name+", CRLF, no final newline"] = bytes.ReplaceAll(data[:len(data)-1], []byte("\n"), []byte("\r\n"))
	}
	for name, data := range inputs {
		want, err := oracleRead(data)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		got, r, err := readCSV(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, oracle read %d", name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: record %d:\n   got %+v\noracle %+v", name, i, got[i], want[i])
			}
		}
		if wantAnon := strings.Contains(name, "anon"); r.Anonymized() != wantAnon {
			t.Errorf("%s: Anonymized() = %v", name, r.Anonymized())
		}
	}
}

// TestCSVLongRows: rows that outgrow the reader's 64 KiB window, one plain
// and one whose quoted field spans a thousand lines, between ordinary rows.
func TestCSVLongRows(t *testing.T) {
	recs := hostileRecords()[:3]
	recs[1].SNI = strings.Repeat("x", 200_000)
	recs[2].FQDN = strings.Repeat("0123456789,\"quoted\"\n", 10_000)
	data := export(t, recs, false)
	got, _, err := readCSV(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("long rows did not round-trip")
	}
}

// checkFixedPoint reads data, writes the records back and reads those
// bytes again: the second write must equal the first, and with it the
// records. (One string the format cannot carry is excused: "\r\n" inside a
// quoted field has always read back as "\n", as in encoding/csv.)
func checkFixedPoint(t *testing.T, recs []*traces.FlowRecord) {
	t.Helper()
	once := export(t, recs, false)
	again, _, err := readCSV(once)
	if err != nil {
		t.Fatalf("the writer's own output was rejected: %v", err)
	}
	for _, r := range recs {
		if strings.Contains(r.VP+"|"+r.SNI+"|"+r.CertName+"|"+r.FQDN, "\r\n") {
			return
		}
	}
	if !reflect.DeepEqual(again, recs) {
		t.Fatalf("records changed across write and read")
	}
	if twice := export(t, again, false); !bytes.Equal(once, twice) {
		t.Fatalf("write, read, write is not a fixed point")
	}
}

// TestCSVFixedPoint: writer -> reader -> writer reproduces the bytes on a
// non-anonymized stream, and every column but client on an anonymized one.
func TestCSVFixedPoint(t *testing.T) {
	sample := home1Sample(t)
	plain := export(t, sample, false)
	got, _, err := readCSV(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export(t, got, false), plain) {
		t.Fatal("write, read, write changed a non-anonymized export")
	}
	checkFixedPoint(t, got)
	for _, r := range hostileRecords() {
		checkFixedPoint(t, []*traces.FlowRecord{r})
	}

	anon := export(t, sample, true)
	got, _, err = readCSV(anon)
	if err != nil {
		t.Fatal(err)
	}
	before, err := csv.NewReader(bytes.NewReader(anon)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	after, err := csv.NewReader(bytes.NewReader(export(t, got, false))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("%d rows became %d", len(before), len(after))
	}
	for i := range before {
		if i > 0 && after[i][1] != "0.0.0.0" {
			t.Fatalf("row %d: anonymized client read back as %q", i+1, after[i][1])
		}
		before[i][1], after[i][1] = "", ""
		if !reflect.DeepEqual(before[i], after[i]) {
			t.Fatalf("row %d changed outside the client column:\n%q\n%q", i+1, before[i], after[i])
		}
	}
}

// TestCSVReadAllocations pins the reader's budget — per chunk of about
// 256 KiB one record slab and one namespace slab, strings interned — the
// reader-side twin of TestCSVWriteAllocations (20.6 allocs/record through
// encoding/csv + strconv + fmt.Sscanf; 1.21 with one record and one
// namespace list per row). The sample, the Home 1 one four times over,
// spans several chunks.
func TestCSVReadAllocations(t *testing.T) {
	one := home1Sample(t)
	var sample []*traces.FlowRecord
	for range 4 {
		sample = append(sample, one...)
	}
	data := export(t, sample, true)
	src := bytes.NewReader(data)
	perFile := testing.AllocsPerRun(5, func() {
		src.Reset(data)
		r := traces.NewReader(src)
		n := 0
		for {
			_, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != len(sample) {
			t.Fatalf("read %d of %d records", n, len(sample))
		}
	})
	if per := perFile / float64(len(sample)); per > 0.1 {
		t.Fatalf("CSV Read allocates %.3f/record, want <= 0.1", per)
	} else {
		t.Logf("%.4f allocs/record over %d records", per, len(sample))
	}
}

// FuzzCSVReader: arbitrary bytes never panic the reader; a reader with
// one slot and one with a ring of five return the same records and the
// same error; a rejection is a sticky *CSVError with a row number; and
// whatever is accepted is what the old reader made of the same bytes and
// survives the write/read/write fixed point. The seeds are the committed
// corpus under testdata/fuzz: a plain, an anonymized and a quoted export,
// and one input per class of damage.
func FuzzCSVReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		one, oneErr := readCSVProcs(data, 1)
		five, fiveErr := readCSVProcs(data, 4)
		if !reflect.DeepEqual(five, one) || !reflect.DeepEqual(fiveErr, oneErr) {
			t.Fatalf("a ring of five read %d records ending on %v; one slot %d ending on %v", len(five), fiveErr, len(one), oneErr)
		}
		recs, r, err := readCSV(data)
		if err != nil {
			var ce *traces.CSVError
			if !errors.As(err, &ce) || ce.Row < 1 {
				t.Fatalf("rejection is not a row-numbered *CSVError: %v", err)
			}
			if _, again := r.Read(); again != err {
				t.Fatalf("error is not sticky: %v then %v", err, again)
			}
			return
		}
		if old, err := oracleRead(data); err != nil || !reflect.DeepEqual(old, recs) {
			t.Fatalf("accepted %d records; the oracle read %d, err %v", len(recs), len(old), err)
		}
		for _, rec := range recs {
			if len(rec.NotifyNamespaces) > len(data) {
				t.Fatalf("namespace list of %d from %d input bytes", len(rec.NotifyNamespaces), len(data))
			}
		}
		checkFixedPoint(t, recs)
	})
}

func BenchmarkCSVRead(b *testing.B) {
	sample := home1Sample(b)
	data := export(b, sample, true)
	src := bytes.NewReader(data)
	b.SetBytes(int64(len(data)) / int64(len(sample)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		src.Reset(data)
		r := traces.NewReader(src)
		for ; i < b.N; i++ {
			if _, err := r.Read(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
