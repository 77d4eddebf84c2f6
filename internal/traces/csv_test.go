package traces

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"
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
// line or one quoted field over many, and the intern table stops growing.
func TestCSVReaderCaps(t *testing.T) {
	header := strings.Join(csvHeader[:], ",") + "\n"
	for name, tail := range map[string]endless{"one line": "x", "open quote": "xxxxxxx\n"} {
		r := NewReader(io.MultiReader(strings.NewReader(header+`"`), tail))
		_, err := r.Read()
		var ce *CSVError
		if !errors.As(err, &ce) || ce.Row != 2 || !strings.Contains(ce.Reason, "longer than") {
			t.Fatalf("%s: endless row: %v", name, err)
		}
		if held := cap(r.long) + cap(r.unq); held > 2*maxCSVRow+2*csvWindow {
			t.Fatalf("%s: reader holds %d scratch bytes", name, held)
		}
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
	r := NewReader(&buf)
	for i := 0; i < rows; i++ {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if want := "host" + strconv.Itoa(i) + ".example"; got.SNI != want || len(got.FQDN) != internLen+1+i%7 {
			t.Fatalf("row %d: sni %q, fqdn of %d bytes", i, got.SNI, len(got.FQDN))
		}
	}
	if len(r.strs) > internEntries {
		t.Fatalf("intern table holds %d entries, cap %d", len(r.strs), internEntries)
	}
	for s := range r.strs {
		if len(s) > internLen {
			t.Fatalf("intern table holds a %d-byte string, cap %d", len(s), internLen)
		}
	}
}
